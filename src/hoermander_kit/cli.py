"""Command-line front end: hoermander-kit <subcommand>.

Subcommands map to the verification entry points: multiplier norms of stored
fields, interpolation identity sweeps, compatibility checks on synthesized
or configured problems, trace-identity checks, the isomorphism benchmark,
and the jump study.  Reports are written as JSON (or CSV where tabular) and
the exit code is 0 exactly when every PASS criterion of the invoked command
holds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bench, interp, parabolic as pb, params, spectra, traces
from .errors import UnknownConfigKey
from .params import constant, log_power, param_from_dict
from .weights import isotropic, parabolic_split

__all__ = ["main"]


def _parse_phi(spec: str | None):
    if not spec:
        return constant()
    return param_from_dict(json.loads(spec))


def _emit(args, report: dict | str, name: str, csv: str | None = None) -> None:
    """Print a report (its CSV if given); with --out write <name>.json and <name>.csv.

    ``report`` is a payload dict or the JSON text of one.
    """
    text = report if isinstance(report, str) else json.dumps(report, indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text)
        if csv is not None:
            (out / f"{name}.csv").write_text(csv)
    print(text if csv is None else csv)


def _cmd_norm(args) -> int:
    field = spectra.load_field(args.field)
    phi = _parse_phi(args.phi)
    make = parabolic_split if args.anisotropy == "parabolic" else isotropic
    idx = make(args.s, phi, dimension=field.lattice.k)
    value = spectra.norm(idx, field)
    _emit(args, {"field": str(args.field), "space": idx.describe(), "norm": value}, "norm")
    return 0


def _resolutions(args, convert) -> tuple[int, ...]:
    """The --resolutions flag as a tuple of ``convert`` of its comma-separated items."""
    return pb._config_value(f"{args.command} --resolutions", _list_of(convert),
                            args.resolutions.split(","))


def _cmd_interp_check(args) -> int:
    sizes = _resolutions(args, pb._pow2)
    rows = []
    ok = True
    for n in sizes:
        lat = spectra.Lattice(sizes=(n, n), periods=(2 * np.pi, 2 * np.pi))
        for phi in (constant(), log_power(1.0), log_power(-1.0)):
            rep = interp.verify_prop_interpolation(
                0.0, 1.0, 2.0, 0.0, phi, lat, trials=args.trials, seed=args.seed
            )
            rows.append(asdict(rep))
            ok = ok and rep.max_deviation <= 1e-10
        pair = interp.AdmissiblePair(
            idx0=parabolic_split(0.0, dimension=2),
            idx1=parabolic_split(2.0, dimension=2),
            lattice=lat,
        )
        alpha = params.build_psi(0, 0.5, 2, log_power(1.0))
        beta = params.build_psi(0, 1.5, 2, log_power(1.0))
        psi = params.InterpParam(evaluator=np.sqrt)
        rep = interp.verify_reiteration(alpha, beta, psi, pair,
                                        trials=args.trials, seed=args.seed)
        rows.append(asdict(rep))
        ok = ok and rep.max_deviation <= 1e-12
    _emit(args, {"reports": rows, "passed": ok}, "interp-check")
    return 0 if ok else 1


def _cmd_compat_check(args) -> int:
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    # s is this command's own key beside the problem's
    s = pb._config_value("compat-check s", _above_two, cfg.get("s", args.s))
    if args.config:
        problem = pb.problem_from_config({k: v for k, v in cfg.items() if k != "s"})
    else:
        problem = pb.heat_problem(pb.IntervalGeometry(nx=args.nx))
    nt = args.nt
    trial = bench.synthesize_trial(problem.geometry, problem.tau, nt,
                                   seed=args.seed, band=3)
    f, g, h = bench.apply_lambda(problem, trial, nt)
    rep = pb.check_compatibility(problem, f, g, h, s=s)
    _emit(args, rep.to_dict(), "compat-check")
    return 0 if rep.passed else 1


def _cmd_trace_check(args) -> int:
    beta = traces.default_cutoff()
    slat = spectra.Lattice(sizes=(64,), periods=(2 * np.pi,))
    worst = 0.0
    for r in (1, 2, 3):
        for seed in range(args.trials):
            v = traces.CauchyData.random(slat, r, seed=args.seed + seed)
            back = traces.lift_trace(v, beta, r)
            for k in range(r):
                scale = float(np.max(np.abs(v.components[k])))
                err = float(np.max(np.abs(back.components[k] - v.components[k]))) / scale
                worst = max(worst, err)
    moments = {
        f"m{m}k{k}": traces.cutoff_moments(beta, m, k)
        for m in (0, 1) for k in (0, 1)
    }
    ok = worst <= 1e-9
    _emit(args, {"max_identity_error": worst, "moments": moments, "passed": ok},
          "trace-check")
    return 0 if ok else 1


def _pow2_at_least_4(value) -> int:
    """``value`` as an integer power of two >= 4."""
    n = pb._pow2(value)
    if n < 4:
        raise ValueError("below 4")
    return n


def _above_two(value) -> float:
    """``value`` as a finite float s > 2, the smoothness the compatibility checks need."""
    if not 2.0 < float(value) < math.inf:
        raise ValueError("not a finite s > 2")
    return float(value)


def _param(d) -> params.FunctionParam:
    """A function parameter from its JSON object; a missing key is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError("not an object")
    try:
        return param_from_dict(d)
    except KeyError as err:
        raise ValueError(f"missing key {err}") from err


def _list_of(convert):
    """A converter of a list (not a string) to the tuple of ``convert`` of its items."""
    def read(values) -> tuple:
        if not isinstance(values, list):
            raise ValueError("not a list")
        return tuple(convert(v) for v in values)
    return read


_ISO_BENCH_KEYS = ("geometry", "boundary", "s_grid", "phi", "trials",
                   "resolutions", "seed", "ny", "band")


def _cmd_iso_bench(args) -> int:
    # the flags give every default; the keys of a --config file override them
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    unknown = sorted(set(cfg) - set(_ISO_BENCH_KEYS))
    if unknown:
        raise UnknownConfigKey(
            f"{args.config}: unknown keys {unknown}; "
            f"a bench case reads {list(_ISO_BENCH_KEYS)}"
        )

    def read(key: str, convert, default):
        return pb._config_value(f"iso-bench {key}", convert, cfg.get(key, default))

    if "phi" in cfg:
        phis = read("phi", _list_of(_param), None)
    else:
        phis = (constant(), log_power(1.0), log_power(-1.0))

    case = bench.BenchCase(
        geometry_kind=cfg.get("geometry", args.geometry),
        boundary=cfg.get("boundary", "dirichlet"),
        s_grid=read("s_grid", _list_of(float), args.s_grid.split(",")),
        phi_list=phis,
        trial_count=read("trials", pb._integer, args.trials),
        resolutions=read("resolutions", _list_of(pb._integer), args.resolutions.split(",")),
        seed=read("seed", pb._integer, args.seed),
        ny=read("ny", pb._integer, args.ny),
        band=read("band", pb._integer, args.band),
    )
    rep = bench.estimate_isomorphism(case)
    ok = rep.drift_passed()
    _emit(args, rep.to_json(), "iso-bench", csv=rep.to_csv() if args.csv else None)
    print(f"drift check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_jump_study(args) -> int:
    # box points per axis: nx = nt = resolution / 2 must be a power of two
    resolutions = _resolutions(args, _pow2_at_least_4)
    rep = bench.jump_study(
        s_star=args.s_star,
        eps_pair=(args.eps1, args.eps2),
        resolutions=resolutions,
        trials=args.trials,
        seed=args.seed,
    )
    ok = rep.envelope_stable() and rep.violation_monotone()
    _emit(args, rep.to_json(), "jump-study")
    print(f"jump study: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hoermander-kit")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="directory for JSON reports")
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("norm", parents=[common], help="multiplier norm of a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--phi", default=None, help='function parameter JSON, e.g. {"kind":"LogPower","theta":[1.0]}')
    p.add_argument("--anisotropy", choices=("parabolic", "isotropic"), default="parabolic")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("interp-check", parents=[common], help="interpolation identity sweeps")
    p.add_argument("--resolutions", default="16,32")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(fn=_cmd_interp_check)

    p = sub.add_parser("compat-check", parents=[common], help="compatibility conditions on synthesized data")
    p.add_argument("--config", default=None, help="problem config JSON file")
    p.add_argument("--s", type=float, default=4.0)
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--nt", type=int, default=128)
    p.set_defaults(fn=_cmd_compat_check)

    p = sub.add_parser("trace-check", parents=[common], help="trace/lift identity and cutoff moments")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=_cmd_trace_check)

    p = sub.add_parser("iso-bench", parents=[common], help="two-sided isomorphism surrogate")
    p.add_argument("--config", default=None, help="bench case JSON file")
    p.add_argument("--geometry", choices=("interval", "strip"), default="interval")
    p.add_argument("--s-grid", default="2.6,3,4,4.6")
    p.add_argument("--resolutions", default="32,64")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--ny", type=int, default=16)
    p.add_argument("--band", type=int, default=4)
    p.add_argument("--json", dest="csv", action="store_false", default=False)
    p.add_argument("--csv", dest="csv", action="store_true")
    p.set_defaults(fn=_cmd_iso_bench)

    p = sub.add_parser("jump-study", parents=[common], help="half-interpolation at a jump point")
    p.add_argument("--s-star", type=float, default=3.5)
    p.add_argument("--eps1", type=float, default=0.1)
    p.add_argument("--eps2", type=float, default=0.2)
    p.add_argument("--resolutions", default="16,32")
    p.add_argument("--trials", type=int, default=30)
    p.set_defaults(fn=_cmd_jump_study)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
