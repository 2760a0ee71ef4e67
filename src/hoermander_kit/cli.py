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
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import _config, bench, interp, parabolic as pb, params, spectra, traces
from ._config import integer, one_of, pow2, real
from .params import constant, log_power, param_from_dict
from .weights import isotropic, parabolic_split

__all__ = ["main"]

# Every command's inputs: name -> (converter, default[, only]).  An input is the flag
# --name (dashes for underscores) and, for a command with --config, the key name of that
# file, which overrides the flag; only = "flag" or "key" keeps one of the two.  A converter
# in a list reads a list: a comma-separated flag or a JSON array.  A default of ... makes
# the flag required; [converter, least] reads a list of at least that many items.  Every
# input is converted before the command does any work; one that does not convert raises
# InvalidConfig naming "<command> --<flag>" or "<command> <key>".
_INPUTS = {
    "norm": {
        "seed": (integer, 0),
        "s": (real, ...),
        "phi": (lambda text: param_from_dict(json.loads(text)), '{"kind": "Constant"}'),
        "anisotropy": (one_of("parabolic", "isotropic"), "parabolic"),
    },
    "interp-check": {"seed": (integer, 0), "resolutions": ([pow2], "16,32"),
                     "trials": (partial(integer, least=1), 50)},
    "compat-check": {
        "seed": (integer, 0, "flag"),
        "s": (partial(real, above=2.0), 4.0),  # the smoothness the compatibility checks need
        "nx": (pow2, 128, "flag"), "nt": (pow2, 128, "flag"),
    },
    "trace-check": {"seed": (integer, 0), "trials": (partial(integer, least=1), 20)},
    # BenchCase checks the kinds and the ranges of these
    "iso-bench": {
        "seed": (integer, 0),
        "geometry": (str, "interval"),
        "boundary": (str, "dirichlet", "key"),
        "s_grid": ([float], "2.6,3,4,4.6"),
        "phi": ([param_from_dict], [{"kind": "Constant"}, {"kind": "LogPower", "theta": [1.0]},
                                    {"kind": "LogPower", "theta": [-1.0]}], "key"),
        "trials": (integer, 30),
        # the drift criterion compares the two finest resolutions
        "resolutions": ([integer, 2], "32,64"),
        "ny": (integer, 16), "band": (integer, 4),
    },
    "jump-study": {
        "seed": (integer, 0),
        "s_star": (real, 3.5), "eps1": (real, 0.1), "eps2": (real, 0.2),
        # box points per axis: nx = nt = resolution / 2 must be a power of two; the
        # criteria compare the two finest resolutions
        "resolutions": ([partial(pow2, least=4), 2], "16,32"),
        "trials": (partial(integer, least=1), 30),
    },
}


def _read(args) -> None:
    """Convert every input of the command in place, from its --config key where the file
    holds it, else from its flag or default; ``args.unread`` keeps the keys no input reads."""
    path = getattr(args, "config", None)
    cfg = _config.read_value(path, _config.json_object, Path(path).read_text()) if path else {}
    for name, (convert, default, *only) in _INPUTS[args.command].items():
        if only != ["flag"] and name in cfg:
            where, value = name, cfg.pop(name)
        elif only == ["key"]:
            where, value = name, default
        else:
            where, value = "--" + name.replace("_", "-"), getattr(args, name)
        if isinstance(convert, list):
            convert = _config.list_of(*convert)
        setattr(args, name, _config.read_value(f"{args.command} {where}", convert, value))
    args.unread = cfg


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
    make = parabolic_split if args.anisotropy == "parabolic" else isotropic
    idx = make(args.s, args.phi, dimension=field.lattice.k)
    value = spectra.norm(idx, field)
    _emit(args, {"field": str(args.field), "space": idx.describe(), "norm": value}, "norm")
    return 0


def _cmd_interp_check(args) -> int:
    rows = []
    ok = True
    for n in args.resolutions:
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
    problem = (pb.problem_from_config(args.unread) if args.config
               else pb.heat_problem(pb.IntervalGeometry(nx=args.nx)))
    trial = bench.synthesize_trial(problem.geometry, problem.tau, args.nt,
                                   seed=args.seed, band=3)
    f, g, h = bench.apply_lambda(problem, trial, args.nt)
    rep = pb.check_compatibility(problem, f, g, h, s=args.s)
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


def _cmd_iso_bench(args) -> int:
    _config.check_keys(args.unread, args.config, (), tuple(_INPUTS["iso-bench"]))
    case = bench.BenchCase(
        geometry_kind=args.geometry, boundary=args.boundary, s_grid=args.s_grid,
        phi_list=args.phi, trial_count=args.trials, resolutions=args.resolutions,
        seed=args.seed, ny=args.ny, band=args.band,
    )
    rep = bench.estimate_isomorphism(case)
    ok = rep.drift_passed()
    _emit(args, rep.to_json(), "iso-bench", csv=rep.to_csv() if args.csv else None)
    print(f"drift check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_jump_study(args) -> int:
    rep = bench.jump_study(
        s_star=args.s_star,
        eps_pair=(args.eps1, args.eps2),
        resolutions=args.resolutions,
        trials=args.trials,
        seed=args.seed,
    )
    ok = rep.envelope_stable() and rep.violation_monotone()
    _emit(args, rep.to_json(), "jump-study")
    print(f"jump study: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {
    "norm": (_cmd_norm, "multiplier norm of a stored field"),
    "interp-check": (_cmd_interp_check, "interpolation identity sweeps"),
    "compat-check": (_cmd_compat_check, "compatibility conditions on synthesized data"),
    "trace-check": (_cmd_trace_check, "trace/lift identity and cutoff moments"),
    "iso-bench": (_cmd_iso_bench, "two-sided isomorphism surrogate"),
    "jump-study": (_cmd_jump_study, "half-interpolation at a jump point"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hoermander-kit")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (fn, text) in _COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="directory for JSON reports")
        for name, (convert, default, *only) in _INPUTS[command].items():
            if only != ["key"]:
                p.add_argument("--" + name.replace("_", "-"), default=default, required=default is ...,
                               help=None if default is ... else f"default {default}",
                               type=(lambda text: text.split(",")) if isinstance(convert, list) else None)
    parsers["norm"].add_argument("--field", required=True)
    parsers["compat-check"].add_argument("--config", default=None, help="problem config JSON file")
    parsers["iso-bench"].add_argument("--config", default=None, help="bench case JSON file")
    parsers["iso-bench"].add_argument("--json", dest="csv", action="store_false", default=False)
    parsers["iso-bench"].add_argument("--csv", dest="csv", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _read(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
