"""Run one hoermander-kit benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload iso-strip --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A report with provenance, per-operation times and output digests is written
to perfbench/out/, and with ``--trace 1`` the spans as well.
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy is imported

import os  # noqa: E402

# one BLAS/OpenMP thread in every workload process, set before numpy loads:
# default threading doubles CPU use on this library's small factorizations
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("iso-interval", "iso-strip", "jump-study", "compat-sweep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_loop(wl, seconds: float, speed):
    """Operations back to back until the next one would end past ``seconds``.

    At least one operation runs.  Returns (start times since T0, durations,
    outputs by index, failed count, wall time of the phase); durations and
    wall time exclude the time the speed probe took.
    """
    starts, durations, outputs, failed = [], [], {}, 0
    start = time.perf_counter()
    busy_start = speed.busy_s
    i = 0
    while True:
        t0 = time.perf_counter()
        busy0 = speed.busy_s
        try:
            outputs[i] = wl.op(i)
        except Exception:  # an operation that raises is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
        starts.append(t0 - T0)
        durations.append(time.perf_counter() - t0 - (speed.busy_s - busy0))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return starts, durations, outputs, failed, elapsed - (speed.busy_s - busy_start)


def run_checks(wl, outputs: dict) -> list[str]:
    bad = []
    for i, out in outputs.items():
        try:
            bad += wl.check(i, out)
        except Exception:  # a check that cannot run counts as a failed check
            bad.append(f"check of operation {i} raised:\n{traceback.format_exc()}")
    try:
        bad += wl.check_run()
    except Exception:
        bad.append(f"run check raised:\n{traceback.format_exc()}")
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hoermander_kit" / "__init__.py").is_file():
        print(f"error: hoermander_kit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probe
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    speed = probe.SpeedProbe()
    import_s = time.perf_counter() - T0
    # traced runs leave the probe off: its kernel would show up in the fft spans
    with spans.installed(tracer) if tracer else speed:
        wl = workloads.make(args.workload, args.seed)
        t0 = time.perf_counter()
        wl.prepare()  # once, cold: the caches it fills count in setup_s
        prepare_s = time.perf_counter() - t0 - speed.busy_s
        setup_busy_s = speed.busy_s
        first_timed_sample = len(speed.samples)
        if tracer:
            tracer.active = True
        starts, durations, outputs, failed, wall = timed_loop(wl, args.seconds, speed)
        if tracer:
            tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup_factor = speed.factor(0, first_timed_sample)
    timed_factor = speed.factor(first_timed_sample)

    t0 = time.perf_counter()
    failures = run_checks(wl, outputs)
    check_s = time.perf_counter() - t0
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    completed = len(outputs)
    ok_durations = [d for i, d in enumerate(durations) if i in outputs] or durations
    raw = {
        "op_s": statistics.median(ok_durations),
        "ops_per_s": completed / wall,
        # from the first line of this file to the start of the first timed operation
        "setup_s": starts[0] - setup_busy_s,
    }
    # times at nominal machine speed (see probe.py); raw values go to the report
    end_to_end = {
        "op_s": {"value": raw["op_s"] / timed_factor, "unit": "s"},
        "ops_per_s": {"value": raw["ops_per_s"] * timed_factor, "unit": "op/s"},
        "setup_s": {"value": raw["setup_s"] / setup_factor, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    metrics = tracer.layer_metrics(completed) if tracer else end_to_end
    result = {
        "correct": not failures,
        "attempted": len(durations),
        "failed": failed,
        "metrics": metrics,
    }

    prov = provenance(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "speed_factor": {"setup": setup_factor, "timed": timed_factor},
        "raw": raw,
        "op_starts_s": starts,
        "op_durations_s": durations,
        "probe_times_s": [t - T0 for t in speed.times],
        "probe_kernel_s": speed.samples,
        "check_s": check_s,
        "digests": {str(i): wl.digest(out) for i, out in outputs.items()},
        "end_to_end": end_to_end,
        "failures": failures,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer:
        tracer.dump(OUT / f"{stem}.spans.json")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
