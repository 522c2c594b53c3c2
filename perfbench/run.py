"""Run one benchmark workload in this fresh process and print its result.

    python3 perfbench/run.py --workload f2-m32 --seed 1 --seconds 10 --trace 0

Run from a source checkout: the benchmark imports ``boxqi`` from the
checkout's ``src/`` and refuses any other copy.  It repeats whole rounds of
the workload until ``--seconds`` have passed and at least 100 probe calls
were timed, checks every output, and prints as its last line one JSON
object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A record of the run (versions, commit, boxqi path, all metrics, failures)
goes to ``.perfbench_out/runs/``, and with ``--trace 1`` the spans go to
``.perfbench_out/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: cold set-ups per run; setup_s is their median
SETUP_REPEATS = 7

#: probe calls per run at least, so that ten lie beyond the 90th percentile
MIN_PROBE_CALLS = 100

#: no round starts after this many seconds, whatever the probe count
MAX_MEASURE_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> dict:
    """The program's default worker count, and one BLAS thread.

    The program runs one worker unless told otherwise.  One BLAS thread
    keeps the whole process on one core, so idle BLAS threads spinning on
    the other core do not slow the timed thread on a 2-core machine.  Must
    run before NumPy is imported.
    """
    os.environ.pop("BOXQI_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return {"BOXQI_THREADS": None, "blas_threads": 1,
            "cores": len(os.sched_getaffinity(0))}


def _cold_setup_s() -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _import_boxqi():
    """Import boxqi from this checkout's src/, or stop."""
    if not (SRC / "boxqi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no boxqi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import boxqi
    path = Path(boxqi.__file__).resolve().parent
    if path != SRC / "boxqi":
        sys.exit(f"perfbench: imported boxqi from {path}, not {SRC}")
    return path


def _more(rec, start, seconds) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (rec.probe_calls < MIN_PROBE_CALLS
                                 and elapsed < MAX_MEASURE_S)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = _pin_threads()
    boxqi_path = _import_boxqi()
    sys.path.insert(0, str(HERE))
    import numpy as np

    from workloads import WORKLOADS, Recorder, run_round

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {sorted(WORKLOADS)})")

    setup_s = median(_cold_setup_s() for _ in range(SETUP_REPEATS))

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    try:
        from boxqi import boxspline, stencils
        boxspline.get_table()
        stencils.library()
        setup_spans = len(tracer.spans) if tracer else 0
        rec = Recorder(tracer)
        rng = np.random.default_rng(args.seed)
        rounds = 0
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            start = time.perf_counter()
            while rounds == 0 or _more(rec, start, args.seconds):
                run_round(workload, rng, rec, Path(tmp))
                rounds += 1
            measured_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()

    end_to_end = {name: fmean(values) for name, values in rec.values.items()}
    end_to_end["setup_s"] = setup_s
    if rec.probe_ms:
        end_to_end["probe_ms_p90"] = float(np.percentile(rec.probe_ms, 90))
    end_to_end["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = layer_metrics(tracer, setup_spans, rounds) if tracer else {}

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "measured_s": measured_s, "rounds": rounds,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(), "boxqi": str(boxqi_path),
        "threads": threads, "attempted": rec.attempted, "failed": rec.failed,
        "failures": rec.failures, "probe_calls": len(rec.probe_ms),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "samples": {**rec.values, "probe_ms": rec.probe_ms},
    }
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.dump(OUT / "traces" / f"{stamp}.json")
    for line in rec.failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
