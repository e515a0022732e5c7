#!/usr/bin/env python3
"""crashguard benchmark: replay, encounters and estimate workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

One workload runs in this single process, closed loop, one caller, with
BLAS pinned to one thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run and its overhead.
The last line of stdout is the result object; the line before it starts
with ``perfbench`` and records the environment, the exact counters and
the output digest.  ``--self-check`` runs a few-second check that the
counters repeat and the traced run works.
"""

import os

# pinned before numpy loads, here and in every child process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 15  # fresh interpreters per run; setup_s is their median
SELF_CHECK_SIZE = {"replay": 4, "encounters": 100, "estimate": 40}  # each workload's ``size``, made small


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("replay", "encounters", "estimate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(args, numpy) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def setup_times(workload: str, first_input, count: int) -> tuple[list[float], list[float]]:
    """Calibrated and wall spawn-to-ready seconds of fresh interpreters
    loading the first input; the reference loop runs before each."""
    from calibration import Calibrator

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, *map(str, first_input)]
    calibrator = Calibrator()
    calibrator.warm()
    times, raw = [], []
    for _ in range(count):
        calibrator.run()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}")
        times.append(calibrator.scale(elapsed))
        raw.append(elapsed)
    return times, raw


def measure(workload, seconds: float, invoke):
    """Timed windows until ``seconds`` of wall time have passed."""
    from workloads import Stats

    stats = Stats()
    stats.calibrator.warm()
    start = time.perf_counter()
    index = 0
    while True:
        stats.windows.append(workload.window(index, stats, invoke))
        index += 1
        if time.perf_counter() - start >= seconds:
            return stats


def latency_record(stats) -> tuple[dict, dict]:
    """Percentiles robust to the bursts of a shared machine.

    Where every window repeats the same inputs, each input's latency is
    its median over the windows and the percentile is taken over inputs.
    Otherwise the percentile is taken per window and the median over
    windows is reported.
    """
    import numpy as np

    keyed = [statistics.median(times) for key, times in stats.by_key.items() if stats.key_work[key][0]]
    groups = [np.asarray(keyed) * 1e3] if keyed else [np.asarray(w.latencies) * 1e3 for w in stats.windows if w.latencies]
    raw_ms = np.asarray(stats.raw_latencies) * 1e3
    values, record = {}, {}
    for name, q in (("op_p50_ms", 50), ("op_p90_ms", 90)):
        cuts = [float(np.percentile(g, q)) for g in groups]
        values[name] = float(np.median(cuts)) if cuts else float("nan")
        record[name] = {
            "percentile": q,
            "over": "inputs, each its median over windows" if keyed else "ops of a window, median over windows",
            "groups": len(groups),
            "samples_in_smallest": min((g.size for g in groups), default=0),
            "fewest_beyond": min((int((g > c).sum()) for g, c in zip(groups, cuts)), default=0),
            "ops": int(raw_ms.size),
            "pooled_wall_ms": float(np.percentile(raw_ms, q)) if raw_ms.size else None,
        }
    return values, record


def remove_work(work: Path):
    """Delete a run's scratch directory, and its parent once empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def run_check(workload):
    """The untimed check phase, counting eig fallbacks from their warnings."""
    from workloads import Counters, known_defects

    counters = Counters()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        workload.check(counters)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counters.known_defects = known_defects(SRC, workload.work)
    counters.eig_fallbacks = sum("eigendecomposition" in str(w.message) for w in caught)
    return counters


def run_workload(args) -> int:
    import numpy

    import crashguard

    if Path(crashguard.__file__).resolve().parent != (SRC / "crashguard").resolve():
        print(f"error: crashguard imported from {crashguard.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, direct

    info = {"env": environment(args, numpy)}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, SRC)
        first_input = workload.prepare()
        if args.trace == 0:
            setup, info["setup_wall_s"] = setup_times(args.workload, first_input, SETUP_PROBES)
            info["setup_s"] = setup

        counters = run_check(workload)
        # one pass over every distinct input has run; later passes add only allocator noise
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["counters"] = counters.as_dict()
        info["problems"] = counters.problems

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            untraced = measure(workload, args.seconds if args.trace == 0 else args.seconds / 2, direct)
        phases = [untraced]
        if args.trace == 1:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    traced = measure(workload, args.seconds / 2, tracer.invoke)
            finally:
                tracer.uninstall()
            phases.append(traced)
            eig_fallbacks = sum("eigendecomposition" in str(w.message) for w in caught)
            layer = tracer.metrics(traced.attempted, eig_fallbacks)
            overhead = untraced.rates()[0] / traced.rates()[0] - 1.0
            layer["trace.overhead_pct"] = (overhead * 100.0, "%", "lower")
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layer.items()}
            info["absent"] = tracer.absent
            info["prediction_table"] = tracing.LAYERS
        else:
            latency, info["latency"] = latency_record(untraced)
            info["calibration"] = untraced.calibrator.record()
            ops_per_s, items_per_s = untraced.rates()
            values = {
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "ops_per_s": (ops_per_s, "1/s"),
                "op_p50_ms": (latency["op_p50_ms"], "ms"),
                "op_p90_ms": (latency["op_p90_ms"], "ms"),
                "items_per_s": (items_per_s, "1/s"),
            }
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    finally:
        remove_work(work)

    attempted = sum(p.attempted for p in phases)
    failures = sum((p.failures for p in phases), start=Counter())
    failed = sum(failures.values())
    errors = [e for p in phases for e in p.errors]
    info["ops"] = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": dict(sorted(failures.items())),
        "windows": [len(p.windows) for p in phases],
        "mismatches": errors,
    }
    correct = not counters.problems and not errors
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_check() -> int:
    """A few-second check: counters repeat exactly, and every phase runs."""
    import tracing
    from workloads import WORKLOADS

    ok = True
    work = ROOT / ".perfbench_work" / f"self-check-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            results = []
            for attempt in range(2):
                (work / f"{name}{attempt}").mkdir(parents=True, exist_ok=True)
                workload = cls(7, work / f"{name}{attempt}", SRC)
                workload.size = SELF_CHECK_SIZE[name]
                workload.prepare()
                counters = run_check(workload)
                results.append(counters.as_dict())
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    stats = measure(workload, 0.01, tracer.invoke)
            finally:
                tracer.uninstall()
            repeat = results[0] == results[1]
            clean = not counters.problems and not stats.errors
            ok = ok and repeat and clean and not tracer.absent
            print(f"{name}: counters repeat {repeat}, outputs correct {clean}, "
                  f"absent names {tracer.absent}, {json.dumps(results[0], sort_keys=True)}")
    finally:
        remove_work(work)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crashguard" / "__init__.py").is_file():
        print(f"error: no crashguard sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import raise_timeout

    signal.signal(signal.SIGALRM, raise_timeout)
    if args.self_check:
        return self_check()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
