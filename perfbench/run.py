"""Benchmark of fiforoute: one workload, one process, closed loop.

    python3 perfbench/run.py --workload fuzz-unit --seed 1 --seconds 16 --trace 0

Run from the repository root. The library is imported from ``src/`` and the
oracle from ``tests/reference.py``. Set-up (import, inputs, files) runs
several times and reports its median. Then whole passes over the workload's
items run back to back, each item starting when the previous returns,
until their summed measured time reaches ``--seconds`` and at least three
passes ran; a workload whose single pass outlasts ``--seconds`` runs once.
Every reported time is scaled to a reference machine speed by the speed
probe of ``speed.py``, which samples the machine while the run lasts.
Outputs of the first pass are checked against oracles as each item
finishes, outside its timing; later passes must repeat them exactly. With
``--trace 1`` one more pass runs with span recorders installed and the
per-layer metrics are printed instead of the end-to-end ones. The last
line of stdout is the JSON result.
"""
from __future__ import annotations

import os

# one process, no extra threads: numpy's BLAS pool must stay empty
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_REPEATS = 9
SETUP_REPEATS = (3, 7)  # at least, at most; more while they sum to under SETUP_BUDGET_S
SETUP_BUDGET_S = 3.0
MIN_PASSES = 3  # so each item's median latency outvotes one disturbed pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(fr, np) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    mem_kb = 0
    meminfo = Path("/proc/meminfo")
    if meminfo.is_file():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fiforoute": fr.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gb": round(mem_kb / 2**20, 1),
        "commit": commit,
    }


def _run_pass(probe, workload, items, receive):
    """Run each item between two probe stamps; hand its output to `receive` after the second.

    Returns the (start, end) stamps of every item.
    """
    spans = []
    for index, item in enumerate(items):
        start = probe.stamp()
        try:
            out = workload.run(item)
        except Exception as exc:  # a raising operation is a failed one, not a crashed benchmark
            out = ("raised", repr(exc))
        spans.append((start, probe.stamp()))
        receive(index, item, out)
    return spans


def _import_seconds() -> float:
    """Median measured time of `import fiforoute` in fresh interpreters, one at a time."""
    code = "import time; t = time.perf_counter(); import fiforoute; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _digest(out) -> bytes:
    return hashlib.blake2b(pickle.dumps(out, protocol=5), digest_size=16).digest()


def _wants_pass(walls, seconds) -> bool:
    if not walls:
        return True
    if walls[0] >= seconds:  # one pass already outlasts the run
        return False
    return sum(walls) < seconds or len(walls) < MIN_PASSES


def _nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "fiforoute" / "__init__.py").is_file() or not (ROOT / "tests" / "reference.py").is_file():
        print(f"perfbench: no src/fiforoute or tests/reference.py under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import fiforoute as fr
    import numpy as np

    from checks import Tally
    from spans import Tracer
    from speed import REFERENCE_S, SpeedProbe
    from workloads import STAT_KEYS, STAT_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = Path.cwd() / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    # before the probe starts: sampled beside a child, it reads the child's load as a slow machine
    import_raw_s = _import_seconds()
    probe = SpeedProbe()
    try:
        with probe.running():
            setup_spans = []
            low, high = SETUP_REPEATS
            while len(setup_spans) < low or (
                len(setup_spans) < high and sum(b - a for a, b in setup_spans) < SETUP_BUDGET_S
            ):
                shutil.rmtree(workdir, ignore_errors=True)
                start = probe.stamp()
                workdir.mkdir(parents=True)
                items = workload.setup(args.seed, workdir)
                setup_spans.append((start, probe.stamp()))

            # the first pass is checked item by item as it goes, so no pass keeps
            # outputs alive; every later pass must reproduce each output exactly
            tallies, digests, stats = [], [], Counter(dict.fromkeys(STAT_KEYS, 0))

            def check(index, item, out):
                if isinstance(out, tuple) and out[:1] == ("raised",):
                    tally = Tally()
                    tally.op("item", [out[1]])
                else:
                    tally, item_stats = workload.check(item, out)
                    stats.update(item_stats)
                tallies.append(tally)
                digests.append(_digest(out))

            def repeat_pass():
                same = []
                spans = _run_pass(probe, workload, items, lambda i, item, out: same.append(_digest(out) == digests[i]))
                repeats.append(same)
                return spans

            item_times = [[] for _ in items]
            walls, raw_walls, repeats = [], [], []
            while _wants_pass(raw_walls, args.seconds):
                spans = repeat_pass() if walls else _run_pass(probe, workload, items, check)
                times = [probe.scaled(a, b) for a, b in spans]
                walls.append(sum(times))
                raw_walls.append(sum(b - a for a, b in spans))
                for samples, t in zip(item_times, times):
                    samples.append(t)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times = [probe.scaled(a, b) for a, b in setup_spans]  # now with samples after them too
            import_s = probe.rescale(import_raw_s, -math.inf, math.inf)  # at the run's median speed

            tracer = Tracer() if args.trace else None
            if tracer is not None:
                with tracer.installed(fr):
                    traced_wall = sum(probe.scaled(a, b) for a, b in repeat_pass())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = failed = 0
    failures = Counter()
    for same in [[True] * len(items)] + repeats:
        for tally, ok in zip(tallies, same):
            attempted += tally.attempted
            if ok:
                failed += len(tally.failures)
                failures.update(f.op for f in tally.failures)
            else:
                failed += tally.attempted
                failures["output differs from the first pass"] += tally.attempted

    print(f"perfbench {workload.name} seed={args.seed} items/pass={len(items)} pass_s=" + ",".join(f"{w:.3f}" for w in walls))
    print("measured pass_s=" + ",".join(f"{w:.3f}" for w in raw_walls) + " setup_s=" + ",".join(f"{b - a:.3f}" for a, b in setup_spans))
    print(f"setup import_s={import_s:.3f} measured_import_s={import_raw_s:.3f} repeats_s=" + ",".join(f"{t:.3f}" for t in setup_times))
    loops = statistics.quantiles(probe.loops, n=4)
    print(f"speed probe samples={len(probe.loops)} loop_ms q1/median/q3="
          + "/".join(f"{1e3 * x:.3f}" for x in loops) + f" reference_ms={1e3 * REFERENCE_S:.3f}")
    print("env " + json.dumps(_environment(fr, np), sort_keys=True))
    print("exact " + json.dumps(dict(stats), sort_keys=True))
    print(f"checked attempted={attempted} failed={failed} failed_frac={failed / attempted:.6f}")
    for op, count in sorted(failures.items()):
        print(f"failed {count:6d} x {op}")
    first_failure = next((f for t in tallies for f in t.failures), None)
    if first_failure is not None:
        print(f"  first failure: {first_failure.op}: {first_failure.detail[:300]}")

    if tracer is None:
        latencies = [statistics.median(samples) for samples in item_times]  # one per item
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "item_p99_ms": (1e3 * _nearest_rank(latencies, 0.99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
        }
    else:
        metrics = tracer.metrics()
        metrics.update({name: (value, STAT_UNITS.get(name, "count")) for name, value in stats.items()})
        metrics["trace.overhead_frac"] = (traced_wall / statistics.median(walls) - 1, "ratio")
        metrics["check.failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
