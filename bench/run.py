"""paircodes benchmark: one workload, one seed, every output checked.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {sweep-deep,sweep-wide,cli-mix}
                         --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; nothing is installed.
Batches of the workload run back to back for about ``--seconds`` seconds,
and every metric is the median over batches.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  ``wall_s`` (one verified batch), ``setup_s`` (median over fresh
  interpreters that import paircodes and build what the workload's batches
  need, see ``setup_probe.py``) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced batches and reports the
  per-layer metrics: self and inclusive times and counts per layer from the
  spans of ``spans.py``, ``tracing.overhead_s`` (traced minus untraced
  batch time) and ``repo.src_lines``.

A detailed JSON report (sample counts, failures by request class, request
latency percentiles, environment and provenance) is printed first; the last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 21
SETUPS_PER_BATCH = 3
# One client in one process: BLAS gets one thread.  Set before numpy loads.
BLAS_THREADS = "1"


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def prepare_imports() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    if not (SRC / "paircodes" / "__init__.py").is_file():
        fail(f"no paircodes package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "paircodes").glob("*.py")))


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "repo.src_lines": src_lines(),
    }


def setup_time(workload) -> float:
    """Fresh interpreter -> import paircodes -> what the batches need."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *workload.probe],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return time.perf_counter() - t0


class Runner:
    """Runs batches of one workload and keeps their timings and tallies."""

    def __init__(self, workload, seed: int, small: bool):
        from workloads import Tally
        self.workload = workload
        self.seed = seed
        self.small = small
        self.tally = Tally()
        self.tracer = None
        self.walls: list[float] = []      # untraced batches
        self.latencies: list[list[float]] = []   # of their requests
        self._op = 0

    def call(self, module: str, name: str, *args, **kwargs):
        """Call paircodes.<module>.<name>, looked up now; one operation."""
        self._op += 1
        if self.tracer is not None:
            self.tracer.op = self._op
        mod = importlib.import_module(f"paircodes.{module}")
        return getattr(mod, name)(*args, **kwargs)

    def _timed_batch(self) -> float:
        """Set up fresh inputs, untimed, then time one batch on them."""
        inputs = self.workload.setup(self.seed, self.small)
        t0 = time.perf_counter()
        self.workload.batch(inputs, self.tally, self.call)
        return time.perf_counter() - t0

    def batch(self) -> None:
        done = len(self.tally.latencies_s)
        self.walls.append(self._timed_batch())
        self.latencies.append(self.tally.latencies_s[done:])

    def traced_batch(self) -> tuple:
        """(batch time, tracer, output bytes) of one traced batch."""
        from spans import Tracer
        self.tracer = Tracer()
        out_before = self.tally.output_bytes
        try:
            with self.tracer.installed():
                wall = self._timed_batch()
        finally:
            tracer, self.tracer = self.tracer, None
        return wall, tracer, self.tally.output_bytes - out_before


def run_until(seconds: float, step) -> None:
    """Call step() until another step would overrun; at least once."""
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        s0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - s0)
        if time.perf_counter() - t0 + longest > seconds:
            return


def percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def untimed_first(per_batch: list) -> list:
    """The first batch warms the process up: its outputs are checked, but
    its times are left out whenever another batch ran."""
    return per_batch[1:] or per_batch


def untraced(runner: Runner, seconds: float):
    """Batches back to back.  Before each of the first few, a few set-ups in
    fresh interpreters, so that set-up is sampled across the run, like the
    batches."""
    setup: list[float] = []

    def step():
        for _ in range(min(SETUPS_PER_BATCH, SETUP_REPEATS - len(setup))):
            setup.append(setup_time(runner.workload))
        runner.batch()
    run_until(seconds, step)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time(runner.workload))
    walls = untimed_first(runner.walls)
    lat = [t for batch in untimed_first(runner.latencies) for t in batch]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }
    if lat:
        # Only cli-mix is a request stream; the sweeps have no request latency.
        metrics["op_p50_ms"] = (1000 * statistics.median(lat), "ms", len(lat))
        metrics["op_p90_ms"] = (1000 * percentile(lat, 90), "ms", len(lat))
    return metrics


UNITS = [("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
         ("_share", "ratio"), ("_bytes", "bytes")]


def traced(runner: Runner, seconds: float):
    """Untraced and traced batches in turn, starting with an untraced one."""
    from spans import layer_metrics
    runs: list[tuple] = []

    def step():
        if len(runner.walls) > len(runs):
            runs.append(runner.traced_batch())
        else:
            runner.batch()
    run_until(seconds, step)
    if not runs:
        runs.append(runner.traced_batch())
    untraced_wall = statistics.median(untimed_first(runner.walls))
    per_batch = []
    for wall, tracer, out_bytes in runs:
        m = layer_metrics(tracer.spans, wall)
        m["cli.output_bytes"] = out_bytes
        m["tracing.overhead_s"] = wall - untraced_wall
        per_batch.append(m)
    last_tracer = runs[-1][1]
    OUT.mkdir(exist_ok=True)
    last_tracer.write(OUT / f"spans-{runner.workload.name}.jsonl")
    metrics = {}
    for name in per_batch[0]:
        unit = next((u for suffix, u in UNITS if name.endswith(suffix)),
                    "count")
        metrics[name] = (statistics.median(m[name] for m in per_batch), unit,
                         len(per_batch))
    metrics["repo.src_lines"] = (src_lines(), "lines", 1)
    return metrics, last_tracer.missing


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Run one workload and return the detailed report."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, small)
    if trace:
        metrics, missing = traced(runner, seconds)
    else:
        metrics, missing = untraced(runner, seconds), []
    tally = runner.tally
    return {
        "batch_walls_s": runner.walls,
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "classes": tally.classes,
        "untraced_targets": missing,
        "environment": environment(),
    }


def result_line(report: dict, wanted: list[dict]) -> dict:
    metrics = {}
    for spec in wanted:
        got = report["metrics"].get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} was not measured")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    prepare_imports()
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report, indent=1, sort_keys=True))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(result_line(report, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
