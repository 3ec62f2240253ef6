"""Fast self-check of the benchmark: every workload at reduced size.

Usage, from the root of a checkout: ``python3 bench/selfcheck.py``

Runs each workload once untraced and once traced, on reduced inputs, and
fails unless every metric named in ``BENCHMARK.json`` (and the request
latencies of cli-mix) is emitted with its unit, every well-formed operation
passed its checks, and the result line has the shape the runner prints.
"""

import json
import sys

import run

# Reported by every untraced run, or only by the request stream, beside the
# metrics of BENCHMARK.json.
REPORT_ONLY = {"op_p50_ms": "ms", "op_p90_ms": "ms"}


def check(name: str, trace: bool, wanted: list[dict]) -> list[str]:
    report = run.run_workload(name, seed=1, seconds=0.1, trace=trace,
                              small=True)
    problems = []
    expect = {m["name"]: m["unit"] for m in wanted}
    if name == "cli-mix" and not trace:
        expect.update(REPORT_ONLY)
    for metric, unit in expect.items():
        got = report["metrics"].get(metric)
        if got is None:
            problems.append(f"{name}: {metric} missing")
        elif got["unit"] != unit or got["samples"] < 1:
            problems.append(f"{name}: {metric} has unit {got['unit']!r} "
                            f"and {got['samples']} samples")
    if not report["correct"] or report["attempted"] < 1:
        problems.append(f"{name}: correct={report['correct']}, "
                        f"attempted={report['attempted']}")
    if report["untraced_targets"]:
        problems.append(f"{name}: untraced {report['untraced_targets']}")
    line = run.result_line(report, wanted)
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name}: result keys {sorted(line)}")
    json.dumps(line)
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.prepare_imports()
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            problems += check(w["name"], trace,
                              spec["per_layer" if trace else "end_to_end"])
            print(f"{w['name']} trace={int(trace)}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
