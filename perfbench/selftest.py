#!/usr/bin/env python3
"""Small-size self-test of the droute benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py at self-test size (--small) in both modes and checks that
the result line has the contract's keys and every end-to-end (--trace 0) and
per-layer (--trace 1) metric, each finite and with BENCHMARK.json's unit.
It then reruns the workloads once per output check with
--selftest-skew-expected CHECK, which makes that check compare against a
deliberately wrong expected value, and checks that the run fails, names
that check and prints no result.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# Every output check, with the workload and mode that run it.
CHECKS = [
    ("campaign_grid", 0, "campaign_rounds_same_digest"),
    ("campaign_grid", 1, "campaign_traced_digest_matches_untraced"),
    ("campaign_grid", 1, "obs_spans_dropped"),
    ("fleet_churn", 0, "fleet_completions_equal_starts"),
    ("fleet_churn", 0, "fleet_delivered_equals_submitted"),
    ("fleet_churn", 0, "fleet_drained"),
    ("fleet_churn", 1, "obs_spans_dropped"),
    ("wire_upload", 0, "wire_sink_objects_received"),
    ("wire_upload", 0, "wire_sink_bytes_received"),
    ("wire_upload", 1, "obs_spans_dropped"),
]


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--small", *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def check_result(workload, trace, problems):
    done = run(workload, trace)
    if done.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit {done.returncode}: "
                        f"{done.stderr.strip()[-500:]}")
        return
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{workload} trace={trace}: correct/attempted wrong")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for entry in wanted:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            problems.append(
                f"{workload} trace={trace}: {entry['name']} missing")
        elif not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            problems.append(f"{workload} trace={trace}: {entry['name']} "
                            f"not finite: {metric.get('value')}")
        elif not metric.get("unit") or metric["unit"] != entry["unit"]:
            problems.append(f"{workload} trace={trace}: {entry['name']} "
                            f"unit {metric.get('unit')!r}")
    extra = set(result["metrics"]) - {entry["name"] for entry in wanted}
    if extra:
        problems.append(f"{workload} trace={trace}: unlisted {sorted(extra)}")


def check_caught(workload, trace, check, problems):
    done = run(workload, trace, "--selftest-skew-expected", check)
    last = done.stdout.splitlines()[-1] if done.stdout.strip() else ""
    if done.returncode == 0 or last.startswith("{"):
        problems.append(f"{workload} trace={trace}: a wrong expected value "
                        f"for {check} was not caught (exit {done.returncode})")
    elif f"check '{check}' FAILED" not in done.stderr:
        problems.append(f"{workload} trace={trace}: failure does not name "
                        f"{check}: {done.stderr.strip()[-300:]}")
    else:
        print(f"  caught {check} (trace={trace})")


def main():
    problems = []
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        print(f"selftest {workload}")
        for trace in (0, 1):
            check_result(workload, trace, problems)
        for check_workload, trace, check in CHECKS:
            if check_workload == workload:
                check_caught(workload, trace, check, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " +
          ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
