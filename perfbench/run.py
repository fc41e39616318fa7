#!/usr/bin/env python3
"""Build and run the droute benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/ plus droute_perfbench) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build; later runs rebuild
only what changed. The program's human-readable report is passed through,
and the last stdout line is one JSON object holding exactly the metrics
BENCHMARK.json lists for the mode: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A failed build, output check or
metric exits non-zero without that line. Extra arguments (--small,
--selftest-skew-expected CHECK) go to droute_perfbench unchanged.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds droute_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no droute sources under {ROOT / 'src'}; run from a checkout")
    tree = out / "perfbench"
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(tree),
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as sink:
        for step in steps:
            done = subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT)
            if done.returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (full log: {log})")
    return tree / "droute_perfbench"


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def contract_metrics(report, trace):
    """Picks BENCHMARK.json's metrics for the mode out of the report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        got = report["metrics"].get(name)
        if got is None:
            fail(f"droute_perfbench did not report metric {name}", 4)
        if not math.isfinite(got["value"]):
            fail(f"metric {name} is not finite", 4)
        if got["unit"] != entry["unit"]:
            fail(f"metric {name} has unit {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}", 4)
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_id()] + extra
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        trace = out / "traces" / f"{args.workload}.json"
        command += ["--trace-out", str(trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write("\n".join(line for line in lines
                                   if not line.startswith("{")) + "\n")
        fail(f"{args.workload} failed (exit {run.returncode})",
             run.returncode or 1)
    report = json.loads(lines[-1])

    reports = out / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(lines[-1] + "\n")

    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": contract_metrics(report, args.trace)}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
