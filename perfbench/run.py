#!/usr/bin/env python3
"""Builds and runs the repository benchmark; compares sets of its runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `perfbench` package (release, offline) from the checkout's own
sources into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload and prints its JSON result line last. Every run also leaves a
record under `.bench_runs/`.

    python3 perfbench/run.py compare <records-a> <records-b>

compares two sets of untraced run records (directories or files), metric
by metric against the bounds in BENCHMARK.json. It refuses sets whose
`nproc` or `tail_ms` percentile differs, and records of runs that failed or
were marked invalid.
"""

import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def command_output(command):
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run(arguments):
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + arguments, cwd=ROOT, env=env).returncode


def load_records(location):
    paths = (sorted(glob.glob(os.path.join(location, "*.json")))
             if os.path.isdir(location) else [location])
    records = []
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if not record.get("trace"):
            records.append(record)
    return records


def compare(locations):
    if len(locations) != 2:
        print("usage: run.py compare <records-a> <records-b>", file=sys.stderr)
        return 2
    sets = [load_records(location) for location in locations]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}
    cores = {record["nproc"] for records in sets for record in records}
    if len(cores) != 1:
        print(f"refused: the runs come from hosts with nproc {sorted(cores)}", file=sys.stderr)
        return 2
    for records in sets:
        for record in records:
            if not record["correct"] or record.get("valid") is False:
                print(f"refused: a {record['workload']} run (seed {record['seed']}) failed "
                      "or was marked invalid", file=sys.stderr)
                return 2
    regressed = False
    workloads = sorted({record["workload"] for records in sets for record in records})
    for workload in workloads:
        percentiles = {record["tail_percentile"] for records in sets for record in records
                       if record["workload"] == workload}
        if len(percentiles) != 1:
            print(f"refused: {workload} runs report tail_ms at percentiles {sorted(percentiles)}",
                  file=sys.stderr)
            return 2
        print(workload)
        for name, metric in bounds.items():
            values = [[record["metrics"][name]["value"] for record in records
                       if record["workload"] == workload] for records in sets]
            if min(len(side) for side in values) < 2:
                print(f"  {name}: too few runs")
                continue
            before, after = (statistics.median(side) for side in values)
            quartiles = statistics.quantiles(values[0], n=4)
            spread = (quartiles[2] - quartiles[0]) / before if before else 0.0
            change = (after - before) / before if before else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "worse" if worse > metric["bound"] else "ok"
            regressed |= verdict == "worse"
            print(f"  {name}: {before:.6g} -> {after:.6g} {metric['unit']} "
                  f"({change:+.1%}, spread {spread:.1%}, bound {metric['bound']:.0%}) {verdict}")
    return 1 if regressed else 0


def main(arguments):
    if arguments[:1] == ["compare"]:
        return compare(arguments[1:])
    return run(arguments)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
