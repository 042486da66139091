#!/usr/bin/env python3
"""Convert google-benchmark JSON output into the repo's BENCH_hotpaths.json.

Usage:
    bench/micro_hotpaths --benchmark_format=json | tools/bench_to_json.py
    tools/bench_to_json.py raw.json [more.json ...] [-o BENCH_hotpaths.json]

A baseline is best taken with repetitions (e.g. --benchmark_repetitions=5);
each benchmark then records the median of its repeats.  Several inputs
merge into one file, a later input's entry replacing an earlier one of the
same name: a quick full pass followed by a repeated pass over a few names
keeps the medians of those names and the single samples of the rest.

Keeps one entry per benchmark (name -> real/cpu time) plus enough host
context to interpret the numbers across machines, so successive commits of
BENCH_hotpaths.json form a perf trajectory for the hot paths.  Provenance:
the CPU count, the seo build type and compiler micro_hotpaths was built
with, and the commit (`git describe --dirty` of this checkout at conversion
time).
"""
import argparse
import json
import pathlib
import subprocess
import sys


def checkout_commit() -> str | None:
    """`git describe --always --dirty` of the checkout holding this script."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=pathlib.Path(__file__).resolve().parent, capture_output=True,
            text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip() or None


def convert(raw: dict, commit: str | None = None) -> dict:
    context = raw.get("context", {})
    out = {
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
            "library_build_type": context.get("library_build_type"),
            "seo_build_type": context.get("seo_build_type"),
            "seo_compiler": context.get("seo_compiler"),
            "commit": commit,
        },
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", []):
        name = bench["name"]
        if bench.get("run_type") == "aggregate":
            # Under --benchmark_repetitions the median of the repeats, which
            # follows them in the output, is the entry kept.
            if bench.get("aggregate_name") != "median":
                continue
            name = bench["run_name"]
        out["benchmarks"][name] = {
            "real_time": bench.get("real_time"),
            "cpu_time": bench.get("cpu_time"),
            "time_unit": bench.get("time_unit"),
            "iterations": bench.get("iterations"),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="*", default=["-"],
                        help="google-benchmark JSON files (default: stdin); "
                             "later files override earlier entries")
    parser.add_argument("-o", "--output", default="BENCH_hotpaths.json",
                        help="output path (default: BENCH_hotpaths.json)")
    args = parser.parse_args()

    commit = checkout_commit()
    result = None
    for path in args.inputs:
        if path == "-":
            raw = json.load(sys.stdin)
        else:
            with open(path) as f:
                raw = json.load(f)
        part = convert(raw, commit)
        if result is None:
            result = part
        else:
            result["benchmarks"].update(part["benchmarks"])
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(result['benchmarks'])} benchmarks to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
