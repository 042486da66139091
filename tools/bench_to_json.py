#!/usr/bin/env python3
"""Convert google-benchmark JSON output into the repo's BENCH_hotpaths.json.

Usage:
    bench/micro_hotpaths --benchmark_format=json | tools/bench_to_json.py
    tools/bench_to_json.py raw.json [more.json ...] [-o BENCH_hotpaths.json]

A baseline is best taken with repetitions (e.g. --benchmark_repetitions=5);
each benchmark then records the median of its repeats.  Several inputs
pool into one file: every repetition of a name in every input is one
sample, and the entry is the median of all of them.  That is how the
paired CI gate combines interleaved rounds: the parent's rounds pool into
one file, the change's into another, and tools/bench_compare.py compares
the two.

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
import statistics
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


def convert(raws: list, commit: str | None = None) -> dict:
    """One entry per name: the median over every repetition in `raws`."""
    context = raws[0].get("context", {}) if raws else {}
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
    samples = {}
    for raw in raws:
        for bench in raw.get("benchmarks", []):
            # Under --benchmark_repetitions the repeats are listed one by
            # one, followed by their aggregates; the repeats are the samples.
            if bench.get("run_type") != "aggregate":
                samples.setdefault(bench["name"], []).append(bench)
    for name, runs in samples.items():
        units = {run.get("time_unit") for run in runs}
        if len(units) != 1:
            raise ValueError(f"{name}: mixed time units {sorted(units)}")
        out["benchmarks"][name] = {
            "real_time": statistics.median(r["real_time"] for r in runs),
            "cpu_time": statistics.median(r["cpu_time"] for r in runs),
            "time_unit": units.pop(),
            "iterations": sum(r.get("iterations", 0) for r in runs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="*", default=["-"],
                        help="google-benchmark JSON files (default: stdin); "
                             "their repetitions pool into one median a name")
    parser.add_argument("-o", "--output", default="BENCH_hotpaths.json",
                        help="output path (default: BENCH_hotpaths.json)")
    args = parser.parse_args()

    raws = []
    for path in args.inputs:
        if path == "-":
            raws.append(json.load(sys.stdin))
        else:
            with open(path) as f:
                raws.append(json.load(f))
    result = convert(raws, checkout_commit())
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(result['benchmarks'])} benchmarks to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
