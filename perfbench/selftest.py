#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It
  1. runs every workload at the self-test size (`run.py --tiny`) with
     --trace 0 and --trace 1, and asserts that each run is correct and that
     the printed metric names and units are exactly those of BENCHMARK.json;
  2. tampers with a report, a trace and a stage output and asserts that the
     correctness oracle counts each as a failed operation;
  3. asserts that a non-Release build is refused and that the benchmark
     fails, without printing a result, in a directory without sources.
Exits 0 when every assertion holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_workloads(spec):
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, str(bench.BENCH_DIR / "run.py"),
                 "--workload", w["name"], "--seed", str(bench.DEFAULT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=900)
            r = last_json(p.stdout)
            tag = f"{w['name']} --trace {trace}"
            expect(p.returncode == 0 and r is not None, f"{tag}: exits 0 with a result")
            if r is None:
                print(p.stderr[-2000:])
                continue
            expect(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{tag}: correct, {r['failed']}/{r['attempted']} failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == units[trace], f"{tag}: metric names and units")
            expect(all(isinstance(v["value"], (int, float))
                       for v in r["metrics"].values()), f"{tag}: numeric values")


def tamper_checks(root):
    bdir = bench.build_dir(root)
    src = bdir / "work" / "sweep-mixed" / "oracle"
    base = bench.fresh(bdir / "work" / "selftest")
    _, bins = bench.build(root)

    def copy(name):
        d = base / name
        shutil.copytree(src, d)
        return d

    pins = {"report_sha256": bench.sha256(src / "report.csv"),
            "trace_sha256": bench.sha256(src / "trace.bin")}
    reference = (src / "report.csv").read_bytes()
    successes_only = "--allow-failures" not in bench.job_args(
        bench.WORKLOADS["sweep-mixed"], True)

    def check(d, ledger):
        bench.check_outputs("sweep", d, ledger, reference, pins, successes_only)

    ledger = bench.Ledger(bins["perfbench-spawn"])
    check(copy("clean"), ledger)
    expect(ledger.failed == 0 and ledger.attempted > 0,
           "untampered outputs pass the oracle")

    # A report whose energy column was altered.
    d = copy("report")
    lines = (d / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("energy_actual_j")
    row = lines[1].split(",")
    row[col] = repr(float(row[col]) * 1.001)
    lines[1] = ",".join(row)
    (d / "report.csv").write_text("\n".join(lines) + "\n")
    ledger = bench.Ledger(bins["perfbench-spawn"])
    check(d, ledger)
    expect(ledger.failed >= 2, f"tampered report counted as failure "
           f"({ledger.failed}: {ledger.failures})")

    # A trace with one flipped byte: the stage chain rejects it and the
    # pinned digest no longer matches.
    d = copy("trace")
    data = bytearray((d / "trace.bin").read_bytes())
    data[len(data) // 2] ^= 0x40
    (d / "trace.bin").write_bytes(bytes(data))
    ledger = bench.Ledger(bins["perfbench-spawn"])
    bench.run_chain(ledger, bins, d / "trace.bin", d)
    check(d, ledger)
    expect(ledger.failed >= 2, f"tampered trace counted as failure "
           f"({ledger.failed}: {ledger.failures})")

    # A stage report missing one episode.
    d = copy("audit")
    lines = (d / "audit.csv").read_text().splitlines()
    (d / "audit.csv").write_text("\n".join(lines[:-1]) + "\n")
    ledger = bench.Ledger(bins["perfbench-spawn"])
    check(d, ledger)
    expect(ledger.failed >= 1, f"truncated audit counted as failure "
           f"({ledger.failed}: {ledger.failures})")


def refusal_checks(root):
    try:
        bench.refuse_unless_release({"seo_build_type": "Debug",
                                     "seo_sanitize": ""})
        refused = False
    except SystemExit as e:
        refused = e.code != 0
    expect(refused, "a non-Release build is refused")

    bare = bench.fresh(bench.build_dir(root) / "work" / "selftest-bare")
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "sweep-mixed", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    expect(p.returncode != 0 and last_json(p.stdout) is None,
           "without sources: non-zero exit and no result")


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run_workloads(spec)
    tamper_checks(root)
    refusal_checks(root)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
