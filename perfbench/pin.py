#!/usr/bin/env python3
"""Re-pins the report and trace digests the oracle checks on pinned seeds.

    python3 perfbench/pin.py

Run from the root of a source checkout, only when a change alters the
program's output bytes on purpose, and say why in that change.  It runs the
traced job of every grid of the default and held-out seeds for every
workload and writes perfbench/pins.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def main():
    root = Path.cwd()
    bdir, bins = bench.build(root)
    ledger = bench.Ledger(bins["perfbench-spawn"])
    pins = {}
    for workload, spec in sorted(bench.WORKLOADS.items()):
        pins[workload] = {}
        for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
            for s in bench.sub_seeds(seed):
                odir = bench.fresh(bdir / "work" / "pin" / f"{workload}-{s}")
                cache = []
                if spec.get("cold_warm"):
                    cache = ["--cache", f"dir={odir / 'cache'}"]
                ok = bench.traced_job(ledger, bins, spec, s, False, odir,
                                      cache)[0]
                if not ok or bench.check_outputs(spec["kind"], odir,
                                                 ledger) is None:
                    print(f"{workload} seed {s}: {ledger.failures}")
                    return 1
                pins[workload][str(s)] = {
                    "report_sha256": bench.sha256(odir / "report.csv"),
                    "trace_sha256": bench.sha256(odir / "trace.bin")}
    if ledger.failed:
        print(f"not pinned: {ledger.failures}")
        return 1
    (bench.BENCH_DIR / "pins.json").write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
