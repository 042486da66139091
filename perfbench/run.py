#!/usr/bin/env python3
"""seo-bench: the repository's benchmark.

    python3 perfbench/run.py --workload sweep-mixed --seed 1000 --seconds 10 --trace 0

Run from the root of a source checkout.  The first run builds the library,
the CLIs under test and the tracer (Release) into .bench_build
(or $CARGO_TARGET_DIR).  Each run:

  --trace 0  drives the real `sweep` / `fleet` / trace stage CLIs at
             --threads 4 in a closed loop for --seconds, measures set-up
             and warm start from fresh processes, checks every output with
             the correctness oracle, and prints the end-to-end metrics.
  --trace 1  runs the tracer (perfbench-trace) on the same grid and
             prints the per-layer metrics.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Workloads, metrics and seeds are documented in perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1000
HELD_OUT_SEED = 4242
THREADS = "4"
PROC_TIMEOUT_S = 150
SUB_SEEDS = 4

# Repetitions per run (the CPU time of one probe or chain run spreads by
# about a tenth of its median within a run).
WARM_REPS = 64
SETUP_REPS = 24        # 2 where a cold probe builds tables for seconds
CHAIN_MIN_RUNS = 9
CHAIN_MIN_S = 2.0

MIXED_RIGS = ["paper_default", "dense_field", "crossing_pedestrians",
              "drifting_convoy", "lossy_channel", "bursty_edge",
              "heavy_vehicle", "night_perception"]

# Each workload is a grid handed to the CLIs; the workload seed becomes the
# CLIs' base episode seed, so one seed gives one set of episodes.  `tiny` is
# the self-test size.
WORKLOADS = {
    "sweep-mixed": {
        "kind": "sweep",
        "grid": ["--scenarios", ",".join(MIXED_RIGS),
                 "--axis", "deadline_cap=2,4"],
        "size": ["--episodes", "10"],
        "tiny": ["--episodes", "1", "--allow-failures",
                 "--set", "max_episode_s=2"],
    },
    "fleet-grid": {
        "kind": "fleet",
        "grid": ["--scenario", "fleet_cluster_saturated",
                 "--axis", "cluster.servers=1,2,4",
                 "--axis", "cluster.dispatch=round_robin,least_loaded",
                 "--axis", "cluster.batch_window_ms=0,4"],
        "size": ["--rounds", "2"],
        "tiny": ["--rounds", "1", "--set", "max_episode_s=2"],
    },
    "artifacts-cold-warm": {
        "kind": "sweep",
        "grid": ["--scenarios", "paper_default,heavy_vehicle,night_perception",
                 "--axis", "sensing_range=30,40,50,60",
                 "--set", "table_source=rollout"],
        "size": ["--episodes", "2"],
        "tiny": ["--episodes", "1", "--allow-failures",
                 "--set", "max_episode_s=2", "--set", "table_distance_bins=8"],
        "cold_warm": True,
    },
    "trace-pipeline": {
        "kind": "sweep",
        "grid": ["--scenarios", ",".join(MIXED_RIGS),
                 "--axis", "deadline_cap=2,4"],
        "size": ["--episodes", "10"],
        "tiny": ["--episodes", "1", "--allow-failures",
                 "--set", "max_episode_s=2"],
        "traced": True,
    },
}

STAGES = ["trace-deadline-histogram", "trace-energy-report",
          "trace-safety-audit", "trace-export"]
STAGE_METRIC = {"trace-deadline-histogram": "histogram",
                "trace-energy-report": "energy",
                "trace-safety-audit": "audit", "trace-export": "export"}
STAGE_OUT = {"trace-deadline-histogram": "hist.csv",
             "trace-energy-report": "energy.csv",
             "trace-safety-audit": "audit.csv", "trace-export": "export.csv"}


def info(msg):
    print(f"seo-bench: {msg}", file=sys.stderr, flush=True)


# --- Build and provenance -----------------------------------------------------

def build_dir(root):
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(root):
    """Configures (once) and builds the targets under test; returns paths."""
    bdir = build_dir(root)
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "ab") as out:
        if not (bdir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out,
                           stderr=subprocess.STDOUT, check=True, timeout=300)
        subprocess.run(["cmake", "--build", str(bdir), "-j4", "--target",
                        "perfbench_all"], stdout=out, stderr=subprocess.STDOUT,
                       check=True, timeout=840)
    tools = bdir / "seo" / "tools"
    bins = {name: tools / name for name in ["sweep", "fleet"] + STAGES}
    bins["perfbench-trace"] = bdir / "perfbench-trace"
    bins["perfbench-spawn"] = bdir / "perfbench-spawn"
    return bdir, bins


def cmake_cache(bdir):
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    return cache


def provenance(root, bdir, seed):
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    if commit is None:
        # Checkouts without git metadata: a digest of the sources under test.
        h = hashlib.sha256()
        for path in sorted(list((root / "src").rglob("*")) +
                           list((root / "tools").rglob("*"))):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        commit = "source-sha256:" + h.hexdigest()[:16]
    return {
        "seo_build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "seo_sanitize": cache.get("SEO_SANITIZE", ""),
        "cxx_flags_release": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "compiler": compiler,
        "compiler_version": version,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "threads": int(THREADS),
        "host_probe_ms": host_probe_ms(),
    }


def host_probe_ms():
    """A fixed loop independent of the program, timed once per run: results
    from runs whose probes differ much were taken on a host running at a
    different speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return round(1e3 * (time.perf_counter() - t0), 3)


def refuse_unless_release(prov):
    if prov["seo_build_type"] != "Release" or prov["seo_sanitize"]:
        info(f"refusing to measure a non-Release build: {prov}")
        sys.exit(3)


# --- Processes ----------------------------------------------------------------

class Ledger:
    """Counts operations (program invocations and output checks) and holds
    the launcher every measured process is started through."""

    def __init__(self, spawn):
        self.spawn = str(spawn)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.launches = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            info(f"FAILED: {what}")
        return ok

    def stats_file(self, cwd):
        self.launches += 1
        return Path(cwd) / f".spawn-{self.launches}.txt"


def finish(procs, timeout_s):
    """Waits for every process; after `timeout_s` terminates them all (the
    launcher kills its command) and still waits for each.  Returns False
    on a timeout."""
    deadline = time.monotonic() + timeout_s
    for p in procs:
        try:
            p.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            for q in procs:
                if q.poll() is None:
                    q.terminate()
            for q in procs:
                try:
                    q.wait(10)
                except subprocess.TimeoutExpired:
                    q.kill()
                    q.wait()
            return False
    return True


# One measured run: wall seconds, max RSS kB and CPU (user + system)
# seconds.  On a shared virtual machine the wall time of a short,
# wakeup-heavy process grows with the host's steal time (a 20% steal halves
# the stage chain's wall-time throughput); its CPU time does not.
Proc = namedtuple("Proc", "ok wall rss_kb cpu")
FAILED = Proc(False, 0.0, 0, 0.0)


def read_stats(path):
    """(exit code, start, end, max RSS kB, CPU s) as perfbench-spawn
    recorded them, or None when the launcher recorded nothing."""
    try:
        code, start, end, rss, cpu = Path(path).read_text().split()
        return int(code), float(start), float(end), int(rss), float(cpu)
    except (OSError, ValueError):
        return None


def run(ledger, cmd, what, cwd, stdout=None):
    """Runs one CLI process; returns its Proc."""
    stats = ledger.stats_file(cwd)
    with open(Path(cwd) / "stderr.log", "ab") as err:
        p = subprocess.Popen([ledger.spawn, str(stats)] + cmd, cwd=cwd,
                             stdout=stdout or subprocess.DEVNULL, stderr=err)
        finish([p], PROC_TIMEOUT_S)
    r = read_stats(stats)
    ok = r is not None and r[0] == 0 and p.returncode == 0
    ledger.op(ok, f"{what} exited {p.returncode}")
    return Proc(ok, r[2] - r[1], r[3], r[4]) if r else FAILED


def run_chain(ledger, bins, trace, odir, keep=True):
    """The four stage tools chained with --passthrough over one trace file;
    returns a Proc: wall seconds from the first start to the last exit, the
    largest max RSS, and the CPU seconds of the busiest stage, which bounds
    the chain's throughput.  The stage reports land in `odir` for the
    oracle when `keep`, else in the null device, so timed repetitions
    measure decoding and formatting rather than the host's disk
    writeback."""
    procs, stats = [], []
    with open(trace, "rb") as src, open(odir / "stderr.log", "ab") as err:
        stdin = src
        for i, stage in enumerate(STAGES):
            last = i == len(STAGES) - 1
            stats.append(ledger.stats_file(odir))
            cmd = [ledger.spawn, str(stats[-1]), str(bins[stage]), "-o",
                   str(odir / STAGE_OUT[stage]) if keep else os.devnull]
            if not last:
                cmd.append("--passthrough")
            p = subprocess.Popen(cmd, stdin=stdin, stderr=err,
                                 stdout=subprocess.DEVNULL if last
                                 else subprocess.PIPE)
            if i > 0:
                stdin.close()  # the child holds its own copy
            stdin = p.stdout
            procs.append(p)
        finish(procs, PROC_TIMEOUT_S)
    rs = [read_stats(f) for f in stats]
    ok = all(r is not None and r[0] == 0 for r in rs) and \
        all(p.returncode == 0 for p in procs)
    ledger.op(ok, f"stage chain exited {[p.returncode for p in procs]}")
    if not ok:
        return FAILED
    return Proc(True, max(r[2] for r in rs) - min(r[1] for r in rs),
                max(r[3] for r in rs), max(r[4] for r in rs))


# --- Commands -----------------------------------------------------------------

def job_cmd(bins, spec, seed, tiny, report, extra=()):
    tool = bins["sweep"] if spec["kind"] == "sweep" else bins["fleet"]
    return ([str(tool)] + spec["grid"] + job_args(spec, tiny) +
            ["--seed", str(seed), "--threads", THREADS, "--output",
             str(report)] + list(extra))


def probe_cmd(bins, spec, seed, tiny, report, cache_dir):
    """Set-up probe: the workload's grid with one zero-tick attempt per
    point, so the process plans and acquires every distinct artifact and
    runs no base period."""
    tool = bins["sweep"] if spec["kind"] == "sweep" else bins["fleet"]
    if spec["kind"] == "sweep":
        size = ["--episodes", "1", "--max-attempts", "1", "--allow-failures"]
    else:
        size = ["--rounds", "1"]
    tiny_sets = [a for i, a in enumerate(spec["tiny"])
                 if a == "--set" or (i > 0 and spec["tiny"][i - 1] == "--set")]
    return ([str(tool)] + spec["grid"] + (tiny_sets if tiny else []) + size +
            ["--set", "max_episode_s=0.001", "--seed", str(seed),
             "--threads", THREADS, "--cache", f"dir={cache_dir}",
             "--output", str(report)])


# --- Correctness oracle ---------------------------------------------------------

def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_outputs(kind, odir, ledger, reference_report=None, pins=None,
                  successes_only=True):
    """Cross-checks one traced job's outputs in `odir` (report.csv,
    trace.bin and the four stage reports).  A sweep point aggregates only
    its successful episodes unless the job ran with --allow-failures
    (`successes_only` False).  Every check is one operation in `ledger`.
    Returns the exact end-to-end figures derived from the outputs."""
    odir = Path(odir)
    try:
        rows = read_csv(odir / "report.csv")
        audit = read_csv(odir / "audit.csv")
        energy = read_csv(odir / "energy.csv")
        hist = read_csv(odir / "hist.csv")
    except (OSError, csv.Error) as e:
        ledger.op(False, f"unreadable stage output: {e}")
        return None
    if reference_report is not None:
        ledger.op((odir / "report.csv").read_bytes() == reference_report,
                  "traced report differs from the untraced report")
    if pins is not None:
        ledger.op(sha256(odir / "report.csv") == pins["report_sha256"],
                  "report digest differs from the pinned digest")
        ledger.op(sha256(odir / "trace.bin") == pins["trace_sha256"],
                  "trace digest differs from the pinned digest")

    try:
        expected = attempts_in(kind, rows)
        ledger.op(len(audit) == len(energy) == expected,
                  f"episode counts disagree: audit {len(audit)}, energy "
                  f"{len(energy)}, report {expected}")

        samples = sum(int(r["samples"]) for r in audit)
        export_rows = 0
        started = 0
        with open(odir / "export.csv", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            i_start = header.index("interval_started")
            i_unc = header.index("unconstrained")
            for line in reader:
                export_rows += 1
                if line[i_start] == "1" and line[i_unc] == "0":
                    started += 1
        ledger.op(export_rows == samples,
                  f"trace-export rows {export_rows} != audit samples {samples}")
        hist_total = sum(int(r["count"]) for r in hist)
        ledger.op(hist_total == started,
                  f"histogram intervals {hist_total} != exported {started}")

        # The report's energy columns against trace-energy-report: a sweep
        # point aggregates its successful episodes, a fleet point all of its
        # fan-out episodes.
        sums = {}
        for a, e in zip(audit, energy):
            if a["episode"] != e["episode"]:
                ledger.op(False, "audit and energy rows out of step")
                return None
            success = (a["completed"] == "1" and a["collided"] == "0"
                       and a["off_road"] == "0")
            if kind == "fleet" or success or not successes_only:
                s = sums.setdefault(int(e["point_index"]), [0.0, 0.0])
                s[0] += float(e["energy_actual_j"])
                s[1] += float(e["energy_baseline_j"])
        bad = [i for i, r in enumerate(rows)
               if not (close(sums.get(i, [0.0, 0.0])[0],
                             float(r["energy_actual_j"])) and
                       close(sums.get(i, [0.0, 0.0])[1],
                             float(r["energy_baseline_j"])))]
        ledger.op(not bad, f"report energy != trace energy at points {bad}")

        actual = sum(float(r["energy_actual_j"]) for r in rows)
        baseline = sum(float(r["energy_baseline_j"]) for r in rows)
        unsafe = sum(1 for r in audit
                     if r["collided"] == "1" or float(r["min_h"]) < 0.0)
    except (KeyError, ValueError, IndexError, StopIteration) as e:
        ledger.op(False, f"malformed stage output: {e!r}")
        return None
    if baseline <= 0.0 or not audit:
        ledger.op(False, "no episode energy to compare against")
        return None
    return {
        "energy_actual_j": actual,
        "energy_baseline_j": baseline,
        "unsafe_episodes": unsafe,
        "episodes": len(audit),
        "trace_bytes": (odir / "trace.bin").stat().st_size,
    }


def job_args(spec, tiny):
    return spec["tiny"] if tiny else spec["size"]


def load_pins(workload, seed, tiny):
    if tiny:
        return None
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    return pins.get(workload, {}).get(str(seed))


# --- Runs -----------------------------------------------------------------------

def attempts_in(kind, rows):
    """Episodes a report's rows consumed: sweep attempts, or a fleet point's
    vehicles x rounds."""
    if kind == "sweep":
        return sum(int(float(r["attempts"])) for r in rows)
    return sum(int(float(r["vehicles"])) * int(float(r["rounds"]))
               for r in rows)


def traced_job(ledger, bins, spec, seed, tiny, odir, extra=(), keep=True):
    """One job with --trace-out, then the stage chain over the file; returns
    (ok, the job's Proc, the chain's Proc)."""
    odir.mkdir(parents=True, exist_ok=True)
    job = run(ledger, job_cmd(bins, spec, seed, tiny, odir / "report.csv",
                              ["--trace-out", str(odir / "trace.bin")]
                              + list(extra)),
              "traced job", odir)
    if not job.ok:
        return False, job, FAILED
    chain = run_chain(ledger, bins, odir / "trace.bin", odir, keep)
    return chain.ok, job, chain


def lower_quartile(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 \
        else values[0]


def in_run_spread(values):
    """First to third quartile of one run's repetitions over their median:
    a run whose spread nears the metric's bound was taken on an unsteady
    host."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return round((q[2] - q[0]) / statistics.median(values), 4)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def settle():
    """Writes the run's dirty pages back to disk now, between timed steps.
    The oracle's traces and stage reports are tens of MB; left to the
    kernel's periodic writeback, they would be flushed in the middle of a
    later timed step."""
    os.sync()


def sub_seeds(seed):
    """The inputs of one run: SUB_SEEDS grids whose base episode seeds are
    spaced 1000 apart (disjoint episodes for up to 1000 attempts a point).
    The first is the workload seed itself."""
    return [seed + 1000 * k for k in range(SUB_SEEDS)]


def measure(bins, workload, spec, seed, seconds, tiny, work, ledger):
    """--trace 0: every end-to-end metric."""
    kind = spec["kind"]
    traced = spec.get("traced", False)
    cache = ["--cache", f"dir={work / 'cache'}"] if spec.get("cold_warm") else []
    seeds = sub_seeds(seed)

    # Set-up and warm start: the CPU time of fresh processes on an empty
    # artifact dir, and on a dir a cold probe populated.  Like the chain
    # runs below, the repetitions are spread over the whole run (a batch
    # after every oracle and loop job), so a slow stretch of the host covers
    # only part of them.  A slower host only ever adds time to a probe, so
    # each is reported as the lower quartile of its repetitions.
    setup, warm, probe_reports = [], [], set()
    warm_dir = work / "probe-warm"

    def probe(cold, pdir):
        r = run(ledger, probe_cmd(bins, spec, seed, tiny, pdir / "report.csv",
                                  pdir / "cache"), "set-up probe", pdir)
        if r.ok:
            (setup if cold else warm).append(r.cpu)
            probe_reports.add(sha256(pdir / "report.csv"))

    def probes(cold_n, warm_n):
        """Cold and warm probes interleaved, so both see the same host."""
        for i in range(max(cold_n, warm_n)):
            if i < cold_n:
                probe(True, fresh(work / "probe-cold"))
            if i < warm_n:
                probe(False, warm_dir)

    cheap = not spec.get("cold_warm") or tiny
    setup_reps = (SETUP_REPS if cheap else 2) // (10 if tiny else 1)
    warm_reps = WARM_REPS // (10 if tiny else 1)
    probe(True, fresh(warm_dir))
    probes(0 if cheap else 1, 0)

    # The oracle's pairs per grid: a traced job (its stage reports kept for
    # the checks) and an untraced one, whose reports must be identical.  On
    # trace-pipeline the loop's own jobs are the traced ones and one
    # untraced job per grid runs here; elsewhere the loop's jobs are the
    # untraced ones and one traced job per grid runs here.
    odirs, untraced = {}, {}
    for s in seeds:
        if traced:
            udir = fresh(work / f"untraced-{s}")
            if run(ledger, job_cmd(bins, spec, s, tiny, udir / "report.csv"),
                   "untraced job", udir)[0]:
                untraced[s] = (udir / "report.csv").read_bytes()
        else:
            odir = fresh(work / f"oracle-{s}")
            if spec.get("cold_warm"):
                fresh(work / "cache")
            if traced_job(ledger, bins, spec, s, tiny, odir, cache)[0]:
                odirs[s] = odir
        settle()
        probes(2 if cheap else 0, 6)

    chain_rates, chain_walls = [], []

    def chains(min_runs, min_s):
        """Timed chain runs over the oracle traces (reports discarded) until
        both `min_runs` runs and `min_s` seconds of chain time are done, so
        small traces get as much measuring as large ones."""
        total, runs = 0.0, 0
        while odirs and (runs < min_runs or total < min_s):
            odir = list(odirs.values())[len(chain_rates) % len(odirs)]
            r = run_chain(ledger, bins, odir / "trace.bin", odir, keep=False)
            if not r.ok:
                return
            total += r.wall
            runs += 1
            chain_walls.append(r.wall)
            chain_rates.append((odir / "trace.bin").stat().st_size / 1e6
                               / r.cpu)

    # Closed loop: one job at a time, cycling through the sub-seed grids,
    # until the time budget is spent and every grid ran at least once.
    walls = {s: [] for s in seeds}
    attempts = {}
    digests = {s: set() for s in seeds}
    job_rss = []
    end = time.monotonic() + seconds
    k = 0
    while (k < len(seeds) or time.monotonic() < end) and ledger.failed <= 3:
        s = seeds[k % len(seeds)]
        k += 1
        jdir = work / f"jobs-{s}"
        jdir.mkdir(exist_ok=True)
        if traced:
            ok, job, chain = traced_job(ledger, bins, spec, s, tiny, jdir,
                                        keep=False)
            if not ok:
                continue
            wall, rss = job.wall, max(job.rss_kb, chain.rss_kb)
            chain_walls.append(chain.wall)
            chain_rates.append((jdir / "trace.bin").stat().st_size / 1e6
                               / chain.cpu)
            odirs[s] = jdir  # the timed chain runs below read its trace
            digest = (sha256(jdir / "report.csv"), sha256(jdir / "trace.bin"))
        else:
            if spec.get("cold_warm"):
                fresh(work / "cache")
            job = run(ledger, job_cmd(bins, spec, s, tiny, jdir / "report.csv",
                                      cache), "job", jdir)
            if not job.ok:
                continue
            wall, rss = job.wall, job.rss_kb
            digest = sha256(jdir / "report.csv")
        n = attempts_in(kind, read_csv(jdir / "report.csv"))
        if spec.get("cold_warm"):
            # The same job again as a fresh process on the populated dir;
            # its report must not change.
            again = run(ledger, job_cmd(bins, spec, s, tiny,
                                        jdir / "report.csv", cache),
                        "warm job", jdir)
            if not again.ok:
                continue
            ledger.op(sha256(jdir / "report.csv") == digest,
                      f"seed {s}: warm report differs from the cold one")
            n *= 2
            wall += again.wall
            rss = max(rss, again.rss_kb)
        digests[s].add(digest)
        settle()
        attempts[s] = n
        walls[s].append(wall)
        job_rss.append(rss)
        probes(2 if cheap else 0, 6)
        chains(1, 0.25)
    probes(max(0, setup_reps - len(setup)), max(0, warm_reps - len(warm)))
    chains(max(0, CHAIN_MIN_RUNS - len(chain_rates)),
           max(0.0, (0.0 if tiny else CHAIN_MIN_S) - sum(chain_walls)))
    for s in seeds:
        ledger.op(len(digests[s]) == 1,
                  f"seed {s}: outputs differ between repetitions")
    ledger.op(len(probe_reports) == 1,
              "set-up probe reports differ between cold and warm processes")

    # Oracle checks per grid: the traced job against the untraced report,
    # the pins and the stage tools (on trace-pipeline, the loop's last trace
    # through the chain once more with its reports kept).
    exact = []
    for s in seeds:
        jdir = work / f"jobs-{s}"
        if not walls[s]:
            continue
        if traced:
            if s not in untraced or not run_chain(ledger, bins,
                                                  jdir / "trace.bin", jdir)[0]:
                continue
            reference = untraced[s]
        elif s in odirs:
            reference = (jdir / "report.csv").read_bytes()
        else:
            continue
        exact.append(check_outputs(
            kind, odirs[s], ledger, reference, load_pins(workload, s, tiny),
            "--allow-failures" not in job_args(spec, tiny)))
    if (len(exact) != len(seeds) or None in exact or not setup or not warm
            or not chain_rates or not job_rss):
        return None, exact
    actual = sum(e["energy_actual_j"] for e in exact)
    baseline = sum(e["energy_baseline_j"] for e in exact)
    unsafe = sum(e["unsafe_episodes"] for e in exact)
    episodes = sum(e["episodes"] for e in exact)
    total_attempts = sum(attempts[s] for s in seeds)
    total_wall = sum(statistics.median(walls[s]) for s in seeds)
    return {
        "setup_s": (lower_quartile(setup), "s"),
        "warm_start_cpu_s": (lower_quartile(warm), "s"),
        "episodes_per_s": (total_attempts / total_wall, "1/s"),
        "trace_mb_per_cpu_s": (statistics.median(chain_rates), "MB/s"),
        "peak_rss_mb": (statistics.median(job_rss) / 1024.0, "MB"),
        "energy_gain_pct": (100.0 * (1.0 - actual / baseline), "%"),
        "safe_episode_pct": (100.0 * (1.0 - unsafe / episodes), "%"),
    }, {"unsafe_episodes": unsafe, "episodes": episodes,
        "jobs": {s: len(walls[s]) for s in seeds},
        "setup_reps": len(setup), "warm_reps": len(warm),
        "setup_spread": in_run_spread(setup),
        "warm_spread": in_run_spread(warm),
        "chain_runs": len(chain_rates), "per_seed": exact}


def tracer_args(spec, seed, tiny, work):
    args = ["--mode", spec["kind"]]
    grid = list(spec["grid"]) + list(job_args(spec, tiny))
    i = 0
    while i < len(grid):
        flag = grid[i]
        if flag == "--allow-failures":
            args.append(flag)
            i += 1
            continue
        args += ["--scenarios" if flag == "--scenario" else flag, grid[i + 1]]
        i += 2
    if spec.get("cold_warm"):
        args += ["--set", f"table_cache_dir={work / 'trace_cache'}",
                 "--warm-pass"]
    return args + ["--seed", str(seed), "--threads", THREADS]


def measure_layers(bins, workload, spec, seed, seconds, tiny, work, ledger):
    """--trace 1: every per-layer metric."""
    t_start = time.monotonic()
    # The untraced CLI job, then a traced one with each stage tool timed
    # alone over its file (medians of three).
    jdir = fresh(work / "jobs")
    cache = ["--cache", f"dir={work / 'cache'}"] if spec.get("cold_warm") else []
    fresh(work / "cache")
    ok = run(ledger, job_cmd(bins, spec, seed, tiny, jdir / "report.csv",
                             cache), "job", jdir).ok
    reference = (jdir / "report.csv").read_bytes() if ok else None
    odir = fresh(work / "oracle")
    fresh(work / "cache")
    traced_job(ledger, bins, spec, seed, tiny, odir, cache)
    exact = check_outputs(spec["kind"], odir, ledger, reference,
                          load_pins(workload, seed, tiny),
                          "--allow-failures" not in job_args(spec, tiny))
    stage_s = {}
    sdir = fresh(work / "stages")
    for stage in STAGES:
        cpus = []
        for _ in range(3):
            r = run(ledger, [str(bins[stage]), str(odir / "trace.bin"), "-o",
                             os.devnull], stage, sdir)
            if r.ok:
                cpus.append(r.cpu)
        if cpus:
            stage_s[f"sim.trace.stage_s.{STAGE_METRIC[stage]}"] = \
                statistics.median(cpus)

    tdir = fresh(work / "tracer")
    fresh(work / "trace_cache")
    budget = max(1.0, seconds - (time.monotonic() - t_start))
    cmd = ([str(bins["perfbench-trace"])] + tracer_args(spec, seed, tiny, work)
           + ["--scratch", str(tdir), "--report", str(tdir / "report.csv"),
              "--spans", str(work / "spans.json"), "--seconds", f"{budget:.3f}"])
    with open(tdir / "stdout.json", "wb") as out:
        ok = run(ledger, cmd, "perfbench-trace", tdir, stdout=out).ok
    if not ok:
        return None, exact
    layers = json.loads((tdir / "stdout.json").read_text())
    ledger.op(reference is not None and
              (tdir / "report.csv").read_bytes() == reference,
              "tracer's report differs from the CLI report")
    ledger.op(layers.get("perfbench.replay_state_mismatches", 1) == 0,
              "layer replay diverged from the recorded episode states")
    layers.update(stage_s)
    return layers, exact


def declared_units():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size (perfbench/selftest.py)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not ((root / "CMakeLists.txt").is_file() and (root / "src").is_dir()
            and (root / "tools").is_dir()):
        info("run from the root of a seo source checkout (no sources here)")
        return 2
    if args.seed < 0:
        info("--seed must be non-negative")
        return 2
    try:
        bdir, bins = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        info(f"build failed ({e}); see {build_dir(root) / 'build.log'}")
        return 1
    prov = provenance(root, bdir, args.seed)
    refuse_unless_release(prov)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    spec = WORKLOADS[args.workload]
    work = fresh(bdir / "work" / args.workload)
    settle()  # the previous run's files, deleted just now
    ledger = Ledger(bins["perfbench-spawn"])
    e2e_units, layer_units = declared_units()
    if args.trace == 0:
        metrics, exact = measure(bins, args.workload, spec, args.seed,
                                 args.seconds, args.tiny, work, ledger)
        units = e2e_units
        out = {} if metrics is None else {k: {"value": v, "unit": u}
                                          for k, (v, u) in metrics.items()}
    else:
        layers, exact = measure_layers(bins, args.workload, spec, args.seed,
                                       args.seconds, args.tiny, work, ledger)
        units = layer_units
        out = {} if layers is None else {
            k: {"value": float(layers[k]), "unit": layer_units[k]}
            for k in layer_units if k in layers}
        if layers is not None:
            print("diagnostics " + json.dumps(
                {k: v for k, v in layers.items() if k not in layer_units},
                sort_keys=True))
    missing = sorted(set(units) - set(out))
    if missing:
        ledger.op(False, f"metrics not measured: {missing}")
    print("exact " + json.dumps(exact, sort_keys=True))
    if ledger.failures:
        print("failures " + json.dumps(ledger.failures))
    result = {"correct": ledger.failed == 0 and not missing,
              "attempted": max(1, ledger.attempted),
              "failed": ledger.failed,
              "metrics": out}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
