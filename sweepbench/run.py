#!/usr/bin/env python3
"""Sweep benchmark: whole sweeps through the shipped microlib_sweep CLI.

Builds the library, the CLI and the traced replay (sweep_traced) from
the enclosing source tree in Release mode under .bench_build/, then
runs one workload:

  cold           SimPoint sweep, empty trace arena and empty store
  warm           every mechanism over an arena prewarmed in set-up
  short_sharded  all 26 benchmarks on 5000-instruction windows, two
                 forked shard workers

  python3 sweepbench/run.py --workload warm --seed 1 --seconds 15 --trace 0

--trace 0 times the sweep from outside (wall, CPU, RSS of the CLI's
processes) and prints the end-to-end metrics. --trace 1 replays the
workload once in process under steady-clock spans (sweep_traced) and
prints the per-layer metrics. Both check the CLI's outputs; the last
stdout line is one JSON object, and the exit status is nonzero when any
task failed. See sweepbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sweepbench")
SWEEP = os.path.join(BUILD, "microlib", "tools", "microlib_sweep")
TRACED = os.path.join(BUILD, "sweep_traced")

DEFAULT_SEED = 1
THREADS = 4  # nproc of the reference host; every launch stays within it

MECHANISMS = ["Base", "TP", "VC", "SP", "Markov", "FVC", "DBCP", "TKVC",
              "TK", "CDP", "CDPSP", "TCP", "GHB"]
SUITE = ["ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d",
         "galgel", "lucas", "mesa", "mgrid", "sixtrack", "swim", "wupwise",
         "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
         "perlbmk", "twolf", "vortex", "vpr"]
# cold/warm keep pchase (memory-latency bound) and mcf (SimPoint at
# instruction 13M, the cold critical path) and let the seed pick three
# more from benchmarks whose SimPoint starts by instruction 2.4M, whose
# 13-mechanism simulation costs keep the plan's within +-3% for any
# three, and whose memory images are of a size (gcc's is not: it adds
# ~20 MB of peak RSS), so the seed changes the inputs but not the size
# of the work.
SEED_POOL = ["gzip", "wupwise", "facerec", "sixtrack", "vortex"]
SIMPOINT_WINDOW = 200000
SHORT_WINDOW = 5000
SHORT_MAX_SKIP_K = 20  # arbitrary skip <= 20000 = 4 windows
SETUPS_PER_PASS = 5  # --plan set-ups timed before each cold/short pass

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "sim_minstr_per_s": "Minstr/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def fail(msg, code=1):
    print(f"sweepbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- build

def build():
    """Configure (Release) and build; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no microlib source tree next to sweepbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", str(THREADS)])


def run_quiet(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       env=clean_env(), cwd=ROOT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build_stamp():
    """Refuse anything but a Release build; return the stamp lines."""
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    compiled = subprocess.run([TRACED, "--build-type"], capture_output=True,
                              text=True).stdout.strip()
    if build_type != "Release" or compiled != "Release":
        fail(f"refusing to time a non-Release build "
             f"(CMAKE_BUILD_TYPE={build_type!r}, binary={compiled!r})", 2)
    version = subprocess.run([SWEEP, "--version"], capture_output=True,
                             text=True, env=clean_env()).stdout.strip()
    return [f"version: {version}", f"nproc: {os.cpu_count()}",
            f"build: {build_type}"]


def clean_env(**extra):
    """The caller's environment minus every MICROLIB_* knob (QUICK scale,
    thread count, arena dir, lockstep, fault injection), plus @extra."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MICROLIB_")}
    env.update(extra)
    return env


# ------------------------------------------------------------ workloads

def spec_text(workload, seed):
    """The workload's .sweep text for @seed, its benchmarks and its task
    count."""
    rng = random.Random(seed)
    if workload in ("cold", "warm"):
        a, b, c = rng.sample(SEED_POOL, 3)
        benches = ["pchase", a, b, "mcf", c]
        mechs = ["Base", "TP", "GHB", "VC"] if workload == "cold" \
            else MECHANISMS
        window = [f"base window.trace_length={SIMPOINT_WINDOW}",
                  f"base window.interval={SIMPOINT_WINDOW}"]
        axes = ["axis hier.l2.size 256k 512k 1M 2M"]
    else:
        skip = rng.randrange(SHORT_MAX_SKIP_K + 1) * 1000
        benches, mechs = SUITE, MECHANISMS
        window = ["base window.selection=arbitrary",
                  f"base window.skip={skip}",
                  f"base window.length={SHORT_WINDOW}"]
        axes = ["axis hier.l2.size 256k 512k 1M 2M", "axis core.rob 64 128"]
    lines = ["sweep-spec v1", "bench " + " ".join(benches),
             "mech " + " ".join(mechs)] + window + axes
    variants = 1
    for axis in axes:
        variants *= len(axis.split()) - 2
    return "\n".join(lines) + "\n", benches, \
        len(benches) * len(mechs) * variants


# ------------------------------------------------------- process timing

class Launch:
    """One finished CLI process: wall, CPU, peak RSS and its output."""

    def __init__(self, rc, wall, cpu, rss_mb, out):
        self.rc, self.wall, self.cpu, self.rss_mb, self.out = \
            rc, wall, cpu, rss_mb, out

    def count(self, word):
        """The integer after @word in the CLI's summary line."""
        for line in self.out.splitlines():
            if line.startswith("sweep ") and f" {word} " in line:
                tail = line.split(f" {word} ", 1)[1]
                return int(tail.split(",")[0].split()[0])
        return 0

    def task_failures(self, tasks):
        """Tasks this launch failed: all of them on a nonzero exit, else
        one per quarantined cell and per skipped store line."""
        if self.rc != 0:
            return tasks
        bad = 0
        for line in self.out.splitlines():
            if line.startswith("quarantined:"):
                bad += 1
            elif line.startswith("store: skipped"):
                bad += int(line.split()[2])
        return min(bad, tasks)


class TreeSampler(threading.Thread):
    """Polls the VmHWM of a process and all its descendants, and the
    first appearance of a heartbeat in each watched progress file."""

    def __init__(self, pid, t0, watch=()):
        super().__init__(daemon=True)
        self.pid, self.t0, self.watch = pid, t0, list(watch)
        self.hwm_kb = {}
        self.first_beat = {}
        self.stop = threading.Event()

    def run(self):
        while not self.stop.is_set():
            self.poll()
            self.stop.wait(0.01)

    def poll(self):
        for pid in self.tree(self.pid):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self.hwm_kb[pid] = max(kb,
                                                   self.hwm_kb.get(pid, 0))
                            break
            except OSError:
                pass
        for path in self.watch:
            if path in self.first_beat:
                continue
            try:
                with open(path) as f:
                    if '"event":"heartbeat"' in f.read():
                        self.first_beat[path] = time.perf_counter() - self.t0
            except OSError:
                pass

    def tree(self, pid):
        out, todo = [], [pid]
        while todo:
            p = todo.pop()
            out.append(p)
            try:
                for tid in os.listdir(f"/proc/{p}/task"):
                    with open(f"/proc/{p}/task/{tid}/children") as f:
                        todo.extend(int(c) for c in f.read().split())
            except OSError:
                pass
        return out


def launch(argv, cwd, env=None, tree=False, watch=()):
    """Run @argv to completion; returns (Launch, sampler-or-None).

    wall is host time from spawn to reap; cpu is user + system time of
    the process and every descendant it waited for (wait4); peak RSS is
    the process's own high-water mark, or with @tree the sum of the
    high-water marks of the process and its descendants."""
    out_path = os.path.join(cwd, "launch.out")
    fa = [(os.POSIX_SPAWN_OPEN, 1, out_path,
           os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
          (os.POSIX_SPAWN_OPEN, 2, os.path.join(cwd, "launch.err"),
           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env or clean_env(),
                         file_actions=fa)
    sampler = None
    if tree or watch:
        sampler = TreeSampler(pid, t0, watch)
        sampler.start()
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if sampler:
        sampler.stop.set()
        sampler.join()
    rc = os.waitstatus_to_exitcode(status)
    rss_kb = ru.ru_maxrss
    if tree and sampler.hwm_kb:
        rss_kb = sum(sampler.hwm_kb.values())
    with open(out_path) as f:
        out = f.read()
    return Launch(rc, wall, ru.ru_utime + ru.ru_stime, rss_kb / 1024.0,
                  out), sampler


def read_file(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def store_lines(path):
    """fingerprint+bench+mech -> the record's line."""
    out = {}
    for line in (read_file(path) or b"").decode().splitlines():
        fields = line.split(" ", 5)
        if len(fields) > 4 and fields[0].startswith("v"):
            out[" ".join(fields[1:5])] = line
    return out


# ----------------------------------------------------------- the runner

class Bench:
    """One benchmark run: its work directory, spec and task tally."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.dir = os.path.join(ROOT, ".bench_build", "work",
                                f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.spec, self.benches, self.tasks = spec_text(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.serial = 0

    def fresh(self, name):
        """A new directory holding an empty arena and the spec file."""
        d = os.path.join(self.dir, f"{name}{self.serial}")
        self.serial += 1
        os.makedirs(os.path.join(d, "arena"))
        with open(os.path.join(d, "exp.sweep"), "w") as f:
            f.write(self.spec)
        return d

    def tally(self, failed, attempted, why):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"FAILED {failed}/{attempted}: {why}")

    def check(self, ok, why, tasks=None):
        """A check over tasks already counted as attempted."""
        tasks = self.tasks if tasks is None else tasks
        self.tally(0 if ok else tasks, 0, why)

    def sweep(self, d, *extra, env=None, tree=False, watch=()):
        """microlib_sweep over d's spec, store and report."""
        argv = [SWEEP, "--spec", os.path.join(d, "exp.sweep"),
                "--store", os.path.join(d, "results.store"),
                "--report", os.path.join(d, "report.txt")] + list(extra)
        res, sampler = launch(argv, d, env=env, tree=tree, watch=watch)
        self.tally(res.task_failures(self.tasks), self.tasks,
                   f"microlib_sweep {' '.join(extra)} exited {res.rc}")
        return res, sampler

    def prewarm(self, d):
        """One `--prewarm-traces` CLI over the whole spec into d/arena;
        returns its wall time."""
        argv = [SWEEP, "--spec", os.path.join(d, "exp.sweep"), "--trace-dir",
                os.path.join(d, "arena"), "--prewarm-traces"]
        t0 = time.perf_counter()
        r = subprocess.run(argv, stdout=subprocess.PIPE, env=clean_env())
        wall = time.perf_counter() - t0
        self.check(r.returncode == 0 and b"window(s) generated" in r.stdout,
                   "prewarm-traces failed")
        return wall

    def plan(self, d):
        """`microlib_sweep --plan` over d's spec: the task list the sweep
        will run, which must hold every task."""
        r = subprocess.run([SWEEP, "--spec", os.path.join(d, "exp.sweep"),
                            "--plan"], stdout=subprocess.PIPE, env=clean_env())
        listed = sum(1 for line in r.stdout.splitlines()
                     if line.startswith(b"task="))
        self.check(r.returncode == 0 and listed == self.tasks,
                   "--plan does not list every task")

    def set_up(self):
        """Bring the workload to its starting state in a new directory:
        warm prewarms the arena; cold and short_sharded create the empty
        directories and check the plan with --plan."""
        d = self.fresh("run")
        if self.workload == "warm":
            self.prewarm(d)
        else:
            self.plan(d)
        return d

    def pass_args(self, d, arena, threads=THREADS):
        """The timed sweep's flags (arena: the prewarmed one, for warm)."""
        w = self.workload
        if w == "cold":
            return ["--trace-dir", os.path.join(d, "arena"),
                    "--threads", str(threads)]
        if w == "warm":
            return ["--trace-dir", arena, "--threads", str(threads)]
        if w == "short_sharded" and threads > 1:
            return ["--backend", "process", "--shards", "2", "--threads", "2"]
        return ["--threads", str(threads)]


# ------------------------------------------------------- --trace 0 runs

def end_to_end(b, seconds):
    """Time the workload's sweep repeatedly for @seconds (three passes at
    least); each metric is the median over passes or set-ups, and peak
    RSS the highest pass's."""
    w = b.workload
    setups = []

    def timed_set_up():
        t0 = time.perf_counter()
        d = b.set_up()
        setups.append(time.perf_counter() - t0)
        return d

    # warm: one prewarm (a serial --prewarm-traces takes many seconds);
    # every pass reads its arena from a new directory and store.
    base = timed_set_up() if w == "warm" else None
    passes, spent, reference, last = [], 0.0, None, None
    while len(passes) < 3 or spent < seconds:
        t0 = time.perf_counter()
        if base:
            d = b.fresh("pass")
        else:
            # A --plan set-up takes milliseconds: time a few per pass and
            # run the pass in the last one's directory.
            d = None
            for _ in range(SETUPS_PER_PASS):
                if d:
                    shutil.rmtree(d)
                d = timed_set_up()
        res, _ = b.sweep(d, *b.pass_args(d, base and
                                         os.path.join(base, "arena")),
                         tree=(w == "short_sharded"))
        report = read_file(os.path.join(d, "report.txt"))
        if reference is None:
            reference = report
        b.check(report == reference, "reports differ between passes")
        window = SIMPOINT_WINDOW if w in ("cold", "warm") else SHORT_WINDOW
        passes.append({"wall_s": res.wall, "cpu_s": res.cpu,
                       "peak_rss_mb": res.rss_mb,
                       "sim_minstr_per_s": res.count("executed") * window /
                       res.wall / 1e6})
        if last is not None:
            shutil.rmtree(last)
        last = d
        spent += time.perf_counter() - t0
    check_outputs(b, last, base)
    b.notes.append(f"{len(passes)} timed passes, {len(setups)} set-ups")
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in ("wall_s", "cpu_s", "sim_minstr_per_s")}
    # A high-water mark: the run's, over all its passes.
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def check_outputs(b, last, base):
    """Each workload's results against a second path to the same plan."""
    w = b.workload
    if w == "cold":
        # cold == warm: re-run the plan over the arena the last cold pass
        # published, into a new store; every record must match its line.
        d = b.fresh("warmcheck")
        b.sweep(d, "--trace-dir", os.path.join(last, "arena"),
                "--threads", str(THREADS))
        cold = store_lines(os.path.join(last, "results.store"))
        warm = store_lines(os.path.join(d, "results.store"))
        bad = sum(1 for k, v in cold.items() if warm.get(k) != v)
        b.tally(bad + b.tasks - len(cold), b.tasks,
                "cold and warm records differ")
    elif w == "warm":
        # A rerun resumes every task and reproduces the report.
        before = read_file(os.path.join(last, "report.txt"))
        res, _ = b.sweep(last, *b.pass_args(last,
                                            os.path.join(base, "arena")))
        b.check(res.count("resumed") == b.tasks and
                read_file(os.path.join(last, "report.txt")) == before,
                "warm rerun did not resume to the same report")
    elif w == "short_sharded":
        resumed_report_check(b, last)


def resumed_report_check(b, sharded):
    """The sharded report equals an in-process (thread backend) run's, and
    a re-run against that run's full store resumes every task to the same
    report."""
    d = b.fresh("inproc")
    b.sweep(d, "--threads", str(THREADS))
    inproc = read_file(os.path.join(d, "report.txt"))
    b.check(inproc == read_file(os.path.join(sharded, "report.txt")),
            "sharded and in-process reports differ")
    res, _ = b.sweep(d, "--threads", str(THREADS))
    b.check(res.count("resumed") == b.tasks and
            read_file(os.path.join(d, "report.txt")) == inproc,
            "resumed report differs")


# ------------------------------------------------------- --trace 1 runs

PER_LAYER = [
    # trace layer (src/trace)
    ("trace.simpoint_s", "s", "lower"), ("trace.skip_s", "s", "lower"),
    ("trace.generate_s", "s", "lower"), ("trace.soa_s", "s", "lower"),
    ("trace.arena_publish_s", "s", "lower"),
    ("trace.arena_load_s", "s", "lower"),
    ("trace.ready_max_s", "s", "lower"),
    ("trace.mcf_simpoint_s", "s", "lower"), ("trace.mcf_skip_s", "s", "lower"),
    ("trace.instr_profiled", "count", "lower"),
    ("trace.instr_skipped", "count", "lower"),
    ("trace.instr_windowed", "count", "higher"),
    ("trace.useful_frac", "fraction", "higher"),
    ("trace.owned_mb", "MB", "lower"), ("trace.mapped_mb", "MB", "lower"),
    ("trace.arena_hits", "count", "higher"),
    ("trace.arena_misses", "count", "lower"),
    ("trace.arena_rejected", "count", "lower"),
    # run path (runOne's calls into mem, mechanisms and cpu)
    ("run.setup_s", "s", "lower"), ("run.setup_ms_per_task", "ms", "lower"),
    ("run.snapshot_s", "s", "lower"), ("run.simulate_s", "s", "lower"),
    ("run.minstr_per_s", "Minstr/s", "higher"),
] + [(f"mechanisms.{m}.simulate_s", "s", "lower") for m in MECHANISMS] + [
    ("cpu.lockstep_gain", "ratio", "higher"),
    ("cpu.lockstep_rss_delta_mb", "MB", "lower"),
    # modelled design: simulated counts, identical under speed-only changes
    ("sim.instructions", "count", "higher"), ("sim.cycles", "count", "lower"),
    ("mem.l1d.demand_misses", "count", "lower"),
    ("mem.l2.demand_misses", "count", "lower"),
    ("mem.dram.reads", "count", "lower"),
    ("mechanisms.prefetch_used_frac", "fraction", "higher"),
    # core (src/core): spec, plan, store, report, shard supervision
    ("core.spec_parse_s", "s", "lower"), ("core.plan_s", "s", "lower"),
    ("core.store_open_s", "s", "lower"), ("core.store_find_s", "s", "lower"),
    ("core.report_s", "s", "lower"), ("core.store_put_s", "s", "lower"),
    ("core.store_mb", "MB", "lower"), ("core.worker_start_s", "s", "lower"),
    ("core.heartbeats", "count", "lower"),
    ("core.shard_imbalance_s", "s", "lower"),
    # the ledger itself
    ("ledger.traced_wall_s", "s", "lower"), ("ledger.coverage", "fraction",
                                             "higher"),
    ("ledger.unattributed_s", "s", "lower"),
    ("ledger.untraced_wall_s", "s", "lower"),
    ("ledger.overhead_s", "s", "lower"),
]
MIN_COVERAGE = 0.95


def progress_events(paths):
    """Parsed JSONL events of each progress file (torn lines skipped)."""
    out = {}
    for p in paths:
        events = []
        for line in (read_file(p) or b"").decode().splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                pass
        out[p] = events
    return out


def replay(b, d, *extra):
    """Run sweep_traced over d's spec; its JSON result, mismatches tallied."""
    argv = [TRACED, "--spec", os.path.join(d, "exp.sweep")] + list(extra)
    rep = subprocess.run(argv, capture_output=True, text=True,
                         env=clean_env())
    try:
        t = json.loads(rep.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write(rep.stderr)
        fail(f"sweep_traced produced no result (exit {rep.returncode})")
    b.tally(int(t["check.mismatches"]), int(t["check.items"]),
            "replayed tasks differ from the e2e records")
    coverage = t["ledger.spanned_s"] / t["ledger.traced_wall_s"]
    b.check(coverage >= MIN_COVERAGE, f"ledger coverage below {MIN_COVERAGE}",
            tasks=1)
    return t


def traced(b):
    """One e2e pass with progress, its lockstep-off twin, a --threads 1
    untraced run and the in-process traced replay; per-layer metrics."""
    w = b.workload
    d = b.set_up()
    arena = os.path.join(d, "arena")
    lock_off = clean_env(MICROLIB_LOCKSTEP="0")
    sharded = w == "short_sharded"

    # The e2e pass, as timed by --trace 0, streaming progress.
    e2e = b.fresh("e2e")
    prog = os.path.join(e2e, "progress.jsonl")
    shards = [f"{prog}.shard{i}" for i in range(2)] if sharded else []
    res_on, sampler = b.sweep(e2e, *b.pass_args(e2e, arena), "--progress",
                              prog, tree=sharded, watch=shards)
    events = progress_events([prog] + shards)

    # The same pass with lockstep off: its peak RSS difference.
    off = b.fresh("lockoff")
    res_off, _ = b.sweep(off, *b.pass_args(off, arena), env=lock_off,
                         tree=sharded)
    b.check(read_file(os.path.join(off, "report.txt")) ==
            read_file(os.path.join(e2e, "report.txt")),
            "lockstep on and off reports differ")

    # Untraced single-threaded twin of the replay (lockstep off, like
    # the replay's per-task runs), set-up included where it replays it.
    u = b.fresh("untraced")
    untraced = b.prewarm(u) if w == "warm" else 0.0
    res_1t, _ = b.sweep(u, *b.pass_args(u, os.path.join(u, "arena"),
                                        threads=1), env=lock_off)
    untraced += res_1t.wall

    # The traced replay.
    r = b.fresh("replay")
    extra = ["--store", os.path.join(r, "replay.store"),
             "--ref-store", os.path.join(e2e, "results.store")]
    if w != "short_sharded":
        extra += ["--arena", os.path.join(r, "arena")]
    if w == "warm":
        extra += ["--prewarm"]
    t = replay(b, r, *extra)

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update({k: v for k, v in t.items() if k in m})
    if sharded:
        # The store's read side: replay a re-run of the plan against the
        # e2e pass's full store (every task resumes, nothing simulates).
        # Its CLI twin must resume all tasks to the sharded report.
        report = read_file(os.path.join(e2e, "report.txt"))
        again, _ = b.sweep(e2e, "--threads", "1")
        b.check(again.count("resumed") == b.tasks and
                read_file(os.path.join(e2e, "report.txt")) == report,
                "re-run of the full store did not resume to the same report")
        full = replay(b, e2e, "--store", os.path.join(e2e, "results.store"),
                      "--report-tail", os.path.join(e2e, "report.txt"))
        for k in ("core.store_open_s", "core.store_find_s", "core.report_s"):
            m[k] = full[k]
    wall = t["ledger.traced_wall_s"]
    m["ledger.coverage"] = t["ledger.spanned_s"] / wall
    m["ledger.unattributed_s"] = wall - t["ledger.spanned_s"]
    m["ledger.untraced_wall_s"] = untraced
    m["ledger.overhead_s"] = wall - untraced
    m["run.setup_ms_per_task"] = 1000 * t["run.setup_s"] / t["run.tasks"]
    m["run.minstr_per_s"] = t["run.instructions"] / t["run.simulate_s"] / 1e6
    m["trace.useful_frac"] = t["trace.instr_windowed"] / sum(
        t.get(k, 0) for k in ("trace.instr_profiled", "trace.instr_skipped",
                              "trace.instr_windowed"))
    m["cpu.lockstep_gain"] = t["cpu.pervariant_s"] / t["cpu.lockstep_s"]
    m["cpu.lockstep_rss_delta_mb"] = res_on.rss_mb - res_off.rss_mb
    m["trace.mcf_simpoint_s"] = t.get("bench.mcf.simpoint_s", 0.0)
    m["trace.mcf_skip_s"] = t.get("bench.mcf.skip_s", 0.0)
    m["core.store_mb"] = os.path.getsize(
        os.path.join(e2e, "results.store")) / 1048576.0

    # From the e2e progress streams.
    all_events = [e for evs in events.values() for e in evs]
    ready = [e["elapsed_s"] for e in all_events if e.get("event") == "trace"]
    m["trace.ready_max_s"] = max(ready, default=0.0)
    m["core.heartbeats"] = sum(1 for e in all_events
                               if e.get("event") == "heartbeat")
    if sharded:
        b.check(len(sampler.first_beat) == len(shards),
                "a shard never sent a heartbeat", tasks=1)
        m["core.worker_start_s"] = max(sampler.first_beat.values(),
                                       default=0.0)
        ends = [max((e.get("elapsed_s", 0.0) for e in events[s]), default=0)
                for s in shards]
        m["core.shard_imbalance_s"] = max(ends) - min(ends)
    return m


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold", "warm", "short_sharded"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    stamp = build_stamp()
    b = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics = traced(b)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(b, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)

    print(f"workload: {args.workload} seed: {args.seed} "
          f"benchmarks: {' '.join(b.benches[:5])}"
          f"{' ...' if len(b.benches) > 5 else ''}")
    for line in stamp + b.notes:
        print(line)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6f} {unit}")
    frac = b.failed / b.attempted if b.attempted else 1.0
    print(f"{'fail_frac':32s} {frac:14.6f} fraction "
          f"({b.failed}/{b.attempted} tasks)")
    correct = b.failed == 0 and b.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": max(b.attempted, 1),
        "failed": min(b.failed, max(b.attempted, 1)),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
