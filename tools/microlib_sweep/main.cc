/**
 * @file
 * microlib_sweep: the sweep driver cluster launchers call.
 *
 * A sweep is described declaratively by a SweepSpec — benchmarks x
 * mechanisms x config variants expanded from declared axes — built
 * either from the flags below or parsed from a `.sweep` file
 * (--spec; see docs/SWEEP_SPEC.md). The driver turns the spec into a
 * deterministic TaskPlan and either prints it (--plan / --print-spec)
 * or runs it — whole, as one shard (--shard i/N), or fanned out over
 * forked shard workers (--backend process) — and can merge
 * (--merge) and compact (--compact) per-shard result stores. Because
 * every process that parses the same spec builds the same plan,
 * disjoint shards can run on separate hosts against separate stores
 * and be combined into a result byte-identical to a single-process
 * run:
 *
 *   # one host, the reference
 *   microlib_sweep --spec exp.sweep --store single.store \
 *       --report single.txt
 *
 *   # two hosts, then combine
 *   microlib_sweep --spec exp.sweep --shard 0/2 --store s0.store
 *   microlib_sweep --spec exp.sweep --shard 1/2 --store s1.store
 *   microlib_sweep --spec exp.sweep --store merged.store \
 *       --merge s0.store s1.store --compact --report merged.txt
 *   diff single.txt merged.txt        # byte-identical
 *
 * A rerun against an existing store resumes: only missing (benchmark,
 * mechanism, variant) tasks execute (a killed shard picks up exactly
 * where it died). See docs/SHARDING.md for the full walkthrough.
 *
 * The same binary is also the client and the worker of the sweep
 * service (docs/SWEEP_SERVICE.md): `--backend service --service ADDR`
 * submits the sweep to a microlib_sweepd daemon and fetches the
 * deduplicated results; `--worker ADDR` turns the process into a
 * pull-based worker draining that daemon's queue.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/exit_codes.hh"
#include "core/process_shard_backend.hh"
#include "core/registry.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/service_backend.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "service/worker.hh"
#include "sim/fingerprint.hh"
#include "sim/version.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"

using namespace microlib;

namespace
{

struct SweepArgs
{
    std::string spec_path; // --spec FILE; empty = build from flags
    std::vector<std::string> benchmarks = {"swim", "gzip", "mcf",
                                           "crafty"};
    std::vector<std::string> mechanisms; // empty = all (Base + 12)
    std::uint64_t trace_length = 500'000;
    std::uint64_t interval = 0; // 0 = trace_length
    bool arbitrary = false;
    std::uint64_t arb_skip = 0;
    std::uint64_t arb_length = 0;
    bool description_flags_used = false; // --bench/--mech/--trace/...
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    unsigned threads = 0;
    ShardSpec shard;
    std::string store_path;
    std::string progress_path;
    std::string report_path; // "-" = stdout
    std::size_t trace_budget_mb = 0;
    std::string trace_dir;      // persistent trace arena directory
    bool prewarm_traces = false; // materialize arena, skip simulation
    bool use_process_backend = false;
    bool use_service_backend = false;
    std::string service_addr;  // --service ADDR (daemon address)
    std::string worker_addr;   // --worker ADDR: be a pull worker
    std::string worker_name;   // --name NAME (worker display name)
    std::size_t process_shards = 2;
    double heartbeat_timeout = 0.0; // seconds; 0 = stall detection off
    std::size_t worker_retries = 2;
    std::size_t quarantine_strikes = 3;
    bool print_plan = false;
    bool print_spec = false;
    bool do_report = false;
    bool do_compact = false;
    bool verbose = false;
    std::vector<std::string> merge_inputs;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] [--merge STORE...]\n"
        "\n"
        "Sweep description (must be identical across shards):\n"
        "  --spec FILE         load a .sweep spec file (replaces the\n"
        "                      flags below; see docs/SWEEP_SPEC.md)\n"
        "  --bench LIST        comma-separated benchmarks, or 'all'\n"
        "                      (default: swim,gzip,mcf,crafty)\n"
        "  --mech LIST         comma-separated mechanisms, or 'all'\n"
        "                      (default: all = Base + 12 mechanisms)\n"
        "  --trace N           SimPoint window length (default 500000)\n"
        "  --interval N        SimPoint interval (default: --trace)\n"
        "  --arbitrary S,L     arbitrary window: skip S, length L\n"
        "  --axis KEY=V1,V2    sweep KEY over the listed values; one\n"
        "                      config variant per combination\n"
        "                      (repeatable; composes with --spec)\n"
        "\n"
        "Execution:\n"
        "  --store PATH        append-only result store (resume +\n"
        "                      shard hand-off); the only file any\n"
        "                      backend writes results to (not with\n"
        "                      --worker: the daemon stores them)\n"
        "  --shard I/N         run only tasks with index %% N == I\n"
        "  --backend process|service\n"
        "                      process: fork pull workers under an\n"
        "                      in-process sweep service; service:\n"
        "                      submit the sweep to a microlib_sweepd\n"
        "                      daemon (--service) and fetch the\n"
        "                      deduplicated results\n"
        "  --service ADDR      sweep daemon address (unix:/path or\n"
        "                      host:port); implies --backend service\n"
        "  --shards N          worker count for --backend process\n"
        "                      (default 2)\n"
        "  --heartbeat-timeout SEC\n"
        "                      SIGKILL + restart a worker that holds\n"
        "                      a lease but sends nothing (heartbeats\n"
        "                      included) for SEC seconds (must exceed\n"
        "                      the longest task; default 0 = stall\n"
        "                      detection off)\n"
        "  --retries N         restarts allowed per worker slot before\n"
        "                      the sweep fails with exit status 4\n"
        "                      (default 2)\n"
        "  --strikes K         failures blamed on one task before it\n"
        "                      is quarantined — excluded, its cells\n"
        "                      reported FAULT, exit status 3\n"
        "                      (default 3; 0 disables quarantine)\n"
        "  --threads N         engine worker threads (default:\n"
        "                      MICROLIB_THREADS or hardware)\n"
        "  --trace-budget-mb N trace-cache byte budget\n"
        "  --trace-dir DIR     persistent trace arena: windows are\n"
        "                      materialized once into DIR and mmap'd\n"
        "                      by every later run, worker and shard\n"
        "                      (default: MICROLIB_TRACE_DIR)\n"
        "  --progress PATH     JSONL progress stream (with --backend\n"
        "                      process, worker i's events go to\n"
        "                      PATH.shard<i>)\n"
        "  --verbose           per-run progress lines\n"
        "\n"
        "Modes:\n"
        "  --worker ADDR       be a pull-based worker for the sweep\n"
        "                      daemon at ADDR: lease tasks, execute\n"
        "                      them, send the records to the daemon,\n"
        "                      until the daemon shuts down; honors\n"
        "                      --threads/--trace-dir/--trace-budget-mb\n"
        "                      /--verbose; --name sets the display\n"
        "                      name (default host:pid)\n"
        "  --name NAME         worker display name for --worker\n"
        "  --version           print version + schema tuple and exit\n"
        "  --plan              print the fingerprinted task list and\n"
        "                      exit (no simulation)\n"
        "  --prewarm-traces    materialize every trace window of the\n"
        "                      plan into the arena (--trace-dir) and\n"
        "                      exit without simulating — run once so\n"
        "                      a later fleet of shards starts warm\n"
        "  --print-spec        print the canonical spec text (stdout)\n"
        "                      and its hash (stderr), then exit\n"
        "  --merge STORE...    merge the given store files into\n"
        "                      --store before anything else runs\n"
        "  --compact           rewrite --store to one record per key\n"
        "                      (after --merge, before the run)\n"
        "  --report [PATH]     write the IPC matrices (+ sensitivity\n"
        "                      table for multi-variant sweeps) to\n"
        "                      PATH (stdout if omitted or '-')\n"
        "\n"
        "Exit status: 0 clean, 1 sweep failed, 2 usage error,\n"
        "3 completed with quarantined task(s), 4 infrastructure\n"
        "failure (daemon unreachable / died; retry is safe)\n",
        argv0);
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::uint64_t
parseU64(const char *flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "%s: not a number: %s\n", flag,
                     value.c_str());
        std::exit(2);
    }
    return v;
}

/**
 * The sweep description as a SweepSpec: parsed from --spec, or built
 * from the description flags (which then mirror the old two-vector
 * CLI exactly). --axis declarations append in either mode. Exits
 * with the parse/validation error on a bad spec.
 */
SweepSpec
buildSpec(const SweepArgs &args)
{
    SweepSpec spec;
    std::string error;
    if (!args.spec_path.empty()) {
        if (args.description_flags_used) {
            std::fprintf(stderr,
                         "--spec replaces --bench/--mech/--trace/"
                         "--interval/--arbitrary; use --axis to "
                         "extend a spec file\n");
            std::exit(2);
        }
        if (!SweepSpec::load(args.spec_path, spec, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(2);
        }
    } else {
        spec.setBenchmarks(args.benchmarks);
        spec.setMechanisms(args.mechanisms.empty()
                               ? allMechanismNames()
                               : args.mechanisms);
        bool ok = true;
        if (args.arbitrary) {
            ok = ok &&
                 spec.addBase("window.selection", "arbitrary", &error);
            ok = ok && spec.addBase("window.skip",
                                    std::to_string(args.arb_skip),
                                    &error);
            ok = ok && spec.addBase("window.length",
                                    std::to_string(args.arb_length),
                                    &error);
        } else {
            const std::uint64_t interval =
                args.interval ? args.interval : args.trace_length;
            ok = ok &&
                 spec.addBase("window.trace_length",
                              std::to_string(args.trace_length),
                              &error);
            ok = ok && spec.addBase("window.interval",
                                    std::to_string(interval), &error);
        }
        if (!ok) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(2);
        }
    }
    for (const auto &axis : args.axes) {
        if (!spec.addAxis(axis.first, axis.second, &error)) {
            std::fprintf(stderr, "--axis %s: %s\n", axis.first.c_str(),
                         error.c_str());
            std::exit(2);
        }
    }
    return spec;
}

/**
 * Deterministic sweep report: fixed-width, fixed-precision, no
 * timestamps or host names — so a sharded-and-merged sweep's report
 * can be `diff`ed byte-for-byte against a single-process run's. One
 * IPC matrix per config variant, plus the cross-variant sensitivity
 * table when the sweep has more than one.
 */
void
writeReport(std::FILE *out, const SweepResult &res)
{
    const std::size_t nv = res.matrices.size();
    for (std::size_t v = 0; v < nv; ++v) {
        const MatrixResult &m = res.matrices[v];
        std::fprintf(out,
                     "# microlib_sweep IPC matrix (%zu mechanism(s) "
                     "x %zu benchmark(s))%s%s\n",
                     m.mechanisms.size(), m.benchmarks.size(),
                     nv > 1 ? " variant " : "",
                     nv > 1 ? res.variants[v].c_str() : "");
        std::fprintf(out, "%-8s", "");
        for (const auto &b : m.benchmarks)
            std::fprintf(out, "%12s", b.c_str());
        std::fprintf(out, "\n");
        for (std::size_t mi = 0; mi < m.mechanisms.size(); ++mi) {
            std::fprintf(out, "%-8s", m.mechanisms[mi].c_str());
            for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
                // A quarantined cell holds no result; an explicit
                // FAULT marker beats a misleading 0.000000.
                if (m.faulted(mi, b))
                    std::fprintf(out, "%12s", "FAULT");
                else
                    std::fprintf(out, "%12.6f", m.ipc[mi][b]);
            }
            std::fprintf(out, "\n");
        }
    }
    if (nv > 1)
        std::fputs(sensitivityTable(res).str().c_str(), out);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepArgs args;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return exit_ok;
        } else if (flag == "--version") {
            std::printf("%s\n",
                        versionString("microlib_sweep").c_str());
            return exit_ok;
        } else if (flag == "--worker") {
            args.worker_addr = value("--worker");
        } else if (flag == "--service") {
            args.service_addr = value("--service");
            args.use_service_backend = true;
        } else if (flag == "--name") {
            args.worker_name = value("--name");
        } else if (flag == "--spec") {
            args.spec_path = value("--spec");
        } else if (flag == "--bench") {
            const std::string v = value("--bench");
            args.benchmarks =
                v == "all" ? specBenchmarkNames() : splitList(v);
            args.description_flags_used = true;
        } else if (flag == "--mech") {
            const std::string v = value("--mech");
            args.mechanisms =
                v == "all" ? allMechanismNames() : splitList(v);
            args.description_flags_used = true;
        } else if (flag == "--trace") {
            args.trace_length = parseU64("--trace", value("--trace"));
            args.description_flags_used = true;
        } else if (flag == "--interval") {
            args.interval = parseU64("--interval", value("--interval"));
            args.description_flags_used = true;
        } else if (flag == "--arbitrary") {
            const auto parts = splitList(value("--arbitrary"));
            if (parts.size() != 2) {
                std::fprintf(stderr, "--arbitrary wants S,L\n");
                return 2;
            }
            args.arbitrary = true;
            args.arb_skip = parseU64("--arbitrary", parts[0]);
            args.arb_length = parseU64("--arbitrary", parts[1]);
            args.description_flags_used = true;
        } else if (flag == "--axis") {
            const std::string v = value("--axis");
            const auto eq = v.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= v.size()) {
                std::fprintf(stderr,
                             "--axis wants KEY=V1,V2,... got '%s'\n",
                             v.c_str());
                return 2;
            }
            args.axes.emplace_back(v.substr(0, eq),
                                   splitList(v.substr(eq + 1)));
        } else if (flag == "--threads") {
            args.threads = static_cast<unsigned>(
                parseU64("--threads", value("--threads")));
        } else if (flag == "--shard") {
            if (!ShardSpec::parse(value("--shard"), args.shard)) {
                std::fprintf(stderr,
                             "--shard wants I/N with 0 <= I < N\n");
                return 2;
            }
        } else if (flag == "--store") {
            args.store_path = value("--store");
        } else if (flag == "--progress") {
            args.progress_path = value("--progress");
        } else if (flag == "--trace-budget-mb") {
            args.trace_budget_mb = static_cast<std::size_t>(parseU64(
                "--trace-budget-mb", value("--trace-budget-mb")));
        } else if (flag == "--trace-dir") {
            args.trace_dir = value("--trace-dir");
        } else if (flag == "--prewarm-traces") {
            args.prewarm_traces = true;
        } else if (flag == "--backend") {
            const std::string v = value("--backend");
            if (v == "process") {
                args.use_process_backend = true;
            } else if (v == "service") {
                args.use_service_backend = true;
            } else if (v != "thread") {
                std::fprintf(stderr, "--backend wants 'thread', "
                                     "'process' or 'service'\n");
                return exit_usage;
            }
        } else if (flag == "--shards") {
            args.process_shards = static_cast<std::size_t>(
                parseU64("--shards", value("--shards")));
        } else if (flag == "--heartbeat-timeout") {
            const std::string v = value("--heartbeat-timeout");
            char *end = nullptr;
            args.heartbeat_timeout = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                args.heartbeat_timeout < 0) {
                std::fprintf(stderr, "--heartbeat-timeout wants "
                                     "seconds >= 0\n");
                return 2;
            }
        } else if (flag == "--retries") {
            args.worker_retries = static_cast<std::size_t>(
                parseU64("--retries", value("--retries")));
        } else if (flag == "--strikes") {
            args.quarantine_strikes = static_cast<std::size_t>(
                parseU64("--strikes", value("--strikes")));
        } else if (flag == "--plan") {
            args.print_plan = true;
        } else if (flag == "--print-spec") {
            args.print_spec = true;
        } else if (flag == "--compact") {
            args.do_compact = true;
        } else if (flag == "--verbose") {
            args.verbose = true;
        } else if (flag == "--report") {
            args.do_report = true;
            // A lone "-" is the documented explicit-stdout spelling,
            // not a flag — consume it.
            if (i + 1 < argc && (argv[i + 1][0] != '-' ||
                                 std::strcmp(argv[i + 1], "-") == 0))
                args.report_path = argv[++i];
        } else if (flag == "--merge") {
            while (i + 1 < argc && argv[i + 1][0] != '-')
                args.merge_inputs.push_back(argv[++i]);
            if (args.merge_inputs.empty()) {
                std::fprintf(stderr,
                             "--merge wants store file(s)\n");
                return 2;
            }
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!args.worker_addr.empty()) {
        // Worker mode: no spec of our own — the daemon hands us
        // canonical spec text with every lease.
        if (!args.store_path.empty()) {
            std::fprintf(stderr, "--worker takes no --store: the "
                                 "daemon stores the records\n");
            return exit_usage;
        }
        WorkerOptions wopts;
        wopts.service = args.worker_addr;
        wopts.name = args.worker_name;
        wopts.threads = args.threads;
        wopts.verbose = args.verbose;
        wopts.trace_dir = args.trace_dir;
        wopts.trace_budget_bytes =
            args.trace_budget_mb * 1024 * 1024;
        return runWorkerLoop(wopts);
    }

    if (args.use_service_backend && args.service_addr.empty()) {
        std::fprintf(stderr, "--backend service needs --service "
                             "ADDR\n");
        return exit_usage;
    }
    if (args.use_service_backend && args.use_process_backend) {
        std::fprintf(stderr,
                     "--backend process and service conflict\n");
        return exit_usage;
    }

    const SweepSpec spec = buildSpec(args);

    if (args.print_spec) {
        // Canonical text to stdout (redirectable straight into a
        // .sweep file), the stable hash to stderr.
        std::fputs(spec.canonicalText().c_str(), stdout);
        std::fprintf(stderr, "spec hash: %s\n",
                     Fingerprint::hexOf(spec.hash()).c_str());
        return 0;
    }

    const TaskPlan plan(spec);

    if (args.print_plan) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            std::printf("%s\n",
                        plan.describe(i, args.shard).c_str());
        return 0;
    }

    if ((args.use_process_backend || !args.merge_inputs.empty() ||
         args.do_compact) &&
        args.store_path.empty()) {
        std::fprintf(stderr, "--backend process, --merge and "
                             "--compact need --store\n");
        return 2;
    }

    std::unique_ptr<ResultStore> store;
    if (!args.store_path.empty())
        store = std::make_unique<ResultStore>(args.store_path);

    if (!args.merge_inputs.empty()) {
        std::size_t merged = 0;
        for (const auto &input : args.merge_inputs)
            merged += store->merge(input);
        std::printf("merged %zu record(s) from %zu store(s) into %s "
                    "(%zu total)\n",
                    merged, args.merge_inputs.size(),
                    args.store_path.c_str(), store->size());
    }

    if (args.do_compact) {
        const std::size_t kept = store->compact();
        std::printf("compacted %s to %zu record(s)\n",
                    args.store_path.c_str(), kept);
    }

    EngineOptions opts;
    opts.threads = args.threads;
    opts.verbose = args.verbose;
    opts.store = store.get();
    opts.shard = args.shard;
    opts.progress_path = args.progress_path;
    opts.trace_budget_bytes = args.trace_budget_mb * 1024 * 1024;
    opts.trace_dir = args.trace_dir;
    opts.heartbeat_timeout = args.heartbeat_timeout;
    opts.max_worker_retries = args.worker_retries;
    opts.quarantine_strikes = args.quarantine_strikes;

    ProcessShardBackend process_backend(
        ProcessShardOptions{args.process_shards, args.threads});
    ServiceBackend service_backend(args.service_addr);
    if (args.use_process_backend) {
        opts.backend = &process_backend;
        // The parent only serves leases and merges: a worker pool
        // would sit idle, and fork() from a single-threaded parent
        // sidesteps the multithreaded-fork hazards entirely.
        // --threads applies to each worker instead.
        opts.threads = 1;
    } else if (args.use_service_backend) {
        opts.backend = &service_backend;
        // Simulation happens on the daemon's workers; this process
        // only submits, polls and fetches.
        opts.threads = 1;
    }

    ExperimentEngine engine(opts);

    if (args.prewarm_traces) {
        // Materialize every unique trace window of the plan into the
        // arena and stop: one generation pass a later fleet of
        // shards, hosts or reruns starts warm from (zero src=gen).
        const auto arena = engine.cache().arena();
        if (!arena) {
            std::fprintf(stderr, "--prewarm-traces needs --trace-dir "
                                 "(or MICROLIB_TRACE_DIR)\n");
            return 2;
        }
        // One representative task per trace slot (slots deduplicate
        // benchmark x window across mechanisms and variants).
        std::vector<std::size_t> rep(plan.traceSlotCount(),
                                     plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const std::size_t slot = plan.traceSlot(i);
            if (rep[slot] == plan.size())
                rep[slot] = i;
        }
        std::size_t generated = 0, present = 0;
        for (std::size_t slot = 0; slot < rep.size(); ++slot) {
            const PlanTask &t = plan.task(rep[slot]);
            const std::string &key = plan.slotKey(slot);
            TraceCache::Future fut;
            if (engine.cache().claim(key, fut) !=
                TraceCache::Claim::Owner)
                continue; // duplicate key within this process
            TraceOrigin origin = TraceOrigin::Generated;
            try {
                ExperimentEngine::materializeInto(
                    engine.cache(), key, plan.benchmarks()[t.b],
                    plan.config(t.v), &origin);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "prewarm failed: %s\n",
                             e.what());
                return 1;
            }
            ++(origin == TraceOrigin::Mapped ? present : generated);
            // Release immediately: prewarm only needs the file on
            // disk, not a resident copy of every window at once.
            engine.cache().evict(key);
        }
        std::printf("prewarm %s: %zu window(s) generated, %zu "
                    "already present\n",
                    arena->dir().c_str(), generated, present);
        return 0;
    }

    SweepResult res;
    try {
        res = engine.runPlan(plan);
    } catch (const InfrastructureError &e) {
        // The machinery failed, not the experiment: daemon
        // unreachable, worker retry budget spent. Everything
        // finished so far is in a store; retrying against healthy
        // infrastructure resumes.
        std::fprintf(stderr, "sweep failed (infrastructure): %s\n",
                     e.what());
        return exit_infrastructure;
    } catch (const std::exception &e) {
        // A sweep the supervisor gave up on (retry budget spent, or
        // supervision disabled); the store keeps every finished run
        // for the next attempt's resume.
        std::fprintf(stderr, "sweep failed: %s\n", e.what());
        return exit_failure;
    }
    const RunCounters counts = engine.lastRun();
    std::printf("sweep %s: %zu task(s) over %zu variant(s): executed "
                "%zu, resumed %zu, skipped-by-shard %zu\n",
                args.shard.whole()
                    ? (args.use_process_backend ? "(process shards)"
                                                : "(whole plan)")
                    : ("shard " + args.shard.str()).c_str(),
                plan.size(), plan.variantCount(), counts.executed,
                counts.resumed, counts.skipped);
    if (counts.store_skipped)
        std::printf("store: skipped %zu unreadable record line(s)\n",
                    counts.store_skipped);
    for (const std::size_t q : counts.quarantined)
        std::printf("quarantined: %s\n",
                    plan.describe(q, args.shard).c_str());

    if (args.do_report) {
        if (!args.shard.whole())
            std::fprintf(stderr,
                         "warning: report of a single shard run — "
                         "slots of other shards are empty\n");
        if (args.report_path.empty() || args.report_path == "-") {
            writeReport(stdout, res);
        } else {
            std::FILE *f = std::fopen(args.report_path.c_str(), "w");
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             args.report_path.c_str());
                return 1;
            }
            writeReport(f, res);
            std::fclose(f);
            std::printf("report written to %s\n",
                        args.report_path.c_str());
        }
    }
    // Distinct status for a sweep that completed only by quarantining
    // poison tasks: scripted callers must not mistake a FAULT-marked
    // report for a clean one (see core/exit_codes.hh).
    return counts.quarantined.empty() ? exit_ok : exit_quarantined;
}
