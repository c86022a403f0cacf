/**
 * @file
 * microlib_cliff: search-driven sensitivity studies from the CLI.
 *
 * Where microlib_sweep enumerates a grid, microlib_cliff *searches*
 * it: given a `.sweep` spec and two mechanisms, it bisects along a
 * declared numeric axis (or every searchable axis with --all-axes)
 * to the tightest adjacent pair of configurations where the two
 * mechanisms' speedup ranking flips, and emits each cliff as a
 * minimal flip-witness `.sweep` file plus a JSON summary
 * (docs/CLIFF_FINDER.md).
 *
 * Every probe is an ordinary single-variant sweep driven through the
 * same engine/store/backend stack as microlib_sweep, so the familiar
 * flags compose: --store dedupes probes by fingerprint (a re-run
 * against a warm store executes zero tasks and reproduces the same
 * witnesses byte-for-byte — CI diffs exactly that), and --backend
 * process runs each probe under the fault supervisor, so a crashing
 * probe quarantines its poison task and is reported FAULTED without
 * killing the search of the other axes.
 *
 *   microlib_cliff --spec examples/cliff.sweep --mechanisms SP,GHB \
 *       --all-axes --store cliff.store --witness-dir witness --report
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cliff_finder.hh"
#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "sim/version.hh"

using namespace microlib;

namespace
{

struct CliffArgs
{
    std::string spec_path;
    std::string mech_a, mech_b;
    std::vector<std::string> axes; // --axis, repeatable
    bool all_axes = false;
    std::string witness_dir;
    std::string store_path;
    std::string progress_path;
    std::string trace_dir;
    std::string report_path; // "-" = stdout
    bool do_report = false;
    unsigned threads = 0;
    bool use_process_backend = false;
    std::size_t process_shards = 2;
    double heartbeat_timeout = 0.0;
    std::size_t worker_retries = 2;
    std::size_t quarantine_strikes = 3;
    bool verbose = false;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --spec FILE --mechanisms A,B (--axis KEY | "
        "--all-axes) [options]\n"
        "\n"
        "Search description:\n"
        "  --spec FILE         the base .sweep spec; each declared\n"
        "                      axis's smallest and largest values are\n"
        "                      that axis's search endpoints\n"
        "  --mechanisms A,B    the mechanism pair whose ranking flip\n"
        "                      to bisect to (Base is added to probes\n"
        "                      automatically for speedups)\n"
        "  --axis KEY          search this declared axis (repeatable)\n"
        "  --all-axes          search every searchable declared axis\n"
        "\n"
        "Artifacts:\n"
        "  --witness-dir DIR   write per-axis flip-witness .sweep\n"
        "                      files and .json summaries into DIR\n"
        "  --report [PATH]     write the cliff report table to PATH\n"
        "                      (stdout if omitted or '-')\n"
        "\n"
        "Execution (as in microlib_sweep):\n"
        "  --store PATH        append-only result store; probes are\n"
        "                      deduped by config fingerprint, so a\n"
        "                      re-run executes only unseen points\n"
        "  --backend process   run each probe over forked shard\n"
        "                      workers under the fault supervisor\n"
        "  --shards N          worker count for --backend process\n"
        "                      (default 2)\n"
        "  --heartbeat-timeout SEC   stall detection (default off)\n"
        "  --retries N         worker restarts per slot (default 2)\n"
        "  --strikes K         failures before a task quarantines\n"
        "                      (default 3; a faulted probe marks the\n"
        "                      axis FAULTED, other axes continue)\n"
        "  --threads N         engine worker threads\n"
        "  --progress PATH     JSONL progress stream (per probe)\n"
        "  --trace-dir DIR     persistent trace arena shared across\n"
        "                      probes and with microlib_sweep\n"
        "                      (default: MICROLIB_TRACE_DIR)\n"
        "  --verbose           log each probe\n"
        "  --version           print version + schema tuple and exit\n",
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

} // namespace

int
main(int argc, char **argv)
{
    CliffArgs args;

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
            return 0;
        } else if (flag == "--version") {
            std::printf("%s\n",
                        versionString("microlib_cliff").c_str());
            return 0;
        } else if (flag == "--spec") {
            args.spec_path = value("--spec");
        } else if (flag == "--mechanisms") {
            const auto pair = splitList(value("--mechanisms"));
            if (pair.size() != 2) {
                std::fprintf(stderr,
                             "--mechanisms wants exactly A,B\n");
                return 2;
            }
            args.mech_a = pair[0];
            args.mech_b = pair[1];
        } else if (flag == "--axis") {
            args.axes.push_back(value("--axis"));
        } else if (flag == "--all-axes") {
            args.all_axes = true;
        } else if (flag == "--witness-dir") {
            args.witness_dir = value("--witness-dir");
        } else if (flag == "--store") {
            args.store_path = value("--store");
        } else if (flag == "--progress") {
            args.progress_path = value("--progress");
        } else if (flag == "--trace-dir") {
            args.trace_dir = value("--trace-dir");
        } else if (flag == "--threads") {
            args.threads = static_cast<unsigned>(
                parseU64("--threads", value("--threads")));
        } else if (flag == "--backend") {
            const std::string v = value("--backend");
            if (v == "process") {
                args.use_process_backend = true;
            } else if (v != "thread") {
                std::fprintf(stderr,
                             "--backend wants 'thread' or 'process'\n");
                return 2;
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
        } else if (flag == "--report") {
            args.do_report = true;
            // A lone "-" is the documented explicit-stdout spelling,
            // not a flag — consume it.
            if (i + 1 < argc && (argv[i + 1][0] != '-' ||
                                 std::strcmp(argv[i + 1], "-") == 0))
                args.report_path = argv[++i];
        } else if (flag == "--verbose") {
            args.verbose = true;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (args.spec_path.empty() || args.mech_a.empty()) {
        std::fprintf(stderr,
                     "--spec and --mechanisms are required\n");
        usage(argv[0]);
        return 2;
    }
    if (args.axes.empty() && !args.all_axes) {
        std::fprintf(stderr, "pick --axis KEY or --all-axes\n");
        return 2;
    }
    if (args.use_process_backend && args.store_path.empty()) {
        std::fprintf(stderr, "--backend process needs --store\n");
        return 2;
    }

    SweepSpec spec;
    std::string error;
    if (!SweepSpec::load(args.spec_path, spec, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    const auto &mechs = spec.mechanisms();
    for (const auto &m : {args.mech_a, args.mech_b}) {
        if (std::find(mechs.begin(), mechs.end(), m) == mechs.end() &&
            m != "Base")
            std::fprintf(stderr,
                         "note: mechanism %s is not in the spec's "
                         "mech line (probes add it)\n",
                         m.c_str());
    }

    std::unique_ptr<ResultStore> store;
    if (!args.store_path.empty())
        store = std::make_unique<ResultStore>(args.store_path);

    EngineOptions opts;
    opts.threads = args.threads;
    opts.verbose = false;
    opts.store = store.get();
    opts.progress_path = args.progress_path;
    opts.trace_dir = args.trace_dir;
    opts.heartbeat_timeout = args.heartbeat_timeout;
    opts.max_worker_retries = args.worker_retries;
    opts.quarantine_strikes = args.quarantine_strikes;

    ProcessShardBackend process_backend(
        ProcessShardOptions{args.process_shards, args.threads});
    if (args.use_process_backend) {
        opts.backend = &process_backend;
        opts.threads = 1; // the parent only serves leases and merges
    }

    ExperimentEngine engine(opts);
    CliffFinderOptions copts;
    copts.witness_dir = args.witness_dir;
    copts.verbose = args.verbose;
    CliffFinder finder(engine, spec, copts);

    std::vector<std::string> axes = args.axes;
    if (args.all_axes) {
        axes = finder.searchableAxes();
        // Say which declared axes the search skips and why — a
        // silently missing row reads as "no cliff" when the axis was
        // never searched at all.
        for (const auto &a : spec.axes()) {
            std::string why;
            if (!finder.searchable(a.key, &why))
                std::fprintf(stderr, "skipping %s\n", why.c_str());
        }
        if (axes.empty()) {
            std::fprintf(stderr,
                         "no searchable axes in %s\n",
                         args.spec_path.c_str());
            return 2;
        }
    } else {
        for (const auto &key : axes) {
            if (!finder.searchable(key, &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return 2;
            }
        }
    }

    std::vector<CliffResult> results;
    try {
        for (const auto &key : axes)
            results.push_back(
                finder.find(args.mech_a, args.mech_b, key));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cliff search failed: %s\n", e.what());
        return 1;
    }

    bool any_fault = false;
    std::size_t executed = 0, resumed = 0;
    for (const auto &r : results) {
        executed += r.executed;
        resumed += r.resumed;
        any_fault |= r.status == CliffStatus::Faulted;
        const std::string lo =
            r.lo.evaluated ? std::to_string(r.lo.value) : "-";
        const std::string hi =
            r.hi.evaluated ? std::to_string(r.hi.value) : "-";
        std::printf("%s: %s %s..%s (%zu probe(s), executed %zu, "
                    "resumed %zu)%s\n",
                    r.axis.c_str(), cliffStatusName(r.status),
                    lo.c_str(), hi.c_str(), r.probes.size(),
                    r.executed, r.resumed,
                    r.witness_path.empty()
                        ? ""
                        : (" witness " + r.witness_path).c_str());
    }
    std::printf("cliff search %s vs %s: %zu axis/axes, executed %zu, "
                "resumed %zu\n",
                args.mech_a.c_str(), args.mech_b.c_str(),
                results.size(), executed, resumed);

    if (args.do_report) {
        const std::string text = CliffFinder::report(results).str();
        if (args.report_path.empty() || args.report_path == "-") {
            std::fputs(text.c_str(), stdout);
        } else {
            std::FILE *f = std::fopen(args.report_path.c_str(), "w");
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             args.report_path.c_str());
                return 1;
            }
            std::fputs(text.c_str(), f);
            std::fclose(f);
            std::printf("report written to %s\n",
                        args.report_path.c_str());
        }
    }
    // Mirror microlib_sweep's status contract: 3 = completed but at
    // least one axis FAULTED (a poison task was quarantined), so
    // scripts never mistake a partial report for a clean one.
    return any_fault ? 3 : 0;
}
