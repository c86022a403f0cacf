/**
 * @file
 * microlib_sweepd: the deduplicating sweep service daemon.
 *
 * Thin CLI wrapper around SweepService (src/service/sweepd.hh):
 * parse flags, install SIGINT/SIGTERM handlers that request a clean
 * stop, start the listener, run the event loop. The daemon owns one
 * global result store; every sweep any client ever submits dedups
 * against it — identical sweeps collapse to one job, and individual
 * tasks whose fingerprinted records already exist are never queued.
 * Workers attach with `microlib_sweep --worker ADDR`.
 *
 *   microlib_sweepd --listen unix:/tmp/sweepd.sock \
 *       --store global.store --progress sweepd.progress &
 *   microlib_sweep --worker unix:/tmp/sweepd.sock &
 *   microlib_sweep --spec exp.sweep --backend service \
 *       --service unix:/tmp/sweepd.sock --report exp.txt
 *
 * See docs/SWEEP_SERVICE.md for the protocol and failure semantics.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/exit_codes.hh"
#include "service/sweepd.hh"
#include "sim/version.hh"

using namespace microlib;

namespace
{

SweepService *g_service = nullptr;

void
onSignal(int)
{
    // requestStop only flips an atomic: async-signal-safe. The poll
    // loop notices within its 200ms timeout.
    if (g_service)
        g_service->requestStop();
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --listen ADDR --store PATH [options]\n"
        "\n"
        "  --listen ADDR       unix:/path or host:port (host:0 picks\n"
        "                      a free port and prints it)\n"
        "  --store PATH        global append-only result store; every\n"
        "                      submitted sweep dedups against it, and\n"
        "                      workers' records are stored in it\n"
        "  --progress PATH     daemon JSONL stream: job lifecycle,\n"
        "                      lease grants, relayed worker events\n"
        "  --lease N           tasks per worker lease (default 4)\n"
        "  --heartbeat-timeout SEC\n"
        "                      cut a lease-holding worker silent for\n"
        "                      SEC seconds; its tasks requeue\n"
        "                      (default 0 = EOF detection only)\n"
        "  --strikes K         failures blamed on one task before it\n"
        "                      is quarantined (default 3; 0 disables)\n"
        "  --retries N         failures per worker before its strikes\n"
        "                      escalate (default 2)\n"
        "  --read-only         serve cached results only: refuse\n"
        "                      workers and any submit that needs\n"
        "                      execution; never write the store\n"
        "  --max-jobs N        completed jobs kept before oldest-\n"
        "                      first eviction (default 64)\n"
        "  --version           print version + schema tuple and exit\n"
        "\n"
        "Exit status: 0 clean shutdown, 2 usage error, 4 cannot\n"
        "start (bad address, unopenable store)\n",
        argv0);
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
        std::exit(exit_usage);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepServiceOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                std::exit(exit_usage);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return exit_ok;
        } else if (flag == "--version") {
            std::printf("%s\n",
                        versionString("microlib_sweepd").c_str());
            return exit_ok;
        } else if (flag == "--listen") {
            opts.listen = value("--listen");
        } else if (flag == "--store") {
            opts.store_path = value("--store");
        } else if (flag == "--progress") {
            opts.progress_path = value("--progress");
        } else if (flag == "--lease") {
            opts.lease_size = static_cast<std::size_t>(
                parseU64("--lease", value("--lease")));
            if (opts.lease_size == 0) {
                std::fprintf(stderr, "--lease wants N >= 1\n");
                return exit_usage;
            }
        } else if (flag == "--heartbeat-timeout") {
            const std::string v = value("--heartbeat-timeout");
            char *end = nullptr;
            opts.heartbeat_timeout = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                opts.heartbeat_timeout < 0) {
                std::fprintf(stderr, "--heartbeat-timeout wants "
                                     "seconds >= 0\n");
                return exit_usage;
            }
        } else if (flag == "--strikes") {
            opts.quarantine_strikes = static_cast<std::size_t>(
                parseU64("--strikes", value("--strikes")));
        } else if (flag == "--retries") {
            opts.max_worker_retries = static_cast<std::size_t>(
                parseU64("--retries", value("--retries")));
        } else if (flag == "--read-only") {
            opts.read_only = true;
        } else if (flag == "--max-jobs") {
            opts.max_done_jobs = static_cast<std::size_t>(
                parseU64("--max-jobs", value("--max-jobs")));
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(argv[0]);
            return exit_usage;
        }
    }

    if (opts.listen.empty() || opts.store_path.empty()) {
        std::fprintf(stderr, "--listen and --store are required\n");
        usage(argv[0]);
        return exit_usage;
    }

    SweepService service(opts);
    std::string error;
    if (!service.start(&error)) {
        std::fprintf(stderr, "microlib_sweepd: %s\n", error.c_str());
        return exit_infrastructure;
    }

    g_service = &service;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // The resolved address on stdout: with host:0 this line is how a
    // launcher learns the real port.
    std::printf("microlib_sweepd listening on %s (store %s)\n",
                service.address().c_str(), opts.store_path.c_str());
    std::fflush(stdout);

    const int code = service.run();
    g_service = nullptr;
    return code;
}
