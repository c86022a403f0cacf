#include "core/process_shard_backend.hh"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/exit_codes.hh"
#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "service/sweepd.hh"
#include "service/worker.hh"
#include "sim/logging.hh"

namespace microlib
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Leases each worker's share of the pending tasks is cut into. Each
 *  lease costs a round trip plus a wait for the worker's slowest
 *  thread; the last one bounds how far apart the workers finish. On
 *  the sweep benchmark's 2704-task plan, 4 matched static mod-N
 *  partitioning's wall time, and 32 was 10% slower. */
constexpr std::size_t leases_per_worker = 4;

/** EINTR-proof blocking waitpid. */
void
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
}

/** The forked worker processes, by slot. Whatever is still running
 *  when this goes out of scope is SIGKILLed and reaped: an error
 *  never leaves an orphan behind. */
struct Workers
{
    std::vector<pid_t> pid;
    std::vector<Clock::time_point> restart_at;

    Workers() = default;
    Workers(const Workers &) = delete;
    Workers &operator=(const Workers &) = delete;

    void kill(std::size_t slot)
    {
        if (pid[slot] > 0) {
            ::kill(pid[slot], SIGKILL);
            reap(pid[slot]);
        }
        pid[slot] = -1;
    }

    ~Workers()
    {
        for (std::size_t slot = 0; slot < pid.size(); ++slot)
            kill(slot);
    }
};

} // namespace

ProcessShardBackend::ProcessShardBackend(ProcessShardOptions opts)
    : _opts(opts)
{
    if (_opts.shards == 0)
        fatal("ProcessShardOptions::shards must be >= 1");
}

void
ProcessShardBackend::execute(const TaskPlan &plan,
                             const std::vector<char> &done,
                             const ExecutionContext &ctx,
                             SweepResult &res, RunCounters &counters)
{
    ResultStore *store = ctx.opts.store;
    if (!store || store->path().empty())
        fatal("ProcessShardBackend needs a file-backed result store "
              "(EngineOptions::store): the service stores every "
              "record there, and a failed sweep resumes from it");
    if (!ctx.opts.shard.whole())
        fatal("ProcessShardBackend schedules the whole plan itself; "
              "combine --shard with the thread-pool backend instead");
    counters.skipped = 0;

    const std::size_t nslots = _opts.shards;

    // Fault injection counts "first N encounters" in a state file; one
    // per sweep, so crash@t:1 fires once whichever worker draws t.
    std::string fault_state;
    if (std::getenv("MICROLIB_FAULT") &&
        !std::getenv("MICROLIB_FAULT_STATE"))
        fault_state = store->path() + ".faultstate";

    SupervisionPolicy policy;
    policy.heartbeat_timeout = ctx.opts.heartbeat_timeout;
    policy.max_worker_retries = ctx.opts.max_worker_retries;
    policy.quarantine_strikes = ctx.opts.quarantine_strikes;
    policy.backoff_initial_s = ctx.opts.worker_backoff_s;
    const std::size_t pending = plan.pendingTasks(done, ShardSpec{}).size();
    const std::size_t lease_size =
        std::max<std::size_t>(1, pending / (nslots * leases_per_worker));

    Workers workers;
    std::vector<std::unique_ptr<ProgressWriter>> relays;
    std::vector<std::size_t> quarantined;
    std::size_t leftovers = 0;
    {
        SweepService service(policy, lease_size, *store, ctx.progress);
        const ServiceJob &job = service.submit(plan, done);
        leftovers = job.prefilled;

        WorkerOptions wopts;
        wopts.threads =
            _opts.threads_per_shard ? _opts.threads_per_shard : 1;
        wopts.verbose = ctx.opts.verbose;
        wopts.trace_dir = ctx.opts.trace_dir;
        wopts.trace_budget_bytes = ctx.opts.trace_budget_bytes;
        wopts.idle_poll_s = 0.02;
        const std::size_t nworkers =
            std::min(nslots, job.queue.pendingCount());
        for (std::size_t i = 0; i < nworkers; ++i)
            relays.push_back(std::make_unique<ProgressWriter>(
                ctx.opts.progress_path.empty()
                    ? std::string()
                    : ctx.opts.progress_path + ".shard" +
                          std::to_string(i)));

        auto launch = [&](std::size_t slot) {
            int sv[2];
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
                throw InfrastructureError(
                    "ProcessShardBackend: socketpair() failed");
            // Buffered parent output must not be replayed by the
            // child: flush before the address space is duplicated.
            std::fflush(stdout);
            std::fflush(stderr);
            const pid_t pid = ::fork();
            if (pid < 0) {
                ::close(sv[0]);
                ::close(sv[1]);
                throw InfrastructureError(
                    "ProcessShardBackend: fork() failed");
            }
            if (pid == 0) {
                // Child: keep only its own end of its own socket.
                ::close(sv[0]);
                service.closeInheritedFds();
                if (!fault_state.empty())
                    setenv("MICROLIB_FAULT_STATE", fault_state.c_str(),
                           1);
                wopts.name = "slot" + std::to_string(slot);
                int code = exit_failure;
                try {
                    code = runWorker(sv[1], wopts, &plan);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "worker %zu: %s\n", slot,
                                 e.what());
                }
                std::fflush(stdout);
                std::fflush(stderr);
                _exit(code); // no parent-state destructors in here
            }
            ::close(sv[1]);
            service.adoptWorker(sv[0], slot, relays[slot].get());
            workers.pid[slot] = pid;
        };

        workers.pid.assign(nworkers, -1);
        workers.restart_at.assign(nworkers, Clock::now());
        for (std::size_t i = 0; i < nworkers; ++i)
            launch(i);

        while (!job.completed) {
            if (!service.step(20))
                throw InfrastructureError(
                    "ProcessShardBackend: poll() failed");
            for (const auto &v : service.takeSlotVerdicts()) {
                if (v.verdict.action ==
                    SupervisionVerdict::Action::GiveUp)
                    throw InfrastructureError(
                        "ProcessShardBackend: " + v.verdict.why +
                        " (records kept for resume)");
                if (!v.gone)
                    continue; // a failed lease: the worker lives on
                // Dead, or cut for silence while still running.
                workers.kill(v.slot);
                workers.restart_at[v.slot] =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            v.verdict.delay_s));
            }
            for (std::size_t i = 0; i < nworkers; ++i)
                if (workers.pid[i] < 0 &&
                    Clock::now() >= workers.restart_at[i])
                    launch(i);
        }
        quarantined = job.queue.quarantined();
    }
    // The service is gone and with it every worker's socket: each
    // worker's next lease request fails and it exits cleanly.
    for (std::size_t i = 0; i < workers.pid.size(); ++i) {
        if (workers.pid[i] > 0)
            reap(workers.pid[i]);
        workers.pid[i] = -1;
    }

    std::vector<char> final_done = done;
    const std::size_t filled = plan.prefill(*store, res, final_done);
    counters.resumed += leftovers;
    counters.executed = filled - leftovers;
    plan.settle(quarantined, final_done, res, counters.quarantined,
                "ProcessShardBackend");

    if (!fault_state.empty())
        std::remove(fault_state.c_str());
}

} // namespace microlib
