#include "core/process_shard_backend.hh"

#include <errno.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/exit_codes.hh"
#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/supervisor.hh"
#include "core/thread_pool_backend.hh"
#include "sim/logging.hh"

namespace microlib
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Worker body, run between fork() and _exit(): execute shard
 *  @p shard of @p plan into its own store. Never returns. */
[[noreturn]] void
runShardWorker(const TaskPlan &plan, const std::vector<char> &done,
               const ExecutionContext &parent_ctx,
               const ShardSpec &shard, const std::string &store_path,
               const std::string &progress_path,
               const std::string &fault_state, unsigned threads)
{
    try {
        // Per-worker fault-injection firing state, derived by the
        // parent when MICROLIB_FAULT is armed without an explicit
        // state file: "first N encounters" must count across this
        // worker's restarts, or crash@t:1 would re-fire forever.
        if (!fault_state.empty())
            setenv("MICROLIB_FAULT_STATE", fault_state.c_str(), 1);

        // Fresh engine: own thread pool, own trace cache. The
        // parent's pool threads do not exist in this process; its
        // engine is never touched again (no destructors run either —
        // see the _exit below).
        ResultStore store(store_path);
        EngineOptions opts;
        opts.threads = threads;
        opts.keep_traces = parent_ctx.opts.keep_traces;
        opts.verbose = parent_ctx.opts.verbose;
        opts.trace_budget_bytes = parent_ctx.opts.trace_budget_bytes;
        // All shard workers share the parent's arena directory: the
        // first worker to need a window publishes it, every sibling
        // (and every later run) mmaps that one copy.
        opts.trace_dir = parent_ctx.opts.trace_dir;
        opts.store = &store;
        opts.shard = shard;
        opts.progress_path = progress_path;
        ExperimentEngine engine(opts);
        ProgressWriter progress(opts.progress_path);
        const ExecutionContext ctx{
            engine, opts, progress.enabled() ? &progress : nullptr};

        // The parent's resume mask rides through fork(): tasks whose
        // record the parent store already held — and tasks the parent
        // has quarantined — are never re-run here. On top of that,
        // resume from this shard's own store: a previously killed
        // worker left exactly those records.
        SweepResult res = plan.emptyResult();
        std::vector<char> worker_done = done;
        RunCounters counters;
        counters.resumed =
            plan.prefill(store, res, worker_done);

        if (progress.enabled())
            progress.write(ProgressEvent("plan")
                               .field("backend", "process-shard/worker")
                               .field("shard", shard.str())
                               .field("total", plan.size())
                               .field("resumed", counters.resumed));

        ThreadPoolBackend leaf;
        leaf.execute(plan, worker_done, ctx, res, counters);

        if (progress.enabled())
            progress.write(ProgressEvent("done")
                               .field("backend", "process-shard/worker")
                               .field("shard", shard.str())
                               .field("executed", counters.executed)
                               .field("resumed", counters.resumed)
                               .field("skipped", counters.skipped));
        std::fflush(stdout);
        std::fflush(stderr);
        _exit(0);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "shard worker %zu: %s\n",
                     static_cast<std::size_t>(shard.index), e.what());
        std::fflush(stderr);
        _exit(1);
    } catch (...) {
        std::fprintf(stderr, "shard worker %zu: unknown error\n",
                     static_cast<std::size_t>(shard.index));
        std::fflush(stderr);
        _exit(1);
    }
}

/** Unique pending-task records already sitting in the store file at
 *  @p path — a killed worker's leftovers, which the restarted worker
 *  will *resume* rather than execute. Counted so the parent's
 *  RunCounters stay truthful: executed means simulated this call. */
std::size_t
countPendingRecords(const std::string &path,
                    const std::set<std::string> &pending_keys)
{
    std::ifstream in(path);
    if (!in)
        return 0;
    std::set<std::string> seen;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ResultRecord rec;
        if (!ResultStore::parseRecord(line, rec))
            continue;
        std::string key = rec.key.str();
        if (pending_keys.count(key))
            seen.insert(std::move(key));
    }
    return seen.size();
}

/** One supervised shard worker (possibly across several process
 *  incarnations: the shard, its files and its follower are stable;
 *  the pid changes on restart). */
struct Worker
{
    pid_t pid = -1;
    ShardSpec shard;
    std::string store_path;
    std::string progress_path;
    bool derived_progress = false; ///< we invented the path: clean up
    std::string fault_state;       ///< derived firing-state file ("")
    ProgressFollower follower;
    Clock::time_point last_activity{};
    Clock::time_point restart_at{}; ///< when pid < 0: relaunch gate
    bool finished = false;
};

/** EINTR-proof waitpid. Returns the waitpid result with EINTR
 *  retried: an interrupted wait is not a shard failure. */
pid_t
waitFor(pid_t pid, int *status, int flags)
{
    pid_t r;
    do {
        r = waitpid(pid, status, flags);
    } while (r < 0 && errno == EINTR);
    return r;
}

} // namespace

ProcessShardBackend::ProcessShardBackend(ProcessShardOptions opts)
    : _opts(opts)
{
    if (_opts.shards == 0)
        fatal("ProcessShardOptions::shards must be >= 1");
}

std::string
ProcessShardBackend::shardStorePath(const std::string &base,
                                    std::size_t index,
                                    std::size_t count)
{
    std::string path = base;
    path += ".shard";
    path += std::to_string(index);
    path += "of";
    path += std::to_string(count);
    return path;
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
              "(EngineOptions::store): shard workers hand results "
              "back through per-shard store files");
    if (!ctx.opts.shard.whole())
        fatal("ProcessShardBackend partitions the whole plan itself; "
              "combine --shard with the thread-pool backend instead");

    counters.skipped = 0; // this backend executes everything pending
    const std::vector<std::size_t> pending =
        plan.pendingTasks(done, ShardSpec{});
    if (pending.empty())
        return;

    const std::size_t nshards = _opts.shards;
    const unsigned worker_threads =
        _opts.threads_per_shard ? _opts.threads_per_shard : 1;

    // Keys of every task a worker might run, for the resume
    // accounting below.
    std::set<std::string> pending_keys;
    for (std::size_t i : pending)
        pending_keys.insert(plan.resultKey(i).str());

    SupervisionPolicy policy;
    policy.heartbeat_timeout = ctx.opts.heartbeat_timeout;
    policy.max_worker_retries = ctx.opts.max_worker_retries;
    policy.quarantine_strikes = ctx.opts.quarantine_strikes;
    policy.backoff_initial_s = ctx.opts.worker_backoff_s;
    SweepSupervisor supervisor(policy);

    // The mask restarted workers are launched with: the caller's
    // resume mask plus every task quarantined so far, so a restarted
    // worker never re-runs the task that has been killing it.
    std::vector<char> live_done = done;

    // Fault injection needs per-worker firing state to count "first
    // N encounters" across restarts; derive one next to each shard
    // store when the user armed a plan without naming a state file.
    const bool derive_fault_state =
        std::getenv("MICROLIB_FAULT") != nullptr &&
        std::getenv("MICROLIB_FAULT_STATE") == nullptr;

    std::vector<Worker> workers;
    std::size_t worker_resumed = 0;
    for (std::size_t i = 0; i < nshards; ++i) {
        const ShardSpec shard{i, nshards};
        // A shard with nothing pending (all resumed, or the plan is
        // smaller than the shard count) gets no process.
        const bool has_work =
            std::any_of(pending.begin(), pending.end(),
                        [&](std::size_t t)
                        { return TaskPlan::inShard(t, shard); });
        if (!has_work)
            continue;

        Worker w;
        w.shard = shard;
        w.store_path = shardStorePath(store->path(), i, nshards);
        // Supervision needs the heartbeat stream even when the
        // caller asked for no progress output; derive a path from
        // the shard store and clean it up on success.
        if (!ctx.opts.progress_path.empty()) {
            w.progress_path = ctx.opts.progress_path + ".shard" +
                              std::to_string(shard.index);
        } else {
            w.progress_path = w.store_path + ".progress";
            w.derived_progress = true;
        }
        if (derive_fault_state)
            w.fault_state = w.store_path + ".faultstate";
        // Records a previous (killed) worker left behind will be
        // resumed by the restarted worker, not re-executed; count
        // them now, before the child starts appending. Restarts
        // within THIS call need no recount: whatever an incarnation
        // persisted was simulated by this call, so it stays
        // `executed` even when a successor resumes it.
        worker_resumed +=
            countPendingRecords(w.store_path, pending_keys);
        workers.push_back(std::move(w));
    }

    auto launch = [&](Worker &w, std::size_t attempt) {
        // Parent-side buffered output must not be replayed by every
        // child's own writes later; flush before the address space
        // is duplicated.
        std::fflush(stdout);
        std::fflush(stderr);
        w.pid = fork();
        if (w.pid < 0)
            fatal("ProcessShardBackend: fork() failed for shard ",
                  w.shard.str());
        if (w.pid == 0)
            runShardWorker(plan, live_done, ctx, w.shard,
                           w.store_path, w.progress_path,
                           w.fault_state,
                           worker_threads); // never returns
        // The new incarnation truncates its progress stream on open;
        // follow it from the top.
        w.follower = ProgressFollower(w.progress_path);
        w.last_activity = Clock::now();
        if (ctx.progress)
            ctx.progress->write(
                ProgressEvent("shard")
                    .field("shard", w.shard.str())
                    .field("pid", static_cast<std::uint64_t>(w.pid))
                    .field("attempt",
                           static_cast<std::uint64_t>(attempt))
                    .field("store", w.store_path));
    };
    for (Worker &w : workers)
        launch(w, 0);

    // Supervision loop: poll every worker for death (WNOHANG reap),
    // stall (no progress-stream growth within the heartbeat timeout)
    // and due restarts, until all shards finish or the supervisor
    // gives up. Failures never leave siblings running unsupervised:
    // GiveUp kills and reaps every live worker before throwing.
    std::string give_up;
    auto onFailure = [&](Worker &w, bool stalled,
                         std::string detail) {
        // Drain the stream one last time: the heartbeat written just
        // before the fatal task is the blame evidence.
        w.follower.poll();
        WorkerFailure f;
        f.worker = w.shard.index;
        f.stalled = stalled;
        f.detail = std::move(detail);
        f.has_task = w.follower.lastHeartbeatTask(f.task);
        const SupervisionVerdict verdict = supervisor.decide(f);
        warn("ProcessShardBackend: ", verdict.why);
        if (verdict.quarantined) {
            live_done[verdict.task] = 1;
            if (ctx.progress)
                ctx.progress->write(
                    ProgressEvent("quarantine")
                        .field("task", verdict.task)
                        .field("shard", w.shard.str())
                        .field("desc",
                               plan.describe(verdict.task,
                                             ShardSpec{0, nshards})));
        }
        if (verdict.action == SupervisionVerdict::Action::GiveUp) {
            give_up = verdict.why;
            return;
        }
        w.pid = -1;
        w.restart_at =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(verdict.delay_s));
        if (ctx.progress)
            ctx.progress->write(
                ProgressEvent("worker_restart")
                    .field("shard", w.shard.str())
                    .field("stalled",
                           static_cast<std::uint64_t>(stalled ? 1 : 0))
                    .field("retries", supervisor.retries(f.worker))
                    .field("delay_s", verdict.delay_s));
    };

    std::size_t active = workers.size();
    while (active > 0 && give_up.empty()) {
        bool any_event = false;
        for (Worker &w : workers) {
            if (w.finished || !give_up.empty())
                continue;
            if (w.pid < 0) {
                // Waiting out its restart backoff.
                if (Clock::now() >= w.restart_at) {
                    launch(w, supervisor.retries(w.shard.index));
                    any_event = true;
                }
                continue;
            }

            int status = 0;
            const pid_t r = waitFor(w.pid, &status, WNOHANG);
            if (r < 0) {
                give_up = "shard " + w.shard.str() +
                          ": waitpid failed (errno " +
                          std::to_string(errno) + ")";
                break;
            }
            if (r == w.pid) {
                const bool ok =
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
                if (ctx.progress)
                    ctx.progress->write(
                        ProgressEvent("shard_exit")
                            .field("shard", w.shard.str())
                            .field("ok", static_cast<std::uint64_t>(
                                             ok ? 1 : 0)));
                if (ok) {
                    w.finished = true;
                    --active;
                } else {
                    onFailure(w, false,
                              WIFSIGNALED(status)
                                  ? "killed by signal " +
                                        std::to_string(WTERMSIG(status))
                                  : "exit status " +
                                        std::to_string(
                                            WEXITSTATUS(status)));
                }
                any_event = true;
                continue;
            }

            // Alive. Stream growth (any complete line) is liveness;
            // silence past the timeout means wedged — SIGKILL and
            // let the supervisor decide about the restart.
            if (w.follower.poll()) {
                w.last_activity = Clock::now();
                any_event = true;
            } else if (policy.heartbeat_timeout > 0 &&
                       secondsSince(w.last_activity) >
                           policy.heartbeat_timeout) {
                kill(w.pid, SIGKILL);
                waitFor(w.pid, &status, 0);
                if (ctx.progress)
                    ctx.progress->write(
                        ProgressEvent("worker_stall")
                            .field("shard", w.shard.str())
                            .field("timeout_s",
                                   policy.heartbeat_timeout));
                onFailure(w, true,
                          "no heartbeat for " +
                              std::to_string(
                                  policy.heartbeat_timeout) +
                              "s");
                any_event = true;
            }
        }
        if (!any_event && active > 0 && give_up.empty())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
    }

    if (!give_up.empty()) {
        for (Worker &w : workers) {
            if (w.finished || w.pid < 0)
                continue;
            kill(w.pid, SIGKILL);
            int status = 0;
            waitFor(w.pid, &status, 0);
        }
        // Shard stores are deliberately kept: the next run resumes
        // exactly the missing tasks of the failed shard(s). This is
        // an infrastructure failure (exit 4), not an experiment
        // failure — retrying against a healthy machine resumes.
        throw InfrastructureError("ProcessShardBackend: " + give_up +
                                  " (shard stores kept for resume)");
    }

    // All workers succeeded: merge shard stores by concatenation
    // into the parent store, then fill the matrix from the merged
    // records — the same resume path a restarted sweep takes.
    for (const Worker &w : workers)
        store->merge(w.store_path);
    std::vector<char> merged_done = done;
    const std::size_t filled = plan.prefill(*store, res, merged_done);
    // Truthful accounting: of the records just merged, the ones a
    // killed worker had already persisted before THIS call were
    // resumed inside its first restarted incarnation, not simulated.
    counters.executed = filled - worker_resumed;
    counters.resumed += worker_resumed;
    // Quarantined tasks have no record: flag their cells and exempt
    // them from the completeness check. (A task misblamed after its
    // record landed is simply done — the record wins.)
    std::vector<std::size_t> quarantined = supervisor.quarantined();
    std::sort(quarantined.begin(), quarantined.end());
    for (const std::size_t q : quarantined) {
        if (merged_done[q])
            continue;
        merged_done[q] = 1;
        const PlanTask &t = plan.task(q);
        res.matrix(t.v).fault[t.m][t.b] = 1;
        counters.quarantined.push_back(q);
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (!merged_done[i])
            throw std::runtime_error(
                "ProcessShardBackend: shard worker exited cleanly "
                "but produced no record for " +
                plan.describe(i, ShardSpec{0, nshards}));

    if (!_opts.keep_shard_stores) {
        for (const Worker &w : workers) {
            std::remove(w.store_path.c_str());
            if (w.derived_progress)
                std::remove(w.progress_path.c_str());
            if (!w.fault_state.empty())
                std::remove(w.fault_state.c_str());
        }
    }
}

} // namespace microlib
