#include "service/worker.hh"

#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "core/exit_codes.hh"
#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/task_plan.hh"
#include "core/thread_pool_backend.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"
#include "sim/version.hh"

namespace microlib
{

namespace
{

std::string
defaultName()
{
    char host[256] = "worker";
    ::gethostname(host, sizeof(host) - 1);
    return std::string(host) + ":" + std::to_string(::getpid());
}

/** One request/reply exchange; false when the connection is gone. */
bool
exchange(LineSocket &sock, const std::string &request,
         std::string &reply)
{
    return sock.sendLine(request) && sock.recvLine(reply);
}

} // namespace

int
runWorkerLoop(const WorkerOptions &wopts)
{
    ignoreSigpipe();

    std::string error;
    const int fd = connectTo(wopts.service, &error);
    if (fd < 0) {
        warn("worker: cannot reach daemon at ", wopts.service, ": ",
             error);
        return exit_infrastructure;
    }
    LineSocket sock(fd);

    const std::string name =
        wopts.name.empty() ? defaultName() : wopts.name;
    std::string store_path = wopts.store_path;
    if (store_path.empty())
        store_path = "microlib_worker_" +
                     std::to_string(::getpid()) + ".store";
    // The daemon merges this file by path, so it must mean the same
    // file over there: absolutize against our cwd.
    if (!store_path.empty() && store_path[0] != '/') {
        char cwd[4096];
        if (::getcwd(cwd, sizeof(cwd)))
            store_path = std::string(cwd) + "/" + store_path;
    }

    std::string reply;
    if (!exchange(sock,
                  ProgressEvent("cmd", "hello")
                      .field("name", name)
                      .field("schema", schemaTuple())
                      .field("store", store_path)
                      .str(),
                  reply)) {
        warn("worker: daemon hung up during hello");
        return exit_infrastructure;
    }
    std::uint64_t ok = 0;
    if (!jsonFindU64(reply, "ok", ok) || ok != 1) {
        std::string why;
        jsonFindString(reply, "error", why);
        warn("worker: daemon refused hello: ", why);
        return exit_infrastructure;
    }

    // One engine across every lease: traces stay materialized, the
    // thread pool stays warm. The store is this worker's private
    // append-only file; the daemon merges it, never writes it.
    ResultStore store(store_path);
    EngineOptions opts;
    opts.threads = wopts.threads;
    opts.verbose = wopts.verbose;
    opts.keep_traces = true;
    opts.trace_dir = wopts.trace_dir;
    opts.trace_budget_bytes = wopts.trace_budget_bytes;
    opts.store = &store;
    ExperimentEngine engine(opts);
    // Progress sinks to the daemon socket: the same JSONL events a
    // file stream would carry, heartbeats included — the daemon's
    // liveness and blame evidence.
    ProgressWriter progress(sock.fd());
    const ExecutionContext ctx{engine, opts, &progress};

    std::map<std::string, std::unique_ptr<TaskPlan>> plans;
    inform("worker ", name, ": attached to ", wopts.service,
           " (store ", store_path, ")");

    for (;;) {
        if (!exchange(sock, ProgressEvent("cmd", "lease").str(),
                      reply)) {
            // The daemon closing the socket between leases is the
            // normal end of service (shutdown after drain).
            inform("worker ", name, ": daemon closed; exiting");
            return exit_ok;
        }
        std::vector<std::size_t> tasks;
        if (!jsonFindArray(reply, "tasks", tasks)) {
            warn("worker: malformed lease reply");
            return exit_infrastructure;
        }
        if (tasks.empty()) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                wopts.idle_poll_s));
            continue;
        }
        std::string job_id;
        if (!jsonFindString(reply, "job", job_id)) {
            warn("worker: lease reply names no job");
            return exit_infrastructure;
        }
        auto plan_it = plans.find(job_id);
        if (plan_it == plans.end()) {
            std::string spec_text;
            SweepSpec spec;
            if (!jsonFindString(reply, "spec", spec_text) ||
                !SweepSpec::parse(spec_text, spec, &error)) {
                warn("worker: bad spec in lease reply: ", error);
                return exit_infrastructure;
            }
            plan_it = plans
                          .emplace(job_id,
                                   std::make_unique<TaskPlan>(spec))
                          .first;
        }
        const TaskPlan &plan = *plan_it->second;

        // Execute exactly the leased tasks: everything else is
        // "done" as far as this lease is concerned. Records this
        // worker already holds (a requeued task it ran before a
        // crash elsewhere) resume from its own store instead of
        // re-simulating.
        SweepResult res = plan.emptyResult();
        std::vector<char> done(plan.size(), 1);
        for (const std::size_t t : tasks)
            if (t < done.size())
                done[t] = 0;
        RunCounters counters;
        counters.resumed = plan.prefill(store, res, done);

        ProgressEvent complete("cmd", "complete");
        complete.field("job", job_id).field("tasks", tasks);
        try {
            ThreadPoolBackend leaf;
            leaf.execute(plan, done, ctx, res, counters);
            complete.field("ok", std::uint64_t{1});
        } catch (const std::exception &e) {
            // The lease failed (poison task, trace failure): report
            // and keep serving — the daemon strikes the blamed task
            // and requeues the rest.
            warn("worker ", name, ": lease failed: ", e.what());
            complete.field("ok", std::uint64_t{0})
                .field("error", e.what());
        }
        if (!exchange(sock, complete.str(), reply)) {
            warn("worker: daemon hung up mid-lease");
            return exit_infrastructure;
        }
    }
}

} // namespace microlib
