#include "service/worker.hh"

#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "core/exit_codes.hh"
#include "core/progress.hh"
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
    return runWorker(fd, wopts, nullptr);
}

int
runWorker(int fd, const WorkerOptions &wopts, const TaskPlan *inherited)
{
    ignoreSigpipe();
    LineSocket sock(fd);
    std::string error;

    const std::string name =
        wopts.name.empty() ? defaultName() : wopts.name;
    std::string reply;
    if (!exchange(sock,
                  ProgressEvent("cmd", "hello")
                      .field("name", name)
                      .field("schema", schemaTuple())
                      .str(),
                  reply)) {
        // An embedded service may finish the sweep before a restarted
        // worker says hello; only a daemon's hangup is news.
        if (!inherited)
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
    // thread pool stays warm. No store: the daemon stores records.
    EngineOptions opts;
    opts.threads = wopts.threads;
    opts.verbose = wopts.verbose;
    opts.keep_traces = true;
    opts.trace_dir = wopts.trace_dir;
    opts.trace_budget_bytes = wopts.trace_budget_bytes;
    ExperimentEngine engine(opts);
    // Progress events (heartbeats included: the daemon's liveness
    // and blame evidence) and finished records share the socket.
    ProgressWriter conn(sock.fd());
    const ExecutionContext ctx{engine, opts, &conn, &conn};

    std::map<std::string, std::unique_ptr<TaskPlan>> plans;
    if (!inherited)
        inform("worker ", name, ": attached to ", wopts.service);

    for (;;) {
        if (!exchange(sock, ProgressEvent("cmd", "lease").str(),
                      reply)) {
            // The daemon closing the socket between leases is the
            // normal end of service (shutdown after drain).
            if (!inherited)
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
        if (!inherited && plan_it == plans.end()) {
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
        const TaskPlan &plan = inherited ? *inherited : *plan_it->second;

        // Execute exactly the leased tasks: everything else is
        // "done" as far as this lease is concerned.
        SweepResult res = plan.emptyResult();
        std::vector<char> done(plan.size(), 1);
        for (const std::size_t t : tasks)
            if (t < done.size())
                done[t] = 0;
        RunCounters counters;

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
