#include "core/service_backend.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/exit_codes.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"

namespace microlib
{

namespace
{

/** Request/reply over @p sock; throws InfrastructureError when the
 *  daemon is gone — partial service results are worthless to the
 *  caller, but the daemon's store keeps everything for a retry. */
std::string
exchange(LineSocket &sock, const std::string &request,
         const char *what)
{
    std::string reply;
    if (!sock.sendLine(request) || !sock.recvLine(reply))
        throw InfrastructureError(
            std::string("sweep service: connection lost during ") +
            what);
    return reply;
}

std::uint64_t
requireOk(const std::string &reply, const char *what)
{
    std::uint64_t ok = 0;
    if (jsonFindU64(reply, "ok", ok) && ok == 1)
        return ok;
    std::string why;
    jsonFindString(reply, "error", why);
    throw InfrastructureError(std::string("sweep service: ") + what +
                              " refused: " + why);
}

} // namespace

ServiceBackend::ServiceBackend(std::string addr, double poll_s)
    : _addr(std::move(addr)), _poll_s(poll_s)
{
}

void
ServiceBackend::execute(const TaskPlan &plan,
                        const std::vector<char> &done,
                        const ExecutionContext &ctx, SweepResult &res,
                        RunCounters &counters)
{
    // The daemon only ever sees the canonical spec text, so this
    // backend is only sound for plans whose spec round-trips through
    // it. A SweepSpec::single() plan (config set programmatically,
    // not as settings) does not; catch that here rather than let the
    // daemon silently run a different configuration.
    const std::string text = plan.spec().canonicalText();
    {
        SweepSpec reparsed;
        std::string error;
        if (!SweepSpec::parse(text, reparsed, &error))
            throw std::runtime_error(
                "service backend: spec does not round-trip (" +
                error + "); spec-file sweeps only");
        const TaskPlan check(reparsed);
        if (check.size() != plan.size() ||
            check.variantCount() != plan.variantCount())
            throw std::runtime_error(
                "service backend: spec does not round-trip; "
                "spec-file sweeps only");
        for (std::size_t v = 0; v < plan.variantCount(); ++v)
            if (check.configHash(v) != plan.configHash(v))
                throw std::runtime_error(
                    "service backend: spec does not round-trip "
                    "(variant config drift); spec-file sweeps only");
    }

    ignoreSigpipe();
    std::string error;
    const int fd = connectTo(_addr, &error);
    if (fd < 0)
        throw InfrastructureError("sweep service: cannot reach " +
                                  _addr + ": " + error);
    LineSocket sock(fd);

    std::string reply = exchange(
        sock,
        ProgressEvent("cmd", "submit").field("spec", text).str(),
        "submit");
    requireOk(reply, "submit");
    std::string job_id, state;
    if (!jsonFindString(reply, "job", job_id) ||
        !jsonFindString(reply, "state", state))
        throw InfrastructureError(
            "sweep service: malformed submit reply");
    std::string dedup;
    jsonFindString(reply, "dedup", dedup);
    inform("service backend: job ", job_id, " (", dedup, ", ",
           state, ") at ", _addr);

    while (state != "done") {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(_poll_s));
        reply = exchange(sock,
                         ProgressEvent("cmd", "status")
                             .field("job", job_id)
                             .str(),
                         "status");
        requireOk(reply, "status");
        if (!jsonFindString(reply, "state", state))
            throw InfrastructureError(
                "sweep service: malformed status reply");
    }

    reply = exchange(sock,
                     ProgressEvent("cmd", "result")
                         .field("job", job_id)
                         .str(),
                     "result");
    requireOk(reply, "result");
    std::uint64_t record_count = 0;
    jsonFindU64(reply, "records", record_count);
    std::vector<std::size_t> quarantined;
    jsonFindArray(reply, "quarantined", quarantined);

    // Fetched records land in the caller's store when one is
    // attached (persisting the service results for local resume);
    // otherwise in a throwaway. Either way the matrix slots fill
    // through plan.prefill — the exact resume path, hence exact
    // bytes.
    ResultStore fallback;
    ResultStore *fill_store =
        ctx.opts.store ? ctx.opts.store : &fallback;
    std::size_t parsed = 0;
    for (std::uint64_t i = 0; i < record_count; ++i) {
        std::string line;
        if (!sock.recvLine(line))
            throw InfrastructureError(
                "sweep service: connection lost mid-result");
        std::string rec_text;
        if (!jsonFindString(line, "rec", rec_text))
            continue;
        ResultRecord rec;
        if (ResultStore::parseRecord(rec_text, rec)) {
            fill_store->put(rec);
            ++parsed;
        } else {
            ++counters.store_skipped;
        }
    }

    std::vector<char> merged_done = done;
    counters.executed += plan.prefill(*fill_store, res, merged_done);

    // Quarantined tasks have no record: flag their cells and exempt
    // them from the completeness check — same record-wins rule as
    // the process-shard merge (a task whose record landed anywhere
    // is simply done).
    std::sort(quarantined.begin(), quarantined.end());
    for (const std::size_t q : quarantined) {
        if (q >= plan.size() || merged_done[q])
            continue;
        merged_done[q] = 1;
        const PlanTask &t = plan.task(q);
        res.matrix(t.v).fault[t.m][t.b] = 1;
        counters.quarantined.push_back(q);
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (!merged_done[i])
            throw InfrastructureError(
                "sweep service: job " + job_id +
                " reported done but task " + std::to_string(i) +
                " has no record (" + std::to_string(parsed) +
                " records fetched)");
}

} // namespace microlib
