#include "service/job_table.hh"

#include "core/exit_codes.hh"
#include "core/result_store.hh"
#include "sim/fingerprint.hh"

namespace microlib
{

std::string
jobIdOf(const SweepSpec &spec)
{
    return Fingerprint::hexOf(spec.hash());
}

ServiceJob::ServiceJob(TaskPlan p, const SupervisionPolicy &policy)
    : id(jobIdOf(p.spec())), spec_text(p.spec().canonicalText()),
      plan(std::move(p)), done(plan.size(), 0), supervisor(policy)
{
    for (std::size_t i = 0; i < plan.size(); ++i)
        _task_of.emplace(plan.resultKey(i).str(), i);
}

int
ServiceJob::exitCode() const
{
    return queue.quarantined().empty() ? exit_ok : exit_quarantined;
}

std::size_t
ServiceJob::absorb(const std::vector<ResultKey> &keys)
{
    std::size_t added = 0;
    for (const ResultKey &key : keys) {
        const auto range = _task_of.equal_range(key.str());
        for (auto it = range.first; it != range.second; ++it) {
            if (!done[it->second]) {
                done[it->second] = 1;
                ++added;
            }
        }
    }
    if (added) {
        executed += added;
        queue.markDone(done);
    }
    return added;
}

JobTable::Submission
JobTable::submit(const SweepSpec &spec, ResultStore &store,
                 const SupervisionPolicy &policy)
{
    const auto it = _jobs.find(jobIdOf(spec));
    if (it != _jobs.end())
        return {it->second.get(), true};
    const TaskPlan plan(spec);
    return {&add(plan, std::vector<char>(plan.size(), 0), store,
                 policy),
            false};
}

ServiceJob &
JobTable::add(const TaskPlan &plan, std::vector<char> done,
              ResultStore &store, const SupervisionPolicy &policy)
{
    const auto it = _jobs.find(jobIdOf(plan.spec()));
    if (it != _jobs.end())
        return *it->second;
    auto job = std::make_unique<ServiceJob>(plan, policy);
    job->done = std::move(done);
    // Per-task dedup: anything the store already holds — from an
    // earlier job or an offline sweep merged in — counts as done now
    // and never queues.
    SweepResult scratch = plan.emptyResult();
    job->prefilled = plan.prefill(store, scratch, job->done);
    job->queue.reset(plan.pendingTasks(job->done, ShardSpec{}));
    job->completed = job->queue.done();
    ServiceJob &ref = *job;
    _order.push_back(job->id);
    _jobs.emplace(job->id, std::move(job));
    sweepCompleted();
    return ref;
}

void
JobTable::absorb(const std::vector<ResultKey> &keys)
{
    if (keys.empty())
        return;
    for (auto &kv : _jobs)
        kv.second->absorb(keys);
}

ServiceJob *
JobTable::find(const std::string &id)
{
    const auto it = _jobs.find(id);
    return it == _jobs.end() ? nullptr : it->second.get();
}

void
JobTable::erase(std::string id)
{
    _jobs.erase(id);
    for (auto it = _order.begin(); it != _order.end(); ++it) {
        if (*it == id) {
            _order.erase(it);
            break;
        }
    }
}

ServiceJob *
JobTable::nextLeasable()
{
    for (const std::string &id : _order) {
        ServiceJob *job = find(id);
        if (job && !job->completed && job->queue.pendingCount() > 0)
            return job;
    }
    return nullptr;
}

void
JobTable::sweepCompleted()
{
    std::size_t done_count = 0;
    for (const auto &kv : _jobs) {
        if (kv.second->queue.done())
            kv.second->completed = true;
        if (kv.second->completed)
            ++done_count;
    }
    // Evict oldest completed jobs beyond the cap; their records
    // survive in the store, so a resubmit reconstructs the job by
    // prefill alone.
    for (auto it = _order.begin();
         it != _order.end() && done_count > _max_done;) {
        ServiceJob *job = find(*it);
        if (job && job->completed) {
            _jobs.erase(*it);
            it = _order.erase(it);
            --done_count;
        } else {
            ++it;
        }
    }
}

} // namespace microlib
