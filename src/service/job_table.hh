/**
 * @file
 * ServiceJob/JobTable: microlib_sweepd's unit of deduplicated work.
 *
 * A job is one submitted sweep, keyed by the 16-hex FNV hash of its
 * canonical `.sweep` text (SweepSpec::hash) — the same hash on every
 * host, so two clients submitting the same experiment NAME the same
 * job. Dedup happens at two grains:
 *
 *  - whole-sweep: a submit whose hash matches a live or completed
 *    job attaches to it (dedup "job") — at most one execution per
 *    spec, however many clients ask;
 *  - per-task: a new job's plan is prefilled from the daemon's
 *    global result store before anything queues (dedup counted in
 *    `prefilled`), so tasks any previous job — or any merged
 *    offline sweep — already ran are never re-queued. A submit
 *    whose every task prefills completes instantly.
 *
 * The table evicts the oldest *completed* jobs over a cap (their
 * records stay in the store — eviction loses only the job handle;
 * a resubmit rebuilds it at prefill cost). Running jobs are never
 * evicted.
 */

#ifndef MICROLIB_SERVICE_JOB_TABLE_HH
#define MICROLIB_SERVICE_JOB_TABLE_HH

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/lease.hh"
#include "core/supervisor.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"

namespace microlib
{

class ResultStore;

/** One submitted sweep and its scheduling state. */
struct ServiceJob
{
    std::string id;        ///< 16-hex SweepSpec::hash
    std::string spec_text; ///< canonical `.sweep` text
    TaskPlan plan;
    std::vector<char> done; ///< per-task: record known to the store
    SweepResult res;        ///< prefill target (slots; not served)
    LeaseQueue queue;
    SweepSupervisor supervisor;
    std::size_t prefilled = 0; ///< tasks deduped from the store
    std::size_t executed = 0;  ///< records merged from workers
    bool completed = false;

    ServiceJob(const SweepSpec &spec, const SupervisionPolicy &policy);

    std::size_t total() const { return plan.size(); }
    std::size_t filled() const { return prefilled + executed; }

    /** Exit code a client of this job should report once done:
     *  exit_ok, or exit_quarantined if any cell was excluded. */
    int exitCode() const;
};

/** The daemon's job registry; owns every job. */
class JobTable
{
  public:
    explicit JobTable(std::size_t max_done_jobs = 64)
        : _max_done(max_done_jobs)
    {
    }

    /** Outcome of submit(): the job plus how dedup resolved it. */
    struct Submission
    {
        ServiceJob *job = nullptr;
        bool deduped = false; ///< attached to an existing job
    };

    /**
     * Register @p spec: return the existing job with the same hash,
     * or create one — plan built, slots prefilled from @p store,
     * queue loaded with the still-missing tasks (a fully-prefilled
     * job is born completed). Never runs anything.
     */
    Submission submit(const SweepSpec &spec, ResultStore &store,
                      const SupervisionPolicy &policy);

    /** The job named @p id, or nullptr. */
    ServiceJob *find(const std::string &id);

    /** Drop the job named @p id (a read-only daemon refusing an
     *  unexecutable submit). No-op if absent. Takes the id by value:
     *  callers pass the job's own `id` member, which dies with the
     *  job before the order list is searched. */
    void erase(std::string id);

    /** Oldest running job with pending (leasable) tasks, or nullptr
     *  — the lease source; oldest-first keeps job latency fair. */
    ServiceJob *nextLeasable();

    /** Mark completed jobs done and evict the oldest completed ones
     *  beyond the cap. Call after any state change. */
    void sweepCompleted();

    std::size_t size() const { return _jobs.size(); }

    /** Job ids in submission order (status listing). */
    std::vector<std::string> ids() const { return {_order.begin(),
                                                   _order.end()}; }

  private:
    std::size_t _max_done;
    std::map<std::string, std::unique_ptr<ServiceJob>> _jobs;
    std::deque<std::string> _order; ///< submission order (eviction)
};

/** 16-hex job id of @p spec (zero-padded SweepSpec::hash). */
std::string jobIdOf(const SweepSpec &spec);

} // namespace microlib

#endif // MICROLIB_SERVICE_JOB_TABLE_HH
