/**
 * @file
 * ProcessShardBackend: multi-process execution on one host.
 *
 * The backend runs the sweep service core (service/sweepd.hh) in
 * process, on the calling thread, over N forked pull workers:
 *
 *  - the plan is submitted to the embedded service directly, never
 *    as spec text, and the workers inherit it through fork(), so
 *    programmatic plans work as well as spec files;
 *  - each worker gets a private socketpair and runs the ordinary
 *    worker loop (service/worker.hh): lease -> execute -> complete,
 *    sending every finished record over its socket; the service
 *    stores it in the parent's store on receipt, so no worker writes
 *    a file of its own;
 *  - supervision is the service's: heartbeats over the socket are
 *    liveness and blame, SweepSupervisor strikes, quarantines and
 *    budgets restarts per worker slot (docs/FAULT_TOLERANCE.md);
 *  - the backend keeps only the process-lifetime duties: fork the
 *    workers, SIGKILL one the service cut for silence, reap a dead
 *    one and fork its replacement after the supervisor's backoff,
 *    and on give-up kill them all and throw InfrastructureError with
 *    every record kept for resume.
 *
 * Because every record round-trips bit-exactly (hexfloat text) and
 * every task's slot is pre-assigned by the plan, the SweepResult is
 * byte-identical to a single-process run of the same plan, whatever
 * the worker count: more workers change the wall clock, never the
 * results.
 *
 * A killed parent resumes from the records its service stored.
 * Requires a file-backed ResultStore on the engine (fatal
 * otherwise). The static
 * `--shard i/N` partition is a separate thing: a plan filter for
 * running shards on separate hosts (docs/SHARDING.md).
 */

#ifndef MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH
#define MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH

#include "core/execution_backend.hh"

namespace microlib
{

/** ProcessShardBackend construction knobs. */
struct ProcessShardOptions
{
    /** Worker process count. */
    std::size_t shards = 2;

    /** EngineOptions::threads inside each worker (0 = 1: workers are
     *  the parallelism axis, so they default to serial). */
    unsigned threads_per_shard = 0;
};

/** Forked pull workers under the embedded sweep service. */
class ProcessShardBackend : public ExecutionBackend
{
  public:
    explicit ProcessShardBackend(ProcessShardOptions opts = {});

    const char *name() const override { return "process-shard"; }

    void execute(const TaskPlan &plan, const std::vector<char> &done,
                 const ExecutionContext &ctx, SweepResult &res,
                 RunCounters &counters) override;

  private:
    ProcessShardOptions _opts;
};

} // namespace microlib

#endif // MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH
