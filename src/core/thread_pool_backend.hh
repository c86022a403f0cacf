/**
 * @file
 * ThreadPoolBackend: the in-process execution backend.
 *
 * Drains a TaskPlan's pending tasks (optionally restricted to one
 * ShardSpec) on the owning engine's persistent worker pool. The
 * scheduling unit is one pending task, taken in plan order:
 *
 *  - the first worker to need a benchmark's trace becomes its owner
 *    and materializes it once into the engine's TraceCache;
 *  - workers that hit a trace still being materialized defer that
 *    task and steal unrelated work instead of blocking;
 *  - only when no other work exists does a worker wait on a trace's
 *    shared_future.
 *
 * Each task is persisted and published into its own pre-assigned
 * slot the moment it finishes, with one `run` progress event; its
 * heartbeat goes out immediately before it simulates.
 *
 * Trace refcounts are plan-aware and counted per *trace slot* — the
 * plan's unique (benchmark, window) pairs, so config variants that
 * share a window are counted once. The per-slot pending count comes
 * from the plan (resumed and out-of-shard tasks excluded), so a
 * slot's trace is released — unpinned for byte-budget eviction, and
 * evicted outright when keep_traces is off — the moment its last
 * task *this process will ever run* completes, and a slot with
 * nothing pending is never materialized at all.
 *
 * This is the leaf executor every other backend bottoms out in: a
 * ProcessShardBackend worker is just a fresh engine running this
 * backend over one shard.
 */

#ifndef MICROLIB_CORE_THREAD_POOL_BACKEND_HH
#define MICROLIB_CORE_THREAD_POOL_BACKEND_HH

#include "core/execution_backend.hh"

namespace microlib
{

/** Default backend: one work queue over the engine's thread pool. */
class ThreadPoolBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "thread-pool"; }

    void execute(const TaskPlan &plan, const std::vector<char> &done,
                 const ExecutionContext &ctx, SweepResult &res,
                 RunCounters &counters) override;

  private:
    struct State;

    void drain(State &st);
};

} // namespace microlib

#endif // MICROLIB_CORE_THREAD_POOL_BACKEND_HH
