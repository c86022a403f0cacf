/**
 * @file
 * The pull-based sweep worker: `microlib_sweep --worker <addr>`.
 *
 * A worker is a long-running simulation process that attaches to a
 * microlib_sweepd daemon and drains it: hello (schema handshake),
 * then lease -> execute -> complete until the daemon hangs up. Each
 * lease is a handful of plan-order task indices of one job; the
 * worker rebuilds the job's TaskPlan from the canonical spec text in
 * the lease reply (the TaskPlan determinism contract makes its
 * indices mean exactly what the daemon's do) and executes the
 * leased tasks with the ordinary ThreadPoolBackend.
 *
 * The worker keeps no store. While executing, one ProgressWriter
 * over the daemon socket carries both the standard JSONL events
 * (relayed into the daemon's progress file, heartbeats kept as blame
 * evidence) and one `record` line per finished task, which the
 * daemon checks and stores the moment it arrives — so a worker that
 * dies mid-lease loses only its unfinished tasks, and a worker on
 * another host needs no shared filesystem. A record that cannot be
 * sent fails the lease: the worker stops simulating for a daemon
 * that is gone. One ExperimentEngine lives across all leases, so
 * traces (and the shared trace arena, if MICROLIB_TRACE_DIR is set)
 * stay warm from lease to lease.
 */

#ifndef MICROLIB_SERVICE_WORKER_HH
#define MICROLIB_SERVICE_WORKER_HH

#include <cstddef>
#include <string>

namespace microlib
{

class TaskPlan;

/** Worker knobs (`microlib_sweep --worker` flags map onto these). */
struct WorkerOptions
{
    std::string service;    ///< daemon address (required)
    std::string name;       ///< display name; "" = host:pid
    unsigned threads = 0;   ///< simulation threads (0 = default)
    bool verbose = false;
    std::string trace_dir;  ///< trace arena (shared with siblings)
    std::size_t trace_budget_bytes = 0;
    double idle_poll_s = 0.2; ///< sleep between empty leases
};

/**
 * Run the worker loop until the daemon hangs up. Returns a process
 * exit code: exit_ok on a clean daemon shutdown, exit_infrastructure
 * when the daemon is unreachable, rejects the hello (schema
 * mismatch), or vanishes mid-lease (at the latest at the next
 * finished task, whose record cannot be sent).
 */
int runWorkerLoop(const WorkerOptions &opts);

/**
 * The same loop over an already connected socket @p fd (owned and
 * closed): what runWorkerLoop runs once connected, and what an
 * embedded service's forked workers run over their socketpair.
 * @p inherited, when non-null, is the plan of every leased job — a
 * forked worker shares its parent's plan, so the spec text of the
 * lease reply is not parsed and programmatic plans work.
 */
int runWorker(int fd, const WorkerOptions &opts,
              const TaskPlan *inherited);

} // namespace microlib

#endif // MICROLIB_SERVICE_WORKER_HH
