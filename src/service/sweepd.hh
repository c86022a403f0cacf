/**
 * @file
 * SweepService: the microlib_sweepd daemon core.
 *
 * A single-threaded poll(2) event loop over one listening socket
 * (unix:/path or host:port — service/net.hh) speaking the JSONL
 * protocol of service/protocol.hh. Everything the daemon knows is
 * composed from pieces that already existed and are unit-tested in
 * isolation:
 *
 *  - JobTable (service/job_table.hh): sweep-level and task-level
 *    dedup against the daemon's global ResultStore;
 *  - LeaseQueue (core/lease.hh): pull scheduling — workers ask,
 *    the daemon never pushes;
 *  - ProgressStreamFollower (core/supervisor.hh): per-connection
 *    JSONL reassembly; worker `event` lines relay into the daemon's
 *    own progress stream and their heartbeats become blame evidence;
 *  - SweepSupervisor (core/supervisor.hh): the PR-7 strike /
 *    quarantine policy, applied per job when a worker dies, stalls
 *    (no bytes for heartbeat_timeout while holding a lease) or
 *    completes a lease without producing a task's record.
 *
 * Workers send each finished record as a `record` line over their
 * connection; the daemon checks it (it parses, its task is leased to
 * that connection, its key is that task's) and stores it on receipt,
 * so it is the only writer of the store.
 *
 * Single-threaded on purpose: every transition — lease, record,
 * requeue, quarantine, eviction — is serialized by the loop, so the
 * daemon needs no locks and its state can never tear. Simulation
 * happens in workers; the daemon only moves and stores lines, so one
 * thread is plenty for the target scale (tens of workers). Blocking
 * replies to slow clients are accepted for the same reason
 * (documented in docs/SWEEP_SERVICE.md).
 *
 * The class is embeddable (tests run it on a thread and stop it with
 * requestStop()); tools/microlib_sweepd/main.cc is the thin CLI
 * wrapper that adds flags and signal handling.
 *
 * ProcessShardBackend embeds the same core without a listening
 * socket: it submits its TaskPlan in process, hands each forked
 * worker's end of a private socketpair to adoptWorker(), and drives
 * the loop with step(). Adopted workers are supervised per *slot*
 * (their connection id is the slot, so the retry budget survives a
 * restart), and every ruling on them is queued for the backend
 * (takeSlotVerdicts()), which owns the process-lifetime duties:
 * SIGKILL, reap, restart after the backoff, give up.
 */

#ifndef MICROLIB_SERVICE_SWEEPD_HH
#define MICROLIB_SERVICE_SWEEPD_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/supervisor.hh"
#include "service/job_table.hh"

namespace microlib
{

/** Daemon knobs (tools/microlib_sweepd flags map 1:1). */
struct SweepServiceOptions
{
    std::string listen;        ///< unix:/path or host:port
    std::string store_path;    ///< global result store (required)
    std::string progress_path; ///< daemon JSONL stream; "" = off

    /** Tasks per lease. Small keeps requeue loss on a worker death
     *  small; plan-order contiguity keeps trace sharing. */
    std::size_t lease_size = 4;

    /** Seconds without bytes from a lease-holding worker before it
     *  is declared stalled and cut; <= 0 disables (death detection
     *  via EOF still applies). */
    double heartbeat_timeout = 0.0;

    /** PR-7 strike policy (core/supervisor.hh). */
    std::size_t quarantine_strikes = 3;
    std::size_t max_worker_retries = 2;

    /** Serve cached results only: the store opens ReadOnly, submits
     *  needing execution are refused, workers are refused. */
    bool read_only = false;

    /** Completed jobs kept before oldest-first eviction. */
    std::size_t max_done_jobs = 64;
};

/** The daemon: construct, start(), run() until requestStop(). */
class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions opts);

    /** Embedded service: no listening socket and no start(); stores
     *  worker records in the caller's @p store and writes its own
     *  events to @p progress (nullptr = none). */
    SweepService(const SupervisionPolicy &policy, std::size_t lease_size,
                 ResultStore &store, ProgressWriter *progress);

    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Open the store and the listening socket. False + *error on
     *  failure (the caller exits exit_infrastructure). */
    bool start(std::string *error);

    /** The resolved listen address (host:0 -> the real port);
     *  valid after start(). */
    const std::string &address() const { return _address; }

    /** Event loop; returns the process exit code. Runs until
     *  requestStop() or a shutdown command. */
    int run();

    /** One loop turn: wait up to @p timeout_ms for input, serve
     *  every ready connection, cut lease holders silent past the
     *  heartbeat timeout, and reap closed connections. False when
     *  poll(2) itself failed. */
    bool step(int timeout_ms);

    /** Stop the loop from another thread or a signal handler. */
    void requestStop() { _stop.store(true); }

    /** Register @p plan as a job in process (embedded use): the plan
     *  never travels as spec text, so programmatic plans work. Tasks
     *  set in @p done are the caller's already. */
    const ServiceJob &submit(const TaskPlan &plan,
                             const std::vector<char> &done);

    /** Serve the connected socket @p fd (now owned) as the worker of
     *  slot @p slot; its progress events relay into @p relay
     *  (nullptr = dropped). */
    void adoptWorker(int fd, std::size_t slot, ProgressWriter *relay);

    /** A supervision ruling on an adopted worker. */
    struct SlotVerdict
    {
        std::size_t slot = 0;
        /** The connection is closed: the worker died or was cut for
         *  silence, so its process must be killed and reaped. */
        bool gone = false;
        SupervisionVerdict verdict;
    };

    /** Rulings on adopted workers since the last call, in order. */
    std::vector<SlotVerdict> takeSlotVerdicts();

    /** In a freshly forked child: close the inherited descriptors of
     *  every connection (the parent's ends of the siblings' sockets)
     *  without touching any other state. */
    void closeInheritedFds();

  private:
    struct Conn
    {
        int fd = -1;
        std::size_t id = 0;           ///< stable per-connection
        ProgressStreamFollower stream; ///< line reassembly + blame
        bool is_worker = false;        ///< sent a hello
        bool adopted = false;          ///< embedded slot worker
        ProgressWriter *relay = nullptr; ///< where its events go
        std::string name;              ///< worker display name
        std::string job_id;            ///< job of the current lease
        std::size_t lease_count = 0;   ///< tasks currently held
        /** Keys of records stored since the jobs last absorbed this
         *  connection's records (at complete, or when it dies). */
        std::vector<ResultKey> received;
        std::chrono::steady_clock::time_point last_activity;
        bool dead = false;             ///< reap after this loop turn
        bool cut = false;              ///< dead for heartbeat silence
    };

    std::string ownerKey(const Conn &c) const;

    void acceptNew();
    void handleLine(Conn &c, const std::string &line);
    void cmdSubmit(Conn &c, const std::string &line);
    void cmdStatus(Conn &c, const std::string &line);
    void cmdResult(Conn &c, const std::string &line);
    void cmdWorkers(Conn &c);
    void cmdHello(Conn &c, const std::string &line);
    void cmdLease(Conn &c);
    void cmdComplete(Conn &c, const std::string &line);
    void cmdRecord(Conn &c, const std::string &line);

    /** A dead worker held a lease (or was adopted): keep what it
     *  sent, requeue the rest, strike the blamed task. */
    void workerFailed(Conn &c);

    /** Rule on @p f under @p job's strike policy: log, execute a
     *  quarantine, queue the ruling if @p c is adopted. */
    void judge(ServiceJob &job, const Conn &c, const WorkerFailure &f,
               bool gone);

    /** Mark finished jobs and emit job_done for @p job if it just
     *  finished. @p job may be evicted: do not touch it after. */
    void settleJobs(ServiceJob &job);

    void statusReply(Conn &c, ServiceJob &job);
    bool send(Conn &c, const std::string &line);
    void progress(const ProgressEvent &ev);

    SweepServiceOptions _opts;
    SupervisionPolicy _policy;
    std::unique_ptr<ResultStore> _own_store;
    ResultStore *_store = nullptr;
    std::unique_ptr<ProgressWriter> _own_progress;
    ProgressWriter *_progress = nullptr;
    JobTable _jobs;
    std::list<Conn> _conns;
    std::vector<SlotVerdict> _slot_verdicts;
    std::string _embedded_job; ///< submit(plan)'s job id
    int _listen_fd = -1;
    std::string _address;
    std::size_t _next_conn_id = 0;
    std::atomic<bool> _stop{false};
};

} // namespace microlib

#endif // MICROLIB_SERVICE_SWEEPD_HH
