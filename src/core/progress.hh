/**
 * @file
 * Machine-readable sweep progress: one JSON object per line.
 *
 * Long sweeps — especially sharded ones running on other hosts —
 * need to be monitorable without scraping human log output. With
 * EngineOptions::progress_path set, every execution backend appends
 * one JSON line per event to that file (flushed per line, so `tail
 * -f` and remote pollers always see whole records):
 *
 *   {"event":"plan",...}      once per run(): totals, resumed/skipped
 *                             counts, the shard spec
 *   {"event":"heartbeat",...} per task, immediately BEFORE it
 *                             simulates: the flat task index about to
 *                             run (plus bench/mech). The liveness
 *                             signal supervised sharding tails — and
 *                             the blame evidence when the process
 *                             dies or wedges on that task
 *   {"event":"run",...}       per finished task: benchmark, mechanism,
 *                             per-benchmark and overall completed/total
 *                             counters, elapsed seconds, ETA seconds
 *   {"event":"bench",...}     when a benchmark's last pending task of
 *                             this process finishes
 *   {"event":"done",...}      once per run(): final counters,
 *                             quarantined/store_skipped included
 *
 * The supervising parent of a multi-process sweep adds worker
 * lifecycle events to ITS stream: "shard" (worker launched: pid,
 * attempt), "worker_stall" (heartbeat timeout: SIGKILL),
 * "worker_restart" (restart verdict: retries, backoff delay),
 * "quarantine" (a task excluded after repeated strikes) and
 * "shard_exit" (a worker finished).
 *
 * Each shard of a multi-process sweep writes its own stream (the
 * parent derives per-shard paths), so shards are monitored
 * independently. Progress output never feeds back into results: it
 * carries wall-clock times but the determinism contract is untouched.
 * Consumers must tolerate a torn final line — a writer can die
 * mid-write; core/supervisor.hh's ProgressFollower (which only ever
 * consumes completed lines) is the reference reader.
 */

#ifndef MICROLIB_CORE_PROGRESS_HH
#define MICROLIB_CORE_PROGRESS_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace microlib
{

/**
 * Builder for one JSON line: {"<key>":"<name>", fields...}. The one
 * line builder of the project: progress events lead with "event",
 * and the sweep service's wire protocol (service/protocol.hh) uses
 * the same builder with "cmd" for requests and "reply" for
 * responses, so a relayed progress line and a protocol line never
 * disagree about escaping.
 */
class ProgressEvent
{
  public:
    /** A progress event: {"event":"<name>", ...}. */
    explicit ProgressEvent(const std::string &name);
    /** A line led by @p key ("event", "cmd" or "reply"). */
    ProgressEvent(const char *key, const std::string &name);

    ProgressEvent &field(const char *key, const std::string &value);
    ProgressEvent &field(const char *key, const char *value);
    ProgressEvent &field(const char *key, std::uint64_t value);
    ProgressEvent &field(const char *key, double value);
    /** "key":[1,2,3] — task-index lists. */
    ProgressEvent &field(const char *key,
                         const std::vector<std::size_t> &values);

    /** The complete JSON object, closing brace included. */
    std::string str() const;

    /** JSON string escaping (quotes, backslash, control chars). */
    static std::string escape(const std::string &s);

  private:
    std::ostringstream _os;
};

/** Append-per-line JSONL progress stream; thread-safe, flushed per
 *  event. A default-constructed writer is disabled and write() is a
 *  no-op, so call sites never branch. Sinks to either a file (the
 *  classic tail-able stream) or a caller-owned fd (a service worker
 *  streaming events over its daemon socket — the same lines, the
 *  same whole-lines-only contract, a different transport). */
class ProgressWriter
{
  public:
    ProgressWriter() = default;

    /** Open (truncate) @p path; empty = disabled. Parent directories
     *  are created. */
    explicit ProgressWriter(const std::string &path);

    /** Write lines to @p fd (a connected socket or pipe). The fd is
     *  borrowed, never closed; a failed write disables the writer
     *  (the fd's owner learns of the hangup through its own I/O). */
    explicit ProgressWriter(int fd);

    ProgressWriter(const ProgressWriter &) = delete;
    ProgressWriter &operator=(const ProgressWriter &) = delete;

    bool enabled() const { return _out.is_open() || _fd >= 0; }

    void write(const ProgressEvent &event);

    /** Append one raw, already-formatted JSONL line (no newline).
     *  The daemon relays worker progress lines into its own stream
     *  through this — byte-identical passthrough, no re-encode. */
    void writeLine(const std::string &line);

  private:
    std::mutex _mu;
    std::ofstream _out;
    int _fd = -1;
};

} // namespace microlib

#endif // MICROLIB_CORE_PROGRESS_HH
