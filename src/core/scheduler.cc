#include "core/scheduler.hh"

#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/thread_pool_backend.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"

namespace microlib
{

namespace
{

/** Effective trace-cache budget: the explicit option, else the
 *  MICROLIB_TRACE_BUDGET_MB environment knob, else unlimited. */
std::size_t
resolveTraceBudget(const EngineOptions &opts)
{
    if (opts.trace_budget_bytes)
        return opts.trace_budget_bytes;
    const char *env = std::getenv("MICROLIB_TRACE_BUDGET_MB");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    const unsigned long long mb = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
        warn("ignoring malformed MICROLIB_TRACE_BUDGET_MB=", env);
        return 0;
    }
    return static_cast<std::size_t>(mb) * 1024 * 1024;
}

/** Effective arena directory: the explicit option, else the
 *  MICROLIB_TRACE_DIR environment knob, else none. */
std::string
resolveTraceDir(const EngineOptions &opts)
{
    if (!opts.trace_dir.empty())
        return opts.trace_dir;
    const char *env = std::getenv("MICROLIB_TRACE_DIR");
    return (env && *env) ? std::string(env) : std::string();
}

} // namespace

ExperimentEngine::ExperimentEngine(EngineOptions opts)
    : _opts(opts),
      _pool((opts.threads ? opts.threads
                          : ThreadPool::defaultThreadCount()) - 1)
{
    if (_opts.shard.count == 0)
        fatal("EngineOptions::shard.count must be >= 1");
    if (_opts.shard.index >= _opts.shard.count)
        fatal("EngineOptions::shard.index ", _opts.shard.index,
              " out of range for ", _opts.shard.count, " shard(s)");
    _cache.setByteBudget(resolveTraceBudget(_opts));
    _opts.trace_dir = resolveTraceDir(opts);
    if (!_opts.trace_dir.empty())
        _cache.setArena(
            std::make_shared<TraceArena>(_opts.trace_dir));
}

ExperimentEngine::~ExperimentEngine() = default;

std::string
ExperimentEngine::traceKey(const std::string &benchmark,
                           const RunConfig &cfg)
{
    return traceCacheKey(benchmark, cfg);
}

std::shared_ptr<const MaterializedTrace>
ExperimentEngine::materializeInto(TraceCache &cache,
                                  const std::string &key,
                                  const std::string &benchmark,
                                  const RunConfig &cfg,
                                  TraceOrigin *origin)
{
    if (origin)
        *origin = TraceOrigin::Generated;
    try {
        // Tier 2 first: an arena hit carries its resolved window, so
        // it skips SimPoint BBV profiling along with generation.
        const std::shared_ptr<TraceArena> arena = cache.arena();
        if (arena) {
            if (auto mapped = arena->tryLoad(key)) {
                if (origin)
                    *origin = TraceOrigin::Mapped;
                return cache.fulfill(key, std::move(*mapped));
            }
        }
        TraceWindow window;
        if (cfg.selection == TraceSelection::SimPoint) {
            // The process-wide cache, not the engine's: SimPoint
            // choices are pure (benchmark, interval, k) functions and
            // expensive, so one-shot engines must not recompute what
            // an earlier engine already profiled.
            const SimPointChoice sp = TraceCache::process().simPoint(
                benchmark, cfg.scale.simpoint_interval,
                cfg.scale.simpoint_k);
            window.skip = sp.start_instruction;
            window.length = cfg.scale.simpoint_trace;
        } else {
            window.skip = cfg.scale.arbitrary_skip;
            window.length = cfg.scale.arbitrary_length;
        }
        MaterializedTrace trace =
            materialize(specProgram(benchmark), window);
        if (arena && arena->publish(key, trace)) {
            // Swap the heap copy for a mapping of the file we just
            // published: frees ~all of the trace's owned bytes and
            // joins the directory-wide shared page-cache copy. Still
            // src=gen — this process paid for the generation.
            if (auto mapped = arena->tryLoad(key))
                return cache.fulfill(key, std::move(*mapped));
        }
        // Return fulfill()'s own pointer: under a byte budget the
        // entry can be evicted the moment it lands, so re-looking
        // the key up (wait()) could panic on an unclaimed key.
        return cache.fulfill(key, std::move(trace));
    } catch (...) {
        cache.fail(key, std::current_exception());
        throw;
    }
}

std::shared_ptr<const MaterializedTrace>
ExperimentEngine::trace(const std::string &benchmark,
                        const RunConfig &cfg)
{
    const std::string key = traceKey(benchmark, cfg);
    TraceCache::Future fut;
    if (_cache.claim(key, fut) == TraceCache::Claim::Owner)
        return materializeInto(_cache, key, benchmark, cfg);
    return fut.get();
}

PrewarmCounts
ExperimentEngine::prewarm(const TaskPlan &plan)
{
    if (!_cache.arena())
        throw std::invalid_argument(
            "prewarm needs a trace arena (trace_dir or "
            "MICROLIB_TRACE_DIR)");
    // One representative task per trace slot (slots deduplicate
    // benchmark x window across mechanisms and variants).
    std::vector<std::size_t> rep(plan.traceSlotCount(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        std::size_t &r = rep[plan.traceSlot(i)];
        if (r == plan.size())
            r = i;
    }

    std::mutex mu;
    std::size_t next = 0;
    PrewarmCounts counts;
    std::exception_ptr error;
    const auto drain = [&] {
        for (;;) {
            std::size_t slot = 0;
            {
                std::unique_lock<std::mutex> lock(mu);
                if (error || next == rep.size())
                    return; // done, or a sibling failed
                slot = next++;
            }
            const PlanTask &t = plan.task(rep[slot]);
            const std::string &key = plan.slotKey(slot);
            TraceCache::Future fut;
            if (_cache.claim(key, fut) != TraceCache::Claim::Owner)
                continue; // this engine already holds the window
            TraceOrigin origin = TraceOrigin::Generated;
            materializeInto(_cache, key, plan.benchmarks()[t.b],
                            plan.config(t.v), &origin);
            // Release at once: prewarm only needs the file on disk,
            // not a resident copy of every window.
            _cache.evict(key);
            std::unique_lock<std::mutex> lock(mu);
            ++(origin == TraceOrigin::Mapped ? counts.present
                                             : counts.generated);
        }
    };
    // Failures are captured, never thrown across the pool: every
    // worker must come home before the locals above leave scope.
    const auto guarded = [&] {
        try {
            drain();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mu);
            if (!error)
                error = std::current_exception();
        }
    };
    for (unsigned t = 0; t < _pool.size(); ++t)
        _pool.submit(guarded);
    guarded(); // the calling thread is worker zero
    _pool.wait();
    if (error)
        std::rethrow_exception(error);
    return counts;
}

SweepResult
ExperimentEngine::run(const SweepSpec &spec)
{
    return runPlan(TaskPlan(spec));
}

MatrixResult
ExperimentEngine::run(const std::vector<std::string> &mechanisms,
                      const std::vector<std::string> &benchmarks,
                      const RunConfig &cfg)
{
    SweepResult res =
        runPlan(TaskPlan(mechanisms, benchmarks, cfg));
    return std::move(res.matrices.front());
}

SweepResult
ExperimentEngine::runPlan(const TaskPlan &plan)
{
    _last = RunCounters{};
    SweepResult res = plan.emptyResult();
    if (plan.empty())
        return res;

    // Resume pass (plan logic): pre-fill every slot whose
    // fingerprint already has a record, shard membership
    // notwithstanding — a resumed slot is free no matter who ran it.
    // A benchmark whose tasks all resume is never materialized.
    std::vector<char> done(plan.size(), 0);
    if (_opts.store) {
        _last.resumed = plan.prefill(*_opts.store, res, done);
        if (_opts.verbose && _last.resumed)
            inform("resumed ", _last.resumed, "/", plan.size(),
                   " runs from ", _opts.store->path().empty()
                                      ? "<memory store>"
                                      : _opts.store->path());
    }

    ProgressWriter progress(_opts.progress_path);
    const ExecutionContext ctx{*this, _opts,
                               progress.enabled() ? &progress
                                                  : nullptr};
    ThreadPoolBackend builtin;
    ExecutionBackend *backend =
        _opts.backend ? _opts.backend : &builtin;

    if (progress.enabled()) {
        const std::size_t pending =
            plan.pendingTasks(done, _opts.shard).size();
        progress.write(ProgressEvent("plan")
                           .field("backend", backend->name())
                           .field("shard", _opts.shard.str())
                           .field("total", plan.size())
                           .field("pending", pending)
                           .field("resumed", _last.resumed)
                           .field("benchmarks",
                                  plan.benchmarks().size())
                           .field("mechanisms",
                                  plan.mechanisms().size())
                           .field("variants", plan.variantCount()));
    }

    backend->execute(plan, done, ctx, res, _last);
    // Cumulative unreadable-line count across this store's loads and
    // merges — the durability telemetry behind the checksum field.
    if (_opts.store)
        _last.store_skipped = _opts.store->unreadable();

    if (progress.enabled())
        progress.write(ProgressEvent("done")
                           .field("backend", backend->name())
                           .field("shard", _opts.shard.str())
                           .field("executed", _last.executed)
                           .field("resumed", _last.resumed)
                           .field("skipped", _last.skipped)
                           .field("quarantined",
                                  _last.quarantined.size())
                           .field("store_skipped",
                                  _last.store_skipped));
    return res;
}

} // namespace microlib
