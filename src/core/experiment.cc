#include "core/experiment.hh"

#include <algorithm>

#include "core/scheduler.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_cache.hh"

namespace microlib
{

double
RunOutput::stat(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
}

std::string
windowKey(const RunConfig &cfg)
{
    std::string key;
    if (cfg.selection == TraceSelection::SimPoint) {
        key += "sp";
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_interval);
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_k);
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_trace);
    } else {
        key += "arb";
        key += '\0';
        key += std::to_string(cfg.scale.arbitrary_skip);
        key += '\0';
        key += std::to_string(cfg.scale.arbitrary_length);
    }
    return key;
}

MaterializedTrace
materializeFor(const std::string &benchmark, const RunConfig &cfg)
{
    TraceWindow window;
    if (cfg.selection == TraceSelection::SimPoint) {
        // Mutex-guarded process-wide cache: the old bare map here
        // raced when runMatrix() workers materialized concurrently.
        const SimPointChoice sp = TraceCache::process().simPoint(
            benchmark, cfg.scale.simpoint_interval,
            cfg.scale.simpoint_k);
        window.skip = sp.start_instruction;
        window.length = cfg.scale.simpoint_trace;
    } else {
        window.skip = cfg.scale.arbitrary_skip;
        window.length = cfg.scale.arbitrary_length;
    }
    return materialize(specProgram(benchmark), window);
}

RunOutput
runOne(const MaterializedTrace &trace, const std::string &mechanism,
       const RunConfig &cfg)
{
    RunOutput out;
    out.benchmark = trace.benchmark;
    out.mechanism = mechanism;

    Hierarchy hier(cfg.system.hier, trace.image);
    std::unique_ptr<CacheMechanism> mech =
        makeMechanism(mechanism, cfg.mech);

    StatSet stats;
    hier.registerStats(stats);
    if (mech) {
        mech->bind(hier);
        mech->registerStats(stats);
        hier.setClient(mech.get());
        out.hardware = mech->hardware();
    }

    OoOCore core(cfg.system.core);
    out.core = core.run(trace.view(), hier);

    stats.snapshot(out.stats);
    return out;
}

void
MatrixResult::buildIndices()
{
    _mech_index.clear();
    _mech_index.reserve(mechanisms.size());
    for (std::size_t i = 0; i < mechanisms.size(); ++i)
        _mech_index.emplace(mechanisms[i], i);
    _bench_index.clear();
    _bench_index.reserve(benchmarks.size());
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        _bench_index.emplace(benchmarks[i], i);
}

std::size_t
MatrixResult::mechIndex(const std::string &name) const
{
    if (!_mech_index.empty()) {
        auto it = _mech_index.find(name);
        if (it != _mech_index.end())
            return it->second;
    } else {
        // Hand-assembled result without buildIndices(): stay correct.
        auto it = std::find(mechanisms.begin(), mechanisms.end(), name);
        if (it != mechanisms.end())
            return static_cast<std::size_t>(it - mechanisms.begin());
    }
    fatal("mechanism not in matrix: ", name);
}

std::size_t
MatrixResult::benchIndex(const std::string &name) const
{
    if (!_bench_index.empty()) {
        auto it = _bench_index.find(name);
        if (it != _bench_index.end())
            return it->second;
    } else {
        auto it = std::find(benchmarks.begin(), benchmarks.end(), name);
        if (it != benchmarks.end())
            return static_cast<std::size_t>(it - benchmarks.begin());
    }
    fatal("benchmark not in matrix: ", name);
}

double
MatrixResult::speedup(std::size_t m, std::size_t b) const
{
    const std::size_t base = mechIndex("Base");
    const double base_ipc = ipc[base][b];
    if (base_ipc <= 0.0)
        return 1.0;
    return ipc[m][b] / base_ipc;
}

double
MatrixResult::avgSpeedup(std::size_t m,
                         const std::vector<std::size_t> &subset) const
{
    std::vector<std::size_t> idx = subset;
    if (idx.empty()) {
        idx.resize(benchmarks.size());
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            idx[b] = b;
    }
    double sum = 0.0;
    for (const std::size_t b : idx)
        sum += speedup(m, b);
    return idx.empty() ? 1.0 : sum / static_cast<double>(idx.size());
}

MatrixResult
runMatrix(const std::vector<std::string> &mechanisms,
          const std::vector<std::string> &benchmarks,
          const RunConfig &cfg, bool verbose)
{
    EngineOptions opts;
    opts.verbose = verbose;
    opts.keep_traces = false; // one-shot: the old memory profile
    ExperimentEngine engine(opts);
    return engine.run(mechanisms, benchmarks, cfg);
}

} // namespace microlib
