/** @file ExperimentEngine scheduler tests: determinism across worker
 *  counts, trace sharing across matrices, and the compatibility
 *  wrapper. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "sim/logging.hh"

using namespace microlib;

namespace
{

RunConfig
quickConfig()
{
    RunConfig cfg;
    cfg.scale.simpoint_trace = 100'000;
    cfg.scale.simpoint_interval = 100'000;
    cfg.scale.arbitrary_skip = 50'000;
    cfg.scale.arbitrary_length = 100'000;
    return cfg;
}

MatrixResult
runWithThreads(unsigned threads, const RunConfig &cfg)
{
    EngineOptions opts;
    opts.threads = threads;
    ExperimentEngine engine(opts);
    return engine.run({"Base", "TP", "SP", "GHB"},
                      {"swim", "gzip", "crafty"}, cfg);
}

/** Three benchmarks x two mechanisms x three L2-size variants, all
 *  variants sharing one trace slot per benchmark. */
SweepResult
runVariantsWithThreads(unsigned threads)
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse("sweep-spec v1\n"
                          "bench swim gzip mcf\n"
                          "mech Base TP\n"
                          "base window.trace_length=100000\n"
                          "base window.interval=100000\n"
                          "axis hier.l2.size 256k 512k 1M\n",
                          spec, &error))
        ADD_FAILURE() << error;
    EngineOptions opts;
    opts.threads = threads;
    ExperimentEngine engine(opts);
    return engine.run(spec);
}

/** Full bit-identity: IPC matrix and every per-run stat snapshot. */
void
expectIdentical(const MatrixResult &a, const MatrixResult &b)
{
    ASSERT_EQ(a.mechanisms, b.mechanisms);
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        for (std::size_t bi = 0; bi < a.benchmarks.size(); ++bi) {
            // Exact equality, not near-equality: scheduling order
            // must never leak into results.
            EXPECT_EQ(a.ipc[m][bi], b.ipc[m][bi])
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(a.outputs[m][bi].stats, b.outputs[m][bi].stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(a.outputs[m][bi].benchmark, a.benchmarks[bi]);
            EXPECT_EQ(a.outputs[m][bi].mechanism, a.mechanisms[m]);
        }
    }
}

} // namespace

TEST(Scheduler, BitIdenticalAcrossWorkerCounts)
{
    const RunConfig cfg = quickConfig();
    const MatrixResult serial = runWithThreads(1, cfg);
    const MatrixResult four = runWithThreads(4, cfg);
    const MatrixResult eight = runWithThreads(8, cfg);
    expectIdentical(serial, four);
    expectIdentical(serial, eight);

    // Multi-variant: the variants of each benchmark share its trace
    // and race for it across workers; every variant matrix stays
    // bit-identical.
    const SweepResult serial_sweep = runVariantsWithThreads(1);
    ASSERT_EQ(serial_sweep.matrices.size(), 3u);
    for (const unsigned threads : {4u, 8u}) {
        const SweepResult sweep = runVariantsWithThreads(threads);
        ASSERT_EQ(sweep.variants, serial_sweep.variants);
        for (std::size_t v = 0; v < sweep.matrices.size(); ++v)
            expectIdentical(serial_sweep.matrices[v],
                            sweep.matrices[v]);
    }
}

TEST(Scheduler, RunMatrixHonorsThreadsEnv)
{
    const RunConfig cfg = quickConfig();
    setenv("MICROLIB_THREADS", "1", 1);
    const MatrixResult serial =
        runMatrix({"Base", "GHB"}, {"swim", "mcf"}, cfg);
    setenv("MICROLIB_THREADS", "8", 1);
    const MatrixResult parallel =
        runMatrix({"Base", "GHB"}, {"swim", "mcf"}, cfg);
    unsetenv("MICROLIB_THREADS");
    expectIdentical(serial, parallel);
}

TEST(Scheduler, EngineReuseAcrossMatrices)
{
    const RunConfig cfg = quickConfig();
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);

    const MatrixResult first =
        engine.run({"Base", "TP"}, {"swim", "gzip"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 2u);

    // A second matrix over the same windows reuses both traces...
    const MatrixResult second =
        engine.run({"Base", "SP"}, {"swim", "gzip"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 2u);

    // ...and sees the exact same baseline numbers.
    for (std::size_t b = 0; b < 2; ++b)
        EXPECT_EQ(first.ipc[0][b], second.ipc[0][b]);
}

TEST(Scheduler, ConfigsWithSameWindowShareTraces)
{
    // Figure 9's setup: finite vs infinite MSHR differ only in the
    // system config, so both matrices must share one trace per
    // benchmark.
    const RunConfig finite = quickConfig();
    RunConfig infinite = quickConfig();
    infinite.system.hier.l1d.finite_mshr = false;
    infinite.system.hier.l1i.finite_mshr = false;
    infinite.system.hier.l2.finite_mshr = false;

    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    engine.run({"Base", "TK"}, {"swim"}, finite);
    engine.run({"Base", "TK"}, {"swim"}, infinite);
    EXPECT_EQ(engine.cache().traceCount(), 1u);

    // Different windows do make a new entry.
    RunConfig other = quickConfig();
    other.selection = TraceSelection::Arbitrary;
    engine.run({"Base"}, {"swim"}, other);
    EXPECT_EQ(engine.cache().traceCount(), 2u);
}

TEST(Scheduler, OneShotModeEvictsTraces)
{
    const RunConfig cfg = quickConfig();
    EngineOptions opts;
    opts.threads = 2;
    opts.keep_traces = false;
    ExperimentEngine engine(opts);
    const MatrixResult res =
        engine.run({"Base", "TP"}, {"swim", "gzip"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 0u);
    for (const auto &row : res.ipc)
        for (const double ipc : row)
            EXPECT_GT(ipc, 0.0);
}

TEST(Scheduler, TraceEndpointSharesWithMatrixRuns)
{
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{1, false, true});
    const auto direct = engine.trace("swim", cfg);
    engine.run({"Base"}, {"swim"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 1u);
    const auto again = engine.trace("swim", cfg);
    EXPECT_EQ(direct.get(), again.get());
}

TEST(Scheduler, EmptyMatrixIsFine)
{
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{2, false, true});
    const MatrixResult no_mechs = engine.run({}, {"swim"}, cfg);
    EXPECT_TRUE(no_mechs.ipc.empty());
    const MatrixResult no_benchs = engine.run({"Base"}, {}, cfg);
    ASSERT_EQ(no_benchs.ipc.size(), 1u);
    EXPECT_TRUE(no_benchs.ipc[0].empty());
}

TEST(Scheduler, MatchesStandaloneRunOne)
{
    // The engine must produce exactly what a hand-rolled
    // materializeFor + runOne produces: same traces, same numbers.
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{4, false, true});
    const MatrixResult res =
        engine.run({"Base", "GHB"}, {"crafty"}, cfg);
    const MaterializedTrace trace = materializeFor("crafty", cfg);
    EXPECT_EQ(res.ipc[0][0], runOne(trace, "Base", cfg).ipc());
    EXPECT_EQ(res.ipc[1][0], runOne(trace, "GHB", cfg).ipc());
}
