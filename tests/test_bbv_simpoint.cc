/** @file Unit tests for BBV profiling and SimPoint selection. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baseline_config.hh"

#include "trace/simpoint.hh"
#include "trace/spec_suite.hh"

using namespace microlib;

namespace
{

/** A two-phase program: streams, then pointer chase, alternating. */
SpecProgram
twoPhaseProgram()
{
    SpecProgram p;
    p.name = "twophase";
    p.seed = 5;
    p.nominal_length = 400'000;

    StreamKernel::Params sp;
    sp.base = heap_base;
    sp.bytes = 1 << 16;
    PointerChaseKernel::Params cp;
    cp.base = heap_base + (1 << 20);
    cp.node_bytes = 64;
    cp.node_count = 512;
    p.kernels = {
        [sp] {
            return std::unique_ptr<PatternKernel>(new StreamKernel(sp));
        },
        [cp] {
            return std::unique_ptr<PatternKernel>(
                new PointerChaseKernel(cp));
        },
    };
    p.segments = {{0, 50'000}, {1, 50'000}};
    p.loop_from = 0;
    return p;
}

} // namespace

TEST(Bbv, VectorsNormalized)
{
    const BbvProfile prof =
        collectBbv(twoPhaseProgram(), 200'000, 50'000);
    ASSERT_EQ(prof.vectors.size(), 4u);
    for (const auto &v : prof.vectors) {
        double sum = 0.0;
        for (const float x : v)
            sum += x;
        EXPECT_NEAR(sum, 1.0, 1e-3);
    }
}

TEST(Bbv, PhasesProduceDistinctVectors)
{
    const BbvProfile prof =
        collectBbv(twoPhaseProgram(), 200'000, 50'000);
    // Intervals 0/2 are phase A, 1/3 phase B: within-phase distance
    // must be far below cross-phase distance.
    const double same = bbvDistance(prof.vectors[0], prof.vectors[2]);
    const double cross = bbvDistance(prof.vectors[0], prof.vectors[1]);
    EXPECT_LT(same * 5, cross);
}

TEST(KMeans, SeparatesPhases)
{
    const BbvProfile prof =
        collectBbv(twoPhaseProgram(), 400'000, 50'000);
    const KMeansResult km = kMeans(prof.vectors, 2);
    // Alternating assignment pattern.
    for (std::size_t i = 2; i < prof.vectors.size(); ++i)
        EXPECT_EQ(km.assignment[i], km.assignment[i - 2]);
    EXPECT_NE(km.assignment[0], km.assignment[1]);
}

TEST(KMeans, Deterministic)
{
    const BbvProfile prof =
        collectBbv(twoPhaseProgram(), 400'000, 50'000);
    const KMeansResult a = kMeans(prof.vectors, 3);
    const KMeansResult b = kMeans(prof.vectors, 3);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, InertiaDecreasesWithK)
{
    const BbvProfile prof =
        collectBbv(specProgram("gcc"), 2'000'000, 200'000);
    const double i1 = kMeans(prof.vectors, 1).inertia;
    const double i4 = kMeans(prof.vectors, 4).inertia;
    EXPECT_LE(i4, i1 + 1e-9);
}

TEST(SimPoint, ChoiceInRange)
{
    const SimPointChoice sp =
        findSimPoint(twoPhaseProgram(), 50'000, 2);
    EXPECT_LT(sp.start_instruction, 400'000u);
    EXPECT_EQ(sp.start_instruction, sp.interval_index * 50'000);
    EXPECT_GT(sp.dominant_weight, 0.0);
    EXPECT_LE(sp.dominant_weight, 1.0);
}

TEST(SimPoint, Deterministic)
{
    const SimPointChoice a = findSimPoint(twoPhaseProgram(), 50'000, 2);
    const SimPointChoice b = findSimPoint(twoPhaseProgram(), 50'000, 2);
    EXPECT_EQ(a.start_instruction, b.start_instruction);
}

namespace
{

using GoldenStarts = std::vector<std::pair<std::string, std::uint64_t>>;

/**
 * Check every workload's SimPoint start against @p golden at one
 * interval length. Each choice profiles its benchmark's whole
 * nominal run, so the benchmarks are profiled a few at a time.
 */
void
expectSimPointStarts(const GoldenStarts &golden, std::uint64_t interval)
{
    std::vector<std::string> names = specBenchmarkNames();
    for (const std::string &extra : extraBenchmarkNames())
        names.push_back(extra);
    ASSERT_EQ(golden.size(), names.size());

    const TraceScale scale;
    std::vector<std::uint64_t> starts(names.size());
    std::atomic<std::size_t> next{0};
    const auto profile = [&] {
        for (std::size_t i; (i = next++) < names.size();)
            starts[i] = findSimPoint(specProgram(names[i]), interval,
                                     scale.simpoint_k)
                            .start_instruction;
    };
    std::vector<std::thread> threads;
    const unsigned n = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back(profile);
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(golden[i].first, names[i]);
        EXPECT_EQ(golden[i].second, starts[i]) << names[i];
    }
}

} // namespace

// The SimPoint window every sweep simulates, pinned per benchmark.
// Profiling, k-means or generator changes must leave these starts
// where they are (MICROLIB_QUICK divides the interval by 4).
TEST(SimPointGolden, QuickScaleStarts)
{
    const GoldenStarts golden = {
        {"ammp", 15375000},
        {"applu", 11625000},
        {"apsi", 10625000},
        {"art", 875000},
        {"equake", 13500000},
        {"facerec", 4250000},
        {"fma3d", 5125000},
        {"galgel", 14000000},
        {"lucas", 7125000},
        {"mesa", 6000000},
        {"mgrid", 1375000},
        {"sixtrack", 8000000},
        {"swim", 12000000},
        {"wupwise", 7875000},
        {"bzip2", 625000},
        {"crafty", 12875000},
        {"eon", 15375000},
        {"gap", 14500000},
        {"gcc", 12125000},
        {"gzip", 14000000},
        {"mcf", 4000000},
        {"parser", 15500000},
        {"perlbmk", 9500000},
        {"twolf", 1875000},
        {"vortex", 750000},
        {"vpr", 0},
        {"pchase", 15250000},
    };
    expectSimPointStarts(golden, TraceScale{}.simpoint_interval / 4);
}

// Run by the `slow`-labelled ctest entry test_bbv_simpoint_default_scale.
TEST(SimPointGolden, DefaultScaleStarts)
{
    const GoldenStarts golden = {
        {"ammp", 1000000},
        {"applu", 9000000},
        {"apsi", 11000000},
        {"art", 2000000},
        {"equake", 6500000},
        {"facerec", 9000000},
        {"fma3d", 5000000},
        {"galgel", 9000000},
        {"lucas", 7000000},
        {"mesa", 4500000},
        {"mgrid", 8000000},
        {"sixtrack", 5500000},
        {"swim", 1000000},
        {"wupwise", 6500000},
        {"bzip2", 4500000},
        {"crafty", 13000000},
        {"eon", 4500000},
        {"gap", 6000000},
        {"gcc", 1500000},
        {"gzip", 5000000},
        {"mcf", 3000000},
        {"parser", 15500000},
        {"perlbmk", 15000000},
        {"twolf", 11500000},
        {"vortex", 15000000},
        {"vpr", 13500000},
        {"pchase", 9500000},
    };
    expectSimPointStarts(golden, TraceScale{}.simpoint_interval);
}
