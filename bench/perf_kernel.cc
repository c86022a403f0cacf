/**
 * @file
 * Simulator-kernel micro-benchmarks (engineering health, not a paper
 * figure): throughput of the cache model, DRAM model, trace
 * generator and the full simulation loop, via google-benchmark.
 *
 * The binary records the perf trajectory: unless the caller passes
 * --benchmark_out, results are written as JSON to BENCH_kernel.json
 * (override the path with MICROLIB_BENCH_OUT). Allocation-sensitive
 * benchmarks report an `allocs_per_iter` counter measured through an
 * instrumented global operator new, so "the miss path never
 * heap-allocates" is an asserted number, not a code-review claim.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/baseline_config.hh"
#include "core/registry.hh"
#include "core/scheduler.hh"
#include "cpu/ooo_core.hh"
#include "mem/const_memory.hh"
#include "mem/hierarchy.hh"
#include "sim/random.hh"
#include "trace/generator.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"
#include "trace/window.hh"

using namespace microlib;

// ---------------------------------------------------------------------
// Allocation instrumentation: every path through global operator new
// bumps a thread-local counter. Benchmarks snapshot the counter around
// their measurement loop to report allocations per iteration.

namespace
{
thread_local std::uint64_t t_alloc_count = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_alloc_count;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++t_alloc_count;
    if (void *p = std::aligned_alloc(align, ((size + align - 1) / align) * align))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams p;
    p.name = "bm";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 1;
    Cache cache(p, nullptr, nullptr);
    Rng rng(7);
    Cycle t = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.nextBounded(1 << 20) * 8;
        req.kind = AccessKind::DemandRead;
        req.when = ++t;
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheInstall(benchmark::State &state)
{
    // Every access conflicts in one set of a 4-way cache: miss,
    // evict a dirty victim, write it back, install — the complete
    // miss path. The allocs_per_iter counter must read 0.000: the
    // occupancy-mask victim(), the hoisted writeback request and the
    // fixed MSHR/port schedules leave nothing to heap-allocate.
    CacheParams p;
    p.name = "bm_install";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 4;
    ConstMemory mem(70);
    Cache cache(p, &mem, nullptr);
    const std::uint64_t set_stride = p.line * cache.sets();

    MemRequest req;
    req.kind = AccessKind::DemandWrite; // dirty installs -> writebacks
    std::uint64_t i = 0;
    Cycle t = 0;
    // Mark the counter at iteration boundaries so the delta covers
    // exactly the measured accesses, not the harness's own loop
    // bookkeeping (which allocates at teardown).
    std::uint64_t start_allocs = 0, end_allocs = 0;
    std::uint64_t counted_iters = 0;
    bool first = true;
    for (auto _ : state) {
        if (first) {
            start_allocs = end_allocs = t_alloc_count;
            first = false;
        } else {
            end_allocs = t_alloc_count;
            ++counted_iters;
        }
        req.addr = (i++ % 16) * set_stride; // 16 tags, 4 ways: all miss
        req.when = (t += 100);
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["allocs_per_iter"] =
        counted_iters ? static_cast<double>(end_allocs - start_allocs) /
                            static_cast<double>(counted_iters)
                      : 0.0;
}
BENCHMARK(BM_CacheInstall);

/** Minimal client: one virtual hop, the cost under measurement. */
struct CountingClient final : public HierarchyClient
{
    std::uint64_t events = 0;

    void
    cacheAccess(CacheLevel, const MemRequest &, bool, bool) override
    {
        ++events;
    }
};

void
BM_HookDispatch(benchmark::State &state)
{
    // Pure hit stream through the L1 demand path. Arg(0) runs with no
    // client bound (the shim's null check folds to nothing); Arg(1)
    // binds a client, adding the single devirtualized-shim-to-client
    // call per access that replaced the seed's two-deep virtual chain.
    CacheParams p;
    p.name = "bm_hooks";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 1;
    Cache cache(p, nullptr, nullptr);
    CountingClient client;
    if (state.range(0))
        cache.bindClient(&client, CacheLevel::L1D, nullptr);

    // Warm every line once so the measured loop only hits.
    MemRequest req;
    req.kind = AccessKind::DemandRead;
    for (std::uint64_t a = 0; a < p.size; a += p.line) {
        req.addr = a;
        cache.access(req);
    }
    std::uint64_t i = 0;
    Cycle t = 0;
    for (auto _ : state) {
        req.addr = (i++ % 1024) * p.line;
        req.when = (t += 4);
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
    if (state.range(0))
        benchmark::DoNotOptimize(client.events);
}
BENCHMARK(BM_HookDispatch)->Arg(0)->Arg(1);

void
BM_SdramAccess(benchmark::State &state)
{
    SdramParams p;
    Bus fsb(BusParams{"bm_fsb", 64, 5});
    Sdram dram(p, &fsb);
    Rng rng(7);
    Cycle t = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.nextBounded(1 << 22) * 64;
        req.kind = AccessKind::DemandRead;
        req.when = (t += 50);
        benchmark::DoNotOptimize(dram.access(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SdramAccess);

void
BM_TraceGeneration(benchmark::State &state)
{
    SpecGenerator gen(specProgram("swim"));
    TraceRecord rec;
    for (auto _ : state) {
        gen.next(rec);
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_FullSimulation(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);
    const BaselineConfig cfg = makeBaseline();
    for (auto _ : state) {
        Hierarchy hier(cfg.hier, trace.image);
        OoOCore core(cfg.core);
        benchmark::DoNotOptimize(core.run(trace.view(), hier));
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}
BENCHMARK(BM_FullSimulation);

// --- AoS seed loop vs the SoA block loop, same trace, same host. ---
//
// BM_TraceAoSRun drives the preserved record-at-a-time reference loop
// over the AoS records; BM_TraceViewRun drives the block-based SoA
// hot path over the prebuilt TraceView. items_per_second is
// instructions simulated per second; the ratio of the two is the
// hot-path speedup and both land in BENCH_kernel.json, so the perf
// trajectory records it per commit.

void
BM_TraceAoSRun(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);
    const BaselineConfig cfg = makeBaseline();
    for (auto _ : state) {
        Hierarchy hier(cfg.hier, trace.image);
        OoOCore core(cfg.core);
        benchmark::DoNotOptimize(
            core.runReference(trace.records, hier));
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}
BENCHMARK(BM_TraceAoSRun);

void
BM_TraceViewRun(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);
    const BaselineConfig cfg = makeBaseline();
    bool counted = false;
    for (auto _ : state) {
        Hierarchy hier(cfg.hier, trace.image);
        OoOCore core(cfg.core);
        // run_allocs counts heap activity of one full 200k-record
        // run() call (hierarchy/core construction excluded): the SoA
        // loop and the miss path beneath it should report 0.
        const std::uint64_t before = t_alloc_count;
        benchmark::DoNotOptimize(core.run(trace.view(), hier));
        if (!counted) {
            state.counters["run_allocs"] =
                static_cast<double>(t_alloc_count - before);
            counted = true;
        }
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}
BENCHMARK(BM_TraceViewRun);

// --- Trace arena: cold generation vs warm mmap'd load. ---
//
// BM_TraceArenaColdWarm/0 materializes a 200k-record window from
// scratch every iteration (the cold path every process used to pay);
// /1 loads the same window from a pre-published arena file — open,
// mmap, validate checksum, rebuild the image, borrow the columns.
// items_per_second of /1 over /0 is the warm-start speedup CI tracks
// (it must stay >= 5x). The warm case also reports run_allocs of one
// full simulated run over the *mapped* columns: the borrowed-span
// hot path must stay allocation-free exactly like the owned one.

void
BM_TraceArenaColdWarm(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const std::string key = "bench-arena-key";
    const bool warm = state.range(0) != 0;
    const BaselineConfig cfg = makeBaseline();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "microlib_bench_arena")
            .string();

    if (warm) {
        std::filesystem::remove_all(dir);
        TraceArena setup(dir);
        setup.publish(key, materialize(specProgram("crafty"), window));
    }
    TraceArena arena(dir);

    bool counted = false;
    for (auto _ : state) {
        if (warm) {
            auto trace = arena.tryLoad(key);
            if (!trace) {
                state.SkipWithError("arena load failed");
                break;
            }
            benchmark::DoNotOptimize(trace->view().pc);
            if (!counted) {
                counted = true;
                state.PauseTiming();
                Hierarchy hier(cfg.hier, trace->image);
                OoOCore core(cfg.core);
                const std::uint64_t before = t_alloc_count;
                benchmark::DoNotOptimize(
                    core.run(trace->view(), hier));
                state.counters["run_allocs"] =
                    static_cast<double>(t_alloc_count - before);
                state.ResumeTiming();
            }
        } else {
            const MaterializedTrace trace =
                materialize(specProgram("crafty"), window);
            benchmark::DoNotOptimize(trace.view().pc);
        }
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}
BENCHMARK(BM_TraceArenaColdWarm)->Arg(0)->Arg(1);

// --- Matrix scheduling: the engine over a small matrix. ---
//
// One ExperimentEngine work queue and persistent pool over a
// 4 x 4 matrix of 100k-instruction windows, at 1, 4 and 8 workers.

const std::vector<std::string> matrix_mechs = {"Base", "TP", "SP",
                                               "GHB"};
const std::vector<std::string> matrix_benchs = {"swim", "mcf",
                                                "crafty", "gzip"};

RunConfig
matrixConfig()
{
    RunConfig cfg;
    cfg.selection = TraceSelection::Arbitrary;
    cfg.scale.arbitrary_skip = 0;
    cfg.scale.arbitrary_length = 100'000;
    return cfg;
}

void
BM_MatrixEngine(benchmark::State &state)
{
    const RunConfig cfg = matrixConfig();
    EngineOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    opts.keep_traces = false; // drop each trace after its last run
    ExperimentEngine engine(opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.run(matrix_mechs, matrix_benchs, cfg));
    state.SetItemsProcessed(state.iterations() * matrix_mechs.size() *
                            matrix_benchs.size());
}
BENCHMARK(BM_MatrixEngine)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Not BENCHMARK_MAIN(): unless the caller chose an output file, the
// run is recorded to BENCH_kernel.json (JSON) so every invocation —
// local or CI — appends a point to the tracked perf trajectory.
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        // Exact flag only: --benchmark_out_format alone must not
        // suppress the default output file.
        if (arg == "--benchmark_out" ||
            arg.rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    }
    std::string out_flag, fmt_flag;
    if (!has_out) {
        const char *path = std::getenv("MICROLIB_BENCH_OUT");
        out_flag = std::string("--benchmark_out=") +
                   (path ? path : "BENCH_kernel.json");
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    // The stock library_build_type context key reflects how
    // *libbenchmark* was compiled (the distro package ships without
    // NDEBUG, so it always says "debug"). Numbers depend on how
    // *this* binary was compiled, so stamp that under a distinct
    // name: emitting a duplicate library_build_type made the JSON
    // ambiguous (duplicate keys, parser-dependent winner). CI rejects
    // a BENCH_kernel.json whose microlib_build_type is not "release".
#ifdef NDEBUG
    benchmark::AddCustomContext("microlib_build_type", "release");
#else
    benchmark::AddCustomContext("microlib_build_type", "debug");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
