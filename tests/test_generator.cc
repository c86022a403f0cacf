/** @file Unit tests for the trace generator. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/generator.hh"
#include "trace/spec_suite.hh"
#include "trace/window.hh"

using namespace microlib;

namespace
{

SpecProgram
tinyProgram()
{
    SpecProgram p;
    p.name = "tiny";
    p.seed = 99;
    p.mem_ratio = 0.4;
    p.stack_frac = 0.5;
    StreamKernel::Params sp;
    sp.base = heap_base;
    sp.bytes = 1 << 16;
    sp.stride = 8;
    p.kernels = {[sp] {
        return std::unique_ptr<PatternKernel>(new StreamKernel(sp));
    }};
    p.segments = {{0, 100'000}};
    p.nominal_length = 200'000;
    return p;
}

} // namespace

TEST(Generator, Deterministic)
{
    SpecGenerator a(tinyProgram()), b(tinyProgram());
    TraceRecord ra, rb;
    for (int i = 0; i < 50000; ++i) {
        a.next(ra);
        b.next(rb);
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
        ASSERT_EQ(ra.value, rb.value);
    }
}

TEST(Generator, ResetRestartsExactly)
{
    SpecGenerator gen(tinyProgram());
    std::vector<TraceRecord> first(1000);
    for (auto &r : first)
        gen.next(r);
    gen.reset();
    TraceRecord r;
    for (const auto &expect : first) {
        gen.next(r);
        ASSERT_EQ(r.pc, expect.pc);
        ASSERT_EQ(r.addr, expect.addr);
    }
}

TEST(Generator, MemRatioConverges)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    int mem = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        gen.next(r);
        mem += r.isMem() ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(mem) / n, 0.4, 0.05);
}

TEST(Generator, LoadsCarryImageValues)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    for (int i = 0; i < 10000; ++i) {
        gen.next(r);
        if (r.isLoad()) {
            EXPECT_EQ(r.value, gen.image().read(r.addr))
                << "load value must match the functional image";
        }
    }
}

TEST(Generator, StoresUpdateImage)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    bool found = false;
    for (int i = 0; i < 20000 && !found; ++i) {
        gen.next(r);
        if (r.isStore()) {
            EXPECT_EQ(gen.image().read(r.addr), r.value);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Generator, StableMemSitePcs)
{
    // All loads of one static site must share a PC (PC-indexed
    // mechanisms depend on it): count distinct load PCs; it must be
    // small (sites x spread), not grow with the trace.
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    std::set<std::uint32_t> pcs;
    for (int i = 0; i < 100000; ++i) {
        gen.next(r);
        if (r.isMem())
            pcs.insert(r.pc);
    }
    EXPECT_LT(pcs.size(), 64u);
}

TEST(Generator, StackReferencesAreLocal)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    int stack_refs = 0, mem_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        gen.next(r);
        if (!r.isMem())
            continue;
        ++mem_refs;
        if (r.addr >= stack_base && r.addr < stack_base + 64 * 1024)
            ++stack_refs;
    }
    EXPECT_NEAR(static_cast<double>(stack_refs) / mem_refs, 0.5, 0.05);
}

TEST(Generator, SkipMatchesStreaming)
{
    SpecGenerator a(tinyProgram());
    a.skip(12345);
    TraceRecord ra;
    a.next(ra);

    SpecGenerator b(tinyProgram());
    TraceRecord rb;
    for (int i = 0; i < 12346; ++i)
        b.next(rb);
    EXPECT_EQ(ra.pc, rb.pc);
    EXPECT_EQ(ra.addr, rb.addr);
}

TEST(Generator, MaterializeWindow)
{
    const MaterializedTrace t =
        materialize(tinyProgram(), TraceWindow{1000, 5000});
    EXPECT_EQ(t.records.size(), 5000u);
    EXPECT_EQ(t.benchmark, "tiny");
    ASSERT_NE(t.image, nullptr);
}

TEST(Generator, MaterializeIsPureFunctionOfWindow)
{
    const MaterializedTrace a =
        materialize(tinyProgram(), TraceWindow{500, 2000});
    const MaterializedTrace b =
        materialize(tinyProgram(), TraceWindow{500, 2000});
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        ASSERT_EQ(a.records[i].addr, b.records[i].addr);
        ASSERT_EQ(a.records[i].value, b.records[i].value);
    }
}

TEST(Generator, RejectsBadPrograms)
{
    SpecProgram p = tinyProgram();
    p.segments.clear();
    EXPECT_EXIT(SpecGenerator{p}, ::testing::ExitedWithCode(1), "");
}

TEST(Generator, SerialChaseLoadsDependOnPriorLoad)
{
    SpecProgram p = tinyProgram();
    PointerChaseKernel::Params cp;
    cp.base = heap_base;
    cp.node_bytes = 64;
    cp.node_count = 1024;
    cp.payload_touches = 0.0;
    p.kernels = {[cp] {
        return std::unique_ptr<PatternKernel>(
            new PointerChaseKernel(cp));
    }};
    p.stack_frac = 0.0;
    SpecGenerator gen(p);
    TraceRecord r;
    int serial = 0, loads = 0;
    std::int64_t last_load_idx = -1;
    for (int i = 0; i < 50000; ++i) {
        gen.next(r);
        if (!r.isLoad())
            continue;
        ++loads;
        // dep1 must point back at (or beyond) the previous load.
        if (last_load_idx >= 0 && r.dep1 != 0 &&
            i - r.dep1 <= last_load_idx)
            ++serial;
        last_load_idx = i;
    }
    EXPECT_GT(loads, 0);
    EXPECT_GT(static_cast<double>(serial) / loads, 0.8);
}

namespace
{

/** FNV-1a over the first @p n records of @p name's stream, each
 *  record packed field by field (no struct padding in the hash). */
std::uint64_t
streamDigest(const std::string &name, std::size_t n)
{
    SpecGenerator gen(specProgram(name));
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= static_cast<std::uint8_t>(v >> (8 * i));
            h *= 0x100000001b3ull;
        }
    };
    TraceRecord r;
    for (std::size_t i = 0; i < n; ++i) {
        gen.next(r);
        mix(r.pc, 4);
        mix(r.addr, 4);
        mix(r.value, 8);
        mix(r.bb, 2);
        mix(static_cast<std::uint8_t>(r.op), 1);
        mix(r.dep1, 1);
        mix(r.dep2, 1);
    }
    return h;
}

} // namespace

TEST(GeneratorGolden, FirstMillionRecordsOfEveryBenchmark)
{
    // Pinned digests of every workload's record stream: a change to
    // the generator, its kernels or the Rng that moves any record
    // (and with it every SimPoint, window and IPC) fails here.
    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"ammp", 0x11bafe5dab2f9b0dull},
        {"applu", 0x72991aa3239dddf4ull},
        {"apsi", 0xcc5c6912d151caacull},
        {"art", 0x54b396c3b63b9dc7ull},
        {"equake", 0xc3ccbebff6bfc68eull},
        {"facerec", 0x6f28bb81398ad396ull},
        {"fma3d", 0x01705d9789071805ull},
        {"galgel", 0x0a99d74b5210c5a8ull},
        {"lucas", 0x6bfa6f84d8e4dc59ull},
        {"mesa", 0xcb9019571332d340ull},
        {"mgrid", 0x1d88b5f260fa413bull},
        {"sixtrack", 0x6a8136aa001f18b1ull},
        {"swim", 0xffc8707a77210e00ull},
        {"wupwise", 0x2e5e3305c3524852ull},
        {"bzip2", 0x93e30ca9c541f176ull},
        {"crafty", 0x50efd44b1ecf01dbull},
        {"eon", 0xb3e5695ccb45c7bfull},
        {"gap", 0x8c4747c5a6f5eacbull},
        {"gcc", 0x6e0f81ed010c94daull},
        {"gzip", 0x0c2712d55b3341a7ull},
        {"mcf", 0xf4279d84777c4820ull},
        {"parser", 0xa8aaa739a310ff11ull},
        {"perlbmk", 0x56c8c2946784bc7cull},
        {"twolf", 0x155c0bdbc294c441ull},
        {"vortex", 0x42b010a0f7986128ull},
        {"vpr", 0x34779c3be02c777full},
        {"pchase", 0x1dc04f5900060eb7ull},
    };
    std::vector<std::string> names = specBenchmarkNames();
    for (const std::string &extra : extraBenchmarkNames())
        names.push_back(extra);
    ASSERT_EQ(golden.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(golden[i].first, names[i]);
        const std::uint64_t got = streamDigest(names[i], 1'000'000);
        EXPECT_EQ(golden[i].second, got)
            << names[i] << ": 0x" << std::hex << got;
    }
}
