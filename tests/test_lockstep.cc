/** @file LockstepGroup tests. Lockstep is off the sweep path; the
 *  sweep benchmark's traced replay still times LockstepGroup over
 *  TaskPlan::lockstepGroups, so these pin what it relies on: the
 *  grouping/ordering contract of lockstepGroups and the raw
 *  LockstepGroup API bit-identical to independent OoOCore::run()
 *  calls. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/baseline_config.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "cpu/lockstep.hh"
#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "trace/spec_suite.hh"
#include "trace/window.hh"

using namespace microlib;

namespace
{

/** The reference lockstep spec: three benchmarks x two mechanisms x
 *  three L2-size variants, all sharing one trace slot per benchmark,
 *  so every (benchmark, mechanism) cell forms a 3-member group. */
const char *lockstep_text = R"(sweep-spec v1
bench swim gzip mcf
mech Base TP
base window.trace_length=100000
base window.interval=100000
axis hier.l2.size 256k 512k 1M
)";

SweepSpec
lockstepSpec()
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(lockstep_text, spec, &error))
        ADD_FAILURE() << error;
    return spec;
}

} // namespace

TEST(Lockstep, GroupsPendingTasksByTraceSlotAndMechanism)
{
    const TaskPlan plan(lockstepSpec());
    ASSERT_EQ(plan.size(), 18u); // 3 bench x 3 variants x 2 mechs
    ASSERT_EQ(plan.traceSlotCount(), 3u);

    // Nothing done, whole plan: one group per (benchmark, mechanism)
    // cell, members in variant order, groups ordered by their first
    // member's plan index, union exactly the pending set.
    std::vector<char> done(plan.size(), 0);
    const auto groups = plan.lockstepGroups(done, ShardSpec{});
    ASSERT_EQ(groups.size(), 6u);
    std::vector<char> seen(plan.size(), 0);
    std::size_t prev_first = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        ASSERT_EQ(groups[g].size(), 3u);
        if (g > 0)
            EXPECT_GT(groups[g].front(), prev_first);
        prev_first = groups[g].front();
        const PlanTask &first = plan.task(groups[g].front());
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            const std::size_t flat = groups[g][i];
            EXPECT_FALSE(seen[flat]);
            seen[flat] = 1;
            const PlanTask &t = plan.task(flat);
            EXPECT_EQ(t.m, first.m);
            EXPECT_EQ(plan.traceSlot(flat),
                      plan.traceSlot(groups[g].front()));
            EXPECT_EQ(t.v, i); // members in variant order
        }
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        EXPECT_TRUE(seen[i]) << "task " << i << " missing";

    // Resumed tasks vanish from their group; a fully resumed group
    // vanishes entirely.
    std::vector<char> part(plan.size(), 0);
    part[groups[0][1]] = 1; // middle variant of the first group
    for (std::size_t flat : groups[1])
        part[flat] = 1; // all of the second group
    const auto partial = plan.lockstepGroups(part, ShardSpec{});
    ASSERT_EQ(partial.size(), 5u);
    EXPECT_EQ(partial[0],
              (std::vector<std::size_t>{groups[0][0], groups[0][2]}));

    // Sharding: each shard's groups cover exactly its pending tasks.
    for (std::size_t s = 0; s < 2; ++s) {
        const ShardSpec shard{s, 2};
        std::vector<std::size_t> covered;
        for (const auto &g : plan.lockstepGroups(done, shard))
            covered.insert(covered.end(), g.begin(), g.end());
        EXPECT_EQ(covered, plan.pendingTasks(done, shard));
    }
}

TEST(Lockstep, WindowAxisSplitsGroups)
{
    // A window-moving axis gives each variant its own trace slot, so
    // no two variants may share a lockstep group.
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "sweep-spec v1\nbench swim\nmech Base\n"
        "axis window.trace_length 100k 200k\n", spec, &error))
        << error;
    const TaskPlan plan(spec);
    std::vector<char> done(plan.size(), 0);
    const auto groups = plan.lockstepGroups(done, ShardSpec{});
    ASSERT_EQ(groups.size(), plan.size());
    for (const auto &g : groups)
        EXPECT_EQ(g.size(), 1u);
}

TEST(Lockstep, GroupMatchesIndependentRuns)
{
    // The raw cpu-layer API: V cores advanced by one LockstepGroup
    // pass produce the same CoreResult as V independent run() calls.
    const BaselineConfig base = makeBaseline();
    const TraceWindow window{0, 50'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);

    std::vector<CacheParams> l2s(3, base.hier.l2);
    l2s[0].size = 256 * 1024;
    l2s[1].size = 512 * 1024;
    l2s[2].size = 1024 * 1024;

    std::vector<std::unique_ptr<Hierarchy>> hiers;
    std::vector<std::unique_ptr<OoOCore>> cores;
    LockstepGroup group;
    for (const CacheParams &l2 : l2s) {
        HierarchyParams hp = base.hier;
        hp.l2 = l2;
        hiers.push_back(
            std::make_unique<Hierarchy>(hp, trace.image));
        cores.push_back(std::make_unique<OoOCore>(base.core));
        group.add(*cores.back(), *hiers.back());
    }
    ASSERT_EQ(group.size(), 3u);
    group.run(trace.view());

    for (std::size_t v = 0; v < l2s.size(); ++v) {
        HierarchyParams hp = base.hier;
        hp.l2 = l2s[v];
        Hierarchy hier(hp, trace.image);
        OoOCore core(base.core);
        const CoreResult solo = core.run(trace.view(), hier);
        const CoreResult &locked = group.result(v);
        EXPECT_EQ(locked.instructions, solo.instructions);
        EXPECT_EQ(locked.cycles, solo.cycles);
        EXPECT_EQ(locked.ipc, solo.ipc);
        EXPECT_EQ(locked.loads, solo.loads);
        EXPECT_EQ(locked.stores, solo.stores);
        EXPECT_EQ(locked.branches, solo.branches);
        EXPECT_EQ(locked.mispredicts, solo.mispredicts);
    }
}
