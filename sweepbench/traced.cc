/**
 * @file
 * sweep_traced: the sweep benchmark's single-threaded traced replay.
 *
 * Replays one sweep in process by calling the layers' public
 * functions in the order the engine calls them (spec parse, plan,
 * store open and lookup, trace arena probe, SimPoint, skip-ahead,
 * window generation, SoA build, arena publish, then per task the
 * hierarchy/mechanism/core set-up, OoOCore::run, the stat snapshot
 * and the store append, and finally the sensitivity table). Every
 * call sits inside a steady-clock span taken here, in the benchmark's
 * own file: nothing inside the library is instrumented. Spans are
 * flat (no span nests inside another), so their sum over the replay
 * wall is the ledger's coverage.
 *
 * After the ledger closes, and outside it, the replay checks itself:
 * every task's CoreResult and stat snapshot must equal the record the
 * end-to-end CLI run stored under the same fingerprint (--ref-store),
 * and the lockstep groups of the simulated tasks are re-run to time
 * LockstepGroup::run against their per-variant OoOCore::run spans.
 *
 *   sweep_traced --spec exp.sweep --store replay.store \
 *       [--arena DIR] [--prewarm] [--ref-store e2e.store] \
 *       [--report-tail cli_report.txt]
 *
 * Prints one JSON object of spans, counts and check results.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hh"
#include "core/result_store.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "cpu/lockstep.hh"
#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "sim/stats.hh"
#include "trace/generator.hh"
#include "trace/simpoint.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"

using namespace microlib;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Flat, non-nesting spans: total seconds per name. */
class Ledger
{
  public:
    /** Time @p fn under span @p name; returns fn's result. */
    template <typename Fn>
    auto
    span(const std::string &name, Fn &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        struct Close
        {
            Ledger &ledger;
            const std::string &name;
            Clock::time_point t0;
            ~Close()
            {
                ledger.add(name, secondsBetween(t0, Clock::now()));
            }
        } close{*this, name, t0};
        return fn();
    }

    void
    add(const std::string &name, double seconds)
    {
        _spans[name] += seconds;
        _spanned += seconds;
        _last = seconds;
    }

    double spanned() const { return _spanned; }
    /** Duration of the span that closed most recently. */
    double last() const { return _last; }
    const std::map<std::string, double> &spans() const { return _spans; }

  private:
    std::map<std::string, double> _spans;
    double _spanned = 0.0;
    double _last = 0.0;
};

struct Args
{
    std::string spec_path;
    std::string store_path;
    std::string ref_store_path;
    std::string arena_dir;
    std::string report_tail_path;
    bool prewarm = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: sweep_traced --spec FILE --store PATH "
                 "[--arena DIR] [--prewarm] [--ref-store PATH] "
                 "[--report-tail FILE]\n"
                 "       sweep_traced --build-type\n");
    std::exit(2);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Model state of one task, set up exactly as runOne() does it. */
struct TaskModel
{
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<CacheMechanism> mech;
    std::unique_ptr<OoOCore> core;
    StatSet stats;

    TaskModel(const MaterializedTrace &trace,
              const std::string &mechanism, const RunConfig &cfg)
    {
        hier = std::make_unique<Hierarchy>(cfg.system.hier, trace.image);
        mech = makeMechanism(mechanism, cfg.mech);
        hier->registerStats(stats);
        if (mech) {
            mech->bind(*hier);
            mech->registerStats(stats);
            hier->setClient(mech.get());
        }
        core = std::make_unique<OoOCore>(cfg.system.core);
    }
};

bool
sameCore(const CoreResult &a, const CoreResult &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.ipc == b.ipc && a.loads == b.loads && a.stores == b.stores &&
           a.branches == b.branches && a.mispredicts == b.mispredicts;
}

/** Sum of every stat whose name ends in @p suffix. */
double
sumSuffix(const std::map<std::string, double> &stats,
          const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &[name, value] : stats)
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (flag == "--build-type") {
            // The optimizer and NDEBUG, as compiled into this binary:
            // the benchmark refuses to time anything but Release.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
            std::printf("Release\n");
#else
            std::printf("not-release\n");
#endif
            return 0;
        } else if (flag == "--spec") {
            args.spec_path = value();
        } else if (flag == "--store") {
            args.store_path = value();
        } else if (flag == "--ref-store") {
            args.ref_store_path = value();
        } else if (flag == "--arena") {
            args.arena_dir = value();
        } else if (flag == "--report-tail") {
            args.report_tail_path = value();
        } else if (flag == "--prewarm") {
            args.prewarm = true;
        } else {
            usage();
        }
    }
    if (args.spec_path.empty() || args.store_path.empty())
        usage();
    std::string spec_text;
    if (!readFile(args.spec_path, spec_text)) {
        std::fprintf(stderr, "cannot read %s\n", args.spec_path.c_str());
        return 1;
    }

    Ledger L;
    std::map<std::string, double> count;
    std::map<std::string, double> mech_sim; // mechanism -> seconds
    // benchmark.{simpoint_s,skip_s}: the cold critical path's parts
    std::map<std::string, double> bench_s;
    const Clock::time_point wall0 = Clock::now();

    SweepSpec spec;
    std::string error;
    if (!L.span("core.spec_parse_s", [&] {
            return SweepSpec::parse(spec_text, spec, &error);
        })) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    const auto plan = L.span("core.plan_s", [&] {
        return std::make_unique<TaskPlan>(spec);
    });
    const auto store = L.span("core.store_open_s", [&] {
        return std::make_unique<ResultStore>(args.store_path);
    });
    std::shared_ptr<TraceArena> arena;
    if (!args.arena_dir.empty())
        arena = L.span("trace.arena_load_s", [&] {
            return std::make_shared<TraceArena>(args.arena_dir);
        });

    // Resume pass: look every task up, as TaskPlan::prefill does.
    SweepResult res = plan->emptyResult();
    std::vector<char> done(plan->size(), 0);
    for (std::size_t i = 0; i < plan->size(); ++i) {
        L.span("core.store_find_s", [&] {
            const auto rec = store->find(plan->resultKey(i));
            if (rec) {
                const PlanTask &t = plan->task(i);
                res.matrix(t.v).ipc[t.m][t.b] = rec->core.ipc;
                res.matrix(t.v).outputs[t.m][t.b] = toRunOutput(*rec);
                done[i] = 1;
            }
        });
    }
    count["core.resumed"] = 0;
    for (const char d : done)
        count["core.resumed"] += d;

    // Pending tasks grouped by trace slot, slots in plan order.
    std::vector<std::vector<std::size_t>> slot_tasks(
        plan->traceSlotCount());
    std::vector<std::size_t> slot_order;
    for (std::size_t i = 0; i < plan->size(); ++i) {
        if (done[i])
            continue;
        const std::size_t slot = plan->traceSlot(i);
        if (slot_tasks[slot].empty())
            slot_order.push_back(slot);
        slot_tasks[slot].push_back(i);
    }

    // SimPoint choices are per (benchmark, interval, k), like the
    // process-wide TraceCache memo the engine consults.
    std::map<std::string, SimPointChoice> simpoints;
    auto generate = [&](const std::string &benchmark,
                        const RunConfig &cfg) {
        const SpecProgram &prog = specProgram(benchmark);
        TraceWindow window;
        if (cfg.selection == TraceSelection::SimPoint) {
            const std::string key =
                benchmark + '\0' +
                std::to_string(cfg.scale.simpoint_interval) + '\0' +
                std::to_string(cfg.scale.simpoint_k);
            auto it = simpoints.find(key);
            if (it == simpoints.end()) {
                const SimPointChoice sp = L.span("trace.simpoint_s", [&] {
                    return findSimPoint(prog, cfg.scale.simpoint_interval,
                                        cfg.scale.simpoint_k);
                });
                bench_s[benchmark + ".simpoint_s"] += L.last();
                it = simpoints.emplace(key, sp).first;
                count["trace.instr_profiled"] +=
                    static_cast<double>(prog.nominal_length /
                                        cfg.scale.simpoint_interval *
                                        cfg.scale.simpoint_interval);
            }
            window.skip = it->second.start_instruction;
            window.length = cfg.scale.simpoint_trace;
        } else {
            window.skip = cfg.scale.arbitrary_skip;
            window.length = cfg.scale.arbitrary_length;
        }
        // materialize(), split at its layer calls.
        MaterializedTrace out;
        auto gen = L.span("trace.generate_s", [&] {
            return std::make_unique<SpecGenerator>(prog);
        });
        L.span("trace.skip_s", [&] { gen->skip(window.skip); });
        bench_s[benchmark + ".skip_s"] += L.last();
        L.span("trace.generate_s", [&] {
            out.benchmark = prog.name;
            out.window = window;
            out.records.resize(window.length);
            for (auto &rec : out.records)
                gen->next(rec);
        });
        L.span("trace.soa_s", [&] { out.soa.build(out.records); });
        L.span("trace.generate_s", [&] {
            out.image = std::make_shared<MemoryImage>(gen->image());
        });
        count["trace.instr_skipped"] += static_cast<double>(window.skip);
        count["trace.instr_windowed"] +=
            static_cast<double>(window.length);
        return out;
    };

    // ExperimentEngine::materializeInto: arena probe, else generate
    // and publish, then re-map the published file.
    auto obtain = [&](std::size_t slot, bool publish_only) {
        const PlanTask &t = plan->task(slot_tasks[slot].front());
        const std::string &key = plan->slotKey(slot);
        const std::string &benchmark = plan->benchmarks()[t.b];
        if (arena) {
            auto mapped = L.span("trace.arena_load_s",
                                 [&] { return arena->tryLoad(key); });
            if (mapped)
                return std::make_shared<const MaterializedTrace>(
                    std::move(*mapped));
        }
        MaterializedTrace trace = generate(benchmark, plan->config(t.v));
        if (arena && L.span("trace.arena_publish_s", [&] {
                return arena->publish(key, trace);
            })) {
            if (publish_only)
                return std::shared_ptr<const MaterializedTrace>();
            auto mapped = L.span("trace.arena_load_s",
                                 [&] { return arena->tryLoad(key); });
            if (mapped)
                return std::make_shared<const MaterializedTrace>(
                    std::move(*mapped));
        }
        return std::make_shared<const MaterializedTrace>(
            std::move(trace));
    };

    // microlib_sweep --prewarm-traces: publish every window, keep
    // none resident.
    if (args.prewarm) {
        if (!arena) {
            std::fprintf(stderr, "--prewarm needs --arena\n");
            return 2;
        }
        for (const std::size_t slot : slot_order)
            obtain(slot, true);
    }

    std::vector<std::shared_ptr<const MaterializedTrace>> traces(
        plan->traceSlotCount());
    std::vector<double> task_sim_s(plan->size(), 0.0);
    for (const std::size_t slot : slot_order) {
        traces[slot] = obtain(slot, false);
        const MaterializedTrace &trace = *traces[slot];
        count["trace.owned_mb"] +=
            static_cast<double>(trace.footprintOwnedBytes()) / 1048576.0;
        count["trace.mapped_mb"] +=
            static_cast<double>(trace.footprintMappedBytes()) / 1048576.0;
        for (const std::size_t i : slot_tasks[slot]) {
            const PlanTask &t = plan->task(i);
            const std::string &mechanism = plan->mechanisms()[t.m];
            const RunConfig &cfg = plan->config(t.v);
            RunOutput out;
            out.benchmark = trace.benchmark;
            out.mechanism = mechanism;
            auto model = L.span("run.setup_s", [&] {
                auto m = std::make_unique<TaskModel>(trace, mechanism, cfg);
                if (m->mech)
                    out.hardware = m->mech->hardware();
                return m;
            });
            const Clock::time_point s0 = Clock::now();
            out.core = model->core->run(trace.view(), *model->hier);
            const double sim_s = secondsBetween(s0, Clock::now());
            L.add("run.simulate_s", sim_s);
            mech_sim[mechanism] += sim_s;
            task_sim_s[i] = sim_s;
            L.span("run.snapshot_s",
                   [&] { model->stats.snapshot(out.stats); });
            L.span("run.setup_s", [&] { model.reset(); });
            L.span("core.store_put_s", [&] {
                store->put(makeRecord(plan->resultKey(i), out));
            });
            res.matrix(t.v).ipc[t.m][t.b] = out.core.ipc;
            res.matrix(t.v).outputs[t.m][t.b] = std::move(out);
        }
    }

    const std::string report = L.span("core.report_s", [&] {
        return plan->variantCount() > 1 ? sensitivityTable(res).str()
                                        : std::string();
    });
    const double traced_wall = secondsBetween(wall0, Clock::now());
    // ---- ledger closed; everything below is the replay's own check.

    std::size_t mismatches = 0, checked = 0;
    if (!args.ref_store_path.empty()) {
        const ResultStore ref(args.ref_store_path,
                              ResultStore::Mode::ReadOnly);
        for (std::size_t i = 0; i < plan->size(); ++i) {
            const PlanTask &t = plan->task(i);
            const RunOutput &out = res.matrix(t.v).outputs[t.m][t.b];
            const auto rec = ref.find(plan->resultKey(i));
            ++checked;
            if (!rec || !sameCore(rec->core, out.core) ||
                rec->stats != out.stats)
                ++mismatches;
        }
    }
    if (!args.report_tail_path.empty()) {
        std::string cli;
        ++checked;
        if (!readFile(args.report_tail_path, cli) ||
            cli.size() < report.size() ||
            cli.compare(cli.size() - report.size(), report.size(),
                        report) != 0)
            ++mismatches;
    }

    double lockstep_s = 0.0, pervariant_s = 0.0;
    // Lockstep groups of the simulated tasks, re-run through
    // LockstepGroup::run against their per-variant OoOCore::run spans.
    for (const auto &group : plan->lockstepGroups(done, ShardSpec{})) {
        if (group.size() < 2)
            continue;
        const MaterializedTrace &trace =
            *traces[plan->traceSlot(group.front())];
        std::vector<std::unique_ptr<TaskModel>> models;
        LockstepGroup lock;
        for (const std::size_t i : group) {
            const PlanTask &t = plan->task(i);
            models.push_back(std::make_unique<TaskModel>(
                trace, plan->mechanisms()[t.m], plan->config(t.v)));
            lock.add(*models.back()->core, *models.back()->hier);
            pervariant_s += task_sim_s[i];
        }
        const Clock::time_point l0 = Clock::now();
        lock.run(trace.view());
        lockstep_s += secondsBetween(l0, Clock::now());
        for (std::size_t k = 0; k < group.size(); ++k) {
            const PlanTask &t = plan->task(group[k]);
            ++checked;
            if (!sameCore(lock.result(k),
                          res.matrix(t.v).outputs[t.m][t.b].core))
                ++mismatches;
        }
    }

    // Modelled-design totals over every task of the plan.
    double used = 0.0, fills = 0.0;
    for (std::size_t i = 0; i < plan->size(); ++i) {
        const PlanTask &t = plan->task(i);
        const RunOutput &out = res.matrix(t.v).outputs[t.m][t.b];
        count["sim.instructions"] += static_cast<double>(out.core.instructions);
        count["sim.cycles"] += static_cast<double>(out.core.cycles);
        count["mem.l1d.demand_misses"] += out.stat("l1d.demand_misses");
        count["mem.l2.demand_misses"] += out.stat("l2.demand_misses");
        count["mem.dram.reads"] += out.stat("dram.reads");
        used += sumSuffix(out.stats, ".prefetch_used");
        fills += sumSuffix(out.stats, ".prefetch_fills");
        if (!done[i])
            count["run.instructions"] +=
                static_cast<double>(out.core.instructions);
    }
    count["mechanisms.prefetch_used_frac"] = fills > 0 ? used / fills : 0;

    if (arena) {
        const TraceArenaStats as = arena->stats();
        count["trace.arena_hits"] = static_cast<double>(as.hits);
        count["trace.arena_misses"] = static_cast<double>(as.misses);
        count["trace.arena_rejected"] = static_cast<double>(as.rejected);
    }
    count["run.tasks"] = static_cast<double>(plan->size()) -
                         count["core.resumed"];
    count["ledger.traced_wall_s"] = traced_wall;
    count["ledger.spanned_s"] = L.spanned();
    count["cpu.lockstep_s"] = lockstep_s;
    count["cpu.pervariant_s"] = pervariant_s;
    count["check.items"] = static_cast<double>(checked);
    count["check.mismatches"] = static_cast<double>(mismatches);

    std::printf("{");
    const char *sep = "";
    for (const auto &[name, v] : L.spans()) {
        std::printf("%s\"%s\": %.9g", sep, name.c_str(), v);
        sep = ", ";
    }
    for (const auto &[name, v] : count) {
        std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
        sep = ", ";
    }
    for (const auto &[name, v] : mech_sim)
        std::printf("%s\"mechanisms.%s.simulate_s\": %.9g", sep,
                    name.c_str(), v);
    for (const auto &[name, v] : bench_s)
        std::printf("%s\"bench.%s\": %.9g", sep, name.c_str(), v);
    std::printf("}\n");
    return mismatches == 0 ? 0 : 1;
}
