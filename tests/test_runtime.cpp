// The runtime layer: scheduling policies in isolation, schedule /
// reference numerical equivalence, execution-context reuse, and the
// Engine/Session serving API.

#include <atomic>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "fg/factors.hpp"
#include "hw/frame_pipeline.hpp"
#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/server_pool.hpp"

using namespace orianna;

namespace {

/** Scriptable engine state for driving schedulers standalone. */
struct FakeIssueContext final : runtime::IssueContext
{
    std::vector<bool> ready;
    std::vector<bool> freeUnit;
    std::vector<bool> done;

    explicit FakeIssueContext(std::size_t n)
        : ready(n, true), freeUnit(n, true), done(n, false)
    {
    }

    std::size_t total() const override { return ready.size(); }
    bool dataReady(std::size_t g) const override { return ready[g]; }
    bool unitFree(std::size_t g) const override { return freeUnit[g]; }
    bool completed(std::size_t g) const override { return done[g]; }
};

void
expectSameDeltas(const std::map<fg::Key, mat::Vector> &got,
                 const std::map<fg::Key, mat::Vector> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[key, delta] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end()) << "missing key " << key;
        ASSERT_EQ(it->second.size(), delta.size());
        for (std::size_t i = 0; i < delta.size(); ++i)
            EXPECT_EQ(it->second[i], delta[i])
                << "key " << key << " component " << i;
    }
}

/** The runtime_server example's odometry chain. */
fg::FactorGraph
chainGraph(const std::vector<lie::Pose> &truth)
{
    fg::FactorGraph graph;
    graph.emplace<fg::PriorFactor>(1, truth[0],
                                   fg::isotropicSigmas(6, 0.01));
    for (std::size_t i = 1; i < truth.size(); ++i)
        graph.emplace<fg::IMUFactor>(
            i, i + 1, truth[i].ominus(truth[i - 1]),
            fg::isotropicSigmas(6, 0.05));
    return graph;
}

std::vector<lie::Pose>
chainTruth()
{
    std::vector<lie::Pose> truth;
    for (int i = 0; i < 5; ++i)
        truth.emplace_back(
            mat::Vector{0.1 * i, 0.02 * i, 0.05 * i},
            mat::Vector{0.4 * i, 0.04 * i, 0.0});
    return truth;
}

fg::Values
chainInitial(const std::vector<lie::Pose> &truth, double perturb)
{
    fg::Values initial;
    for (std::size_t i = 0; i < truth.size(); ++i)
        initial.insert(i + 1,
                       truth[i].retract(mat::Vector{
                           perturb, -perturb, perturb, -perturb,
                           perturb, -perturb}));
    return initial;
}

} // namespace

// --- Scheduler policies in isolation --------------------------------

TEST(Scheduler, OutOfOrderIssuesOldestReadyFirst)
{
    runtime::OutOfOrderScheduler scheduler;
    FakeIssueContext ctx(4);
    scheduler.reset(4);

    // Ready marks arrive out of age order; issue order must not.
    scheduler.markReady(2);
    scheduler.markReady(0);
    scheduler.markReady(3);
    EXPECT_EQ(scheduler.pick(ctx), 0u);
    EXPECT_EQ(scheduler.pick(ctx), 2u);
    EXPECT_EQ(scheduler.pick(ctx), 3u);
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
}

TEST(Scheduler, OutOfOrderSkipsInstructionsWithoutAFreeUnit)
{
    runtime::OutOfOrderScheduler scheduler;
    FakeIssueContext ctx(3);
    scheduler.reset(3);
    scheduler.markReady(0);
    scheduler.markReady(1);
    scheduler.markReady(2);

    // The oldest ready instruction stalls on its unit; younger ones
    // with free units overtake it (that is the point of OoO).
    ctx.freeUnit[0] = false;
    EXPECT_EQ(scheduler.pick(ctx), 1u);
    EXPECT_EQ(scheduler.pick(ctx), 2u);
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
    ctx.freeUnit[0] = true;
    EXPECT_EQ(scheduler.pick(ctx), 0u);
}

TEST(Scheduler, InOrderBlocksUntilThePreviousInstructionCompletes)
{
    runtime::InOrderScheduler scheduler;
    FakeIssueContext ctx(3);
    scheduler.reset(3);

    EXPECT_EQ(scheduler.pick(ctx), 0u);
    // No dispatch window: 1 must wait for 0 to *complete*, not just
    // issue.
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
    ctx.done[0] = true;
    EXPECT_EQ(scheduler.pick(ctx), 1u);

    ctx.done[1] = true;
    ctx.ready[2] = false;
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
    ctx.ready[2] = true;
    ctx.freeUnit[2] = false;
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
    ctx.freeUnit[2] = true;
    EXPECT_EQ(scheduler.pick(ctx), 2u);
    EXPECT_EQ(scheduler.pick(ctx), runtime::kNoInstruction);
}

TEST(Scheduler, ResetRestartsAFrame)
{
    runtime::InOrderScheduler in_order;
    runtime::OutOfOrderScheduler out_of_order;
    FakeIssueContext ctx(2);

    in_order.reset(2);
    EXPECT_EQ(in_order.pick(ctx), 0u);
    in_order.reset(2);
    EXPECT_EQ(in_order.pick(ctx), 0u);

    out_of_order.reset(2);
    out_of_order.markReady(1);
    out_of_order.reset(2);
    EXPECT_EQ(out_of_order.pick(ctx), runtime::kNoInstruction);
}

// --- Schedule / reference equivalence -------------------------------

// Both dispatch policies must produce bit-identical Gauss-Newton
// deltas to the in-order reference interpreter: scheduling reorders
// execution, never arithmetic (operands are final at issue).
TEST(ExecutionContext, SchedulesMatchReferenceExecutorOnEveryApp)
{
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildMission(kind, /*seed=*/7);
        bench.app.compile();
        for (std::size_t i = 0; i < bench.app.size(); ++i) {
            const core::Algorithm &algo = bench.app.algorithm(i);
            comp::Executor reference(algo.program);
            const auto want = reference.run(algo.values);

            runtime::ExecutionContext context(
                {{&algo.program, &algo.values}});
            const auto ooo =
                context.run(hw::AcceleratorConfig::minimal(true));
            const auto io =
                context.run(hw::AcceleratorConfig::minimal(false));
            SCOPED_TRACE(std::string(apps::appName(kind)) + "/" +
                         algo.name);
            expectSameDeltas(ooo.deltas.at(0), want);
            expectSameDeltas(io.deltas.at(0), want);
        }
    }
}

// --- Context reuse ---------------------------------------------------

// Two consecutive frames through one warm context (rebinding updated
// values in between) must match two fresh contexts exactly: warm slot
// arenas and reused schedule state are invisible in the results.
TEST(ExecutionContext, ReusedContextMatchesFreshSimulatePerFrame)
{
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/11);
    bench.app.compile();
    const auto work = bench.app.frameWork();

    for (const bool out_of_order : {true, false}) {
        const auto config =
            hw::AcceleratorConfig::minimal(out_of_order);
        runtime::ExecutionContext context(work);

        const auto frame1 = context.run(config);
        const auto fresh1 = runtime::ExecutionContext(work).run(config);
        EXPECT_EQ(frame1.cycles, fresh1.cycles);
        EXPECT_EQ(frame1.totalEnergyJ(), fresh1.totalEnergyJ());

        // Retract each algorithm's values and rebind for frame 2.
        std::vector<fg::Values> updated;
        updated.reserve(work.size());
        for (std::size_t w = 0; w < work.size(); ++w) {
            updated.push_back(*work[w].values);
            updated.back().retractAll(frame1.deltas[w]);
        }
        for (std::size_t w = 0; w < work.size(); ++w)
            context.bindValues(w, &updated[w]);

        const auto frame2 = context.run(config);
        auto work2 = work;
        for (std::size_t w = 0; w < work2.size(); ++w)
            work2[w].values = &updated[w];
        const auto fresh2 = runtime::ExecutionContext(work2).run(config);

        EXPECT_EQ(frame2.cycles, fresh2.cycles);
        EXPECT_EQ(frame2.dynamicEnergyJ, fresh2.dynamicEnergyJ);
        EXPECT_EQ(frame2.memoryEnergyJ, fresh2.memoryEnergyJ);
        EXPECT_EQ(frame2.staticEnergyJ, fresh2.staticEnergyJ);
        for (std::size_t w = 0; w < work2.size(); ++w)
            expectSameDeltas(frame2.deltas[w], fresh2.deltas[w]);
    }
}

TEST(ExecutionContext, RejectsZeroUnitConfigs)
{
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/1);
    bench.app.compile();
    runtime::ExecutionContext context(bench.app.frameWork());
    auto config = hw::AcceleratorConfig::minimal(true);
    config.units[0] = 0;
    EXPECT_THROW(context.run(config), std::invalid_argument);
}

// The engine marks only the head of each unit kind's issue queue and
// rejects any pick that is not one: a policy that issues the
// youngest data-ready instruction with a free unit must fail loudly,
// and the context must serve correct frames afterwards.
TEST(ExecutionContext, RejectsPicksYoungerThanTheirKindsOldest)
{
    struct YoungestFirst final : runtime::Scheduler
    {
        std::string_view name() const override { return "youngest"; }
        void reset(std::size_t) override {}
        void markReady(std::size_t) override {}
        void markCompleted(std::size_t) override {}
        std::size_t
        pick(const runtime::IssueContext &ctx) override
        {
            for (std::size_t g = ctx.total(); g-- > 0;)
                if (ctx.dataReady(g) && ctx.unitFree(g))
                    return g;
            return runtime::kNoInstruction;
        }
    };

    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/1);
    bench.app.compile();
    const core::Algorithm &algo = bench.app.algorithm(0);
    runtime::ExecutionContext context({{&algo.program, &algo.values}});
    const auto config = hw::AcceleratorConfig::minimal(true);
    YoungestFirst rogue;
    EXPECT_THROW(context.run(config, rogue), std::logic_error);

    comp::Executor reference(algo.program);
    expectSameDeltas(context.run(config).deltas.at(0),
                     reference.run(algo.values));
}

TEST(ExecutionContext, RunWithoutBoundValuesIsDiagnosed)
{
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/1);
    bench.app.compile();
    const core::Algorithm &algo = bench.app.algorithm(0);
    runtime::ExecutionContext context(
        std::vector<const comp::Program *>{&algo.program});
    EXPECT_THROW(context.run(hw::AcceleratorConfig::minimal(true)),
                 std::logic_error);
    context.bindValues(0, &algo.values);
    EXPECT_NO_THROW(context.run(hw::AcceleratorConfig::minimal(true)));
}

// A circular dependence can never become data-ready; the engine must
// say so instead of spinning.
TEST(ExecutionContext, DeadlockOnCircularDependencesIsDiagnosed)
{
    comp::Program program;
    program.name = "circular";
    program.valueSlots = 2;
    comp::Instruction a;
    a.op = comp::IsaOp::VADD;
    a.dst = 0;
    a.srcs = {1}; // Produced by b.
    a.rows = 3;
    comp::Instruction b;
    b.op = comp::IsaOp::VADD;
    b.dst = 1;
    b.srcs = {0}; // Produced by a.
    b.rows = 3;
    program.instructions = {a, b};

    fg::Values values;
    runtime::ExecutionContext context({{&program, &values}});
    EXPECT_THROW(context.run(hw::AcceleratorConfig::minimal(true)),
                 std::logic_error);
    EXPECT_THROW(context.run(hw::AcceleratorConfig::minimal(false)),
                 std::logic_error);
}

// A released work item issues nothing before its release cycle nor
// before the item it waits on has finished; releases that gate
// nothing leave the schedule as it was.
TEST(ExecutionContext, ReleasesGateWorkItems)
{
    using runtime::ExecutionContext;
    using runtime::Release;
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::Manipulator, /*seed=*/7);
    bench.app.compile();
    const comp::Program &program = bench.app.algorithm(0).program;
    const std::size_t n = program.instructions.size();
    const std::vector<const comp::Program *> two{&program, &program};

    for (const bool out_of_order : {true, false}) {
        SCOPED_TRACE(out_of_order ? "out-of-order" : "in-order");
        const auto config = hw::AcceleratorConfig::minimal(out_of_order);
        const std::uint64_t single =
            ExecutionContext::schedule({&program}, config)->totals.cycles;

        const auto plain = ExecutionContext::schedule(two, config);
        const auto open = ExecutionContext::schedule(
            two, config, {{0, Release::kNone}, {0, Release::kNone}});
        ASSERT_EQ(open->issues.size(), plain->issues.size());
        for (std::size_t p = 0; p < plain->issues.size(); ++p) {
            EXPECT_EQ(open->issues[p].g, plain->issues[p].g);
            EXPECT_EQ(open->issues[p].instance, plain->issues[p].instance);
            EXPECT_EQ(open->issues[p].start, plain->issues[p].start);
        }
        EXPECT_EQ(open->totals.cycles, plain->totals.cycles);

        // Waiting on item 0: item 1 runs alone after it.
        const auto after = ExecutionContext::schedule(
            two, config, {{0, Release::kNone}, {40, 0}});
        std::uint64_t first_finish = 0;
        for (const auto &issue : after->issues)
            if (issue.g < n)
                first_finish = std::max(
                    first_finish,
                    issue.start +
                        hw::CostModel::latency(program.instructions[issue.g],
                                               program.precision));
        for (const auto &issue : after->issues) {
            if (issue.g >= n) {
                EXPECT_GE(issue.start,
                          std::max<std::uint64_t>(40, first_finish));
            }
        }
        EXPECT_EQ(after->totals.cycles, 2 * single);

        // Released after item 0 is done: item 1 starts at its cycle.
        const std::uint64_t late = 3 * single;
        const auto released = ExecutionContext::schedule(
            two, config, {{0, Release::kNone}, {late, Release::kNone}});
        for (const auto &issue : released->issues) {
            if (issue.g >= n) {
                EXPECT_GE(issue.start, late);
            }
        }
        EXPECT_EQ(released->totals.cycles, late + single);
    }

    const auto config = hw::AcceleratorConfig::minimal(true);
    EXPECT_THROW(ExecutionContext::schedule(two, config,
                                            {{0, Release::kNone}}),
                 std::invalid_argument);
    EXPECT_THROW(ExecutionContext::schedule(
                     two, config, {{0, 1}, {0, Release::kNone}}),
                 std::invalid_argument);
    EXPECT_THROW(ExecutionContext::schedule(
                     two, config, {{0, Release::kNone}, {0, 1}}),
                 std::invalid_argument);
}

// --- Engine / Session ------------------------------------------------

TEST(Engine, SharesCompiledProgramsBetweenEqualGraphs)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    const auto first = engine.program(graph, chainInitial(truth, 0.01));
    const auto second = engine.program(graph, chainInitial(truth, 0.05));
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(engine.stats().compiles, 1u);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
    EXPECT_EQ(engine.cachedPrograms(), 1u);

    // Different measurements bake different LOADC payloads: that is a
    // different program, not a cache hit.
    auto shifted = truth;
    shifted.back() = shifted.back().retract(
        mat::Vector{0.1, 0.0, 0.0, 0.0, 0.0, 0.0});
    const auto third =
        engine.program(chainGraph(shifted), chainInitial(truth, 0.01));
    EXPECT_NE(first.get(), third.get());
    EXPECT_EQ(engine.stats().compiles, 2u);
    EXPECT_EQ(engine.cachedPrograms(), 2u);
}

TEST(Engine, CachedBytesCountEveryCachedProgramOnce)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    EXPECT_EQ(engine.stats().cachedBytes, 0u);
    const auto program = engine.program(graph, chainInitial(truth, 0.01));
    const std::size_t footprint = program->footprintBytes();
    EXPECT_GE(footprint,
              program->instructions.size() * sizeof(comp::Instruction));
    EXPECT_EQ(engine.stats().cachedBytes, footprint); // A miss.

    engine.program(graph, chainInitial(truth, 0.05));
    EXPECT_EQ(engine.stats().cachedBytes, footprint); // A hit.

    const auto reference =
        engine.referenceProgram(graph, chainInitial(truth, 0.01));
    EXPECT_EQ(engine.stats().cachedBytes,
              footprint + reference->footprintBytes());
    EXPECT_EQ(engine.cachedPrograms(), 2u);
}

TEST(Engine, SessionsIterateThroughTheSharedProgram)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);

    // Exact compile counts are an fp64 contract: an fp32 engine also
    // compiles the reference fallback (tested in test_precision.cpp),
    // so pin the datapath against ORIANNA_PRECISION.
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session a = engine.session(graph, chainInitial(truth, 0.02));
    runtime::Session b = engine.session(graph, chainInitial(truth, 0.04));
    EXPECT_EQ(engine.stats().compiles, 1u);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
    EXPECT_EQ(&a.program(), &b.program());

    const double before_a = graph.totalError(a.values());
    const double before_b = graph.totalError(b.values());
    a.iterate(3);
    b.iterate(3);
    EXPECT_EQ(a.frames(), 3u);
    EXPECT_GT(a.totals().cycles, 0u);
    EXPECT_LT(graph.totalError(a.values()), before_a);
    EXPECT_LT(graph.totalError(b.values()), before_b);
}

// Session::iterate is the accelerated Gauss-Newton loop; it must
// track the reference interpreter (run + retract per step) exactly.
TEST(Session, IterateMatchesReferenceInterpreterLoop)
{
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::Manipulator, /*seed=*/5);
    bench.app.compile();
    const core::Algorithm &algo = bench.app.algorithm(0);
    constexpr std::size_t kSteps = 3;

    runtime::Session session(
        std::shared_ptr<const comp::Program>(std::shared_ptr<const void>(),
                                             &algo.program),
        algo.values, hw::AcceleratorConfig::minimal(true));
    session.iterate(kSteps);

    fg::Values reference = algo.values;
    comp::Executor executor(algo.program);
    for (std::size_t step = 0; step < kSteps; ++step)
        reference.retractAll(executor.run(reference));

    for (fg::Key key : reference.keys()) {
        if (reference.isPose(key)) {
            const lie::Pose &got = session.values().pose(key);
            const lie::Pose &want = reference.pose(key);
            const mat::Vector gap = got.localCoordinates(want);
            for (std::size_t i = 0; i < gap.size(); ++i)
                EXPECT_EQ(gap[i], 0.0) << "pose " << key;
        } else {
            const mat::Vector &got = session.values().vector(key);
            const mat::Vector &want = reference.vector(key);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], want[i]) << "vector " << key;
        }
    }
    EXPECT_EQ(session.frames(), kSteps);
}

TEST(Session, StepScaleDampsTheUpdate)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth, 0.05);

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    const auto program = engine.program(graph, initial);

    runtime::SessionOptions half;
    half.stepScale = 0.5;
    runtime::Session full(program, initial,
                          hw::AcceleratorConfig::minimal(true));
    runtime::Session damped(program, initial,
                            hw::AcceleratorConfig::minimal(true), half);
    full.step();
    damped.step();
    // A half step moves less than the full Gauss-Newton step.
    const mat::Vector gap_full =
        initial.pose(1).localCoordinates(full.values().pose(1));
    const mat::Vector gap_damped =
        initial.pose(1).localCoordinates(damped.values().pose(1));
    double norm_full = 0.0;
    double norm_damped = 0.0;
    for (std::size_t i = 0; i < gap_full.size(); ++i) {
        norm_full += gap_full[i] * gap_full[i];
        norm_damped += gap_damped[i] * gap_damped[i];
    }
    EXPECT_LT(norm_damped, norm_full);
}

// --- Frame pipeline reuse --------------------------------------------

TEST(FramePipeline, RepeatedRunsAreIdentical)
{
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/9);
    bench.app.compile();

    std::vector<hw::PeriodicStream> streams;
    for (std::size_t i = 0; i < bench.app.size(); ++i) {
        const core::Algorithm &algo = bench.app.algorithm(i);
        streams.push_back({&algo.program, algo.rateHz, 0.0});
    }
    const auto config = hw::AcceleratorConfig::minimal(true);

    hw::FramePipeline pipeline(streams, config);
    const auto first = pipeline.run(0.02);
    const auto second = pipeline.run(0.02);
    const auto fresh = hw::FramePipeline(streams, config).run(0.02);

    ASSERT_EQ(first.streams.size(), second.streams.size());
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.cycles, fresh.cycles);
    for (std::size_t s = 0; s < first.streams.size(); ++s) {
        EXPECT_EQ(first.streams[s].frames, second.streams[s].frames);
        EXPECT_EQ(first.streams[s].meanLatencyS,
                  second.streams[s].meanLatencyS);
        EXPECT_EQ(first.streams[s].maxLatencyS,
                  fresh.streams[s].maxLatencyS);
    }
}

// --- Graph fingerprints ----------------------------------------------

TEST(Fingerprint, DeterministicAcrossRebuilds)
{
    const auto truth = chainTruth();
    const fg::Values shapes = chainInitial(truth, 0.01);

    // Same call twice, and a structurally identical graph rebuilt
    // from scratch: one fingerprint.
    const std::uint64_t a =
        runtime::graphFingerprint(chainGraph(truth), shapes);
    const std::uint64_t b =
        runtime::graphFingerprint(chainGraph(truth), shapes);
    EXPECT_EQ(a, b);

    // Initial values do not enter the fingerprint, only shapes do: a
    // different starting guess shares the compiled program.
    EXPECT_EQ(a, runtime::graphFingerprint(chainGraph(truth),
                                           chainInitial(truth, 0.08)));
}

TEST(Fingerprint, SensitiveToPayloadsNoiseOrderingAndTag)
{
    const auto truth = chainTruth();
    const fg::Values shapes = chainInitial(truth, 0.01);
    const std::uint64_t base =
        runtime::graphFingerprint(chainGraph(truth), shapes);

    // Different measurement constants bake different LOADC payloads.
    auto shifted = truth;
    shifted.back() = shifted.back().retract(
        mat::Vector{0.05, 0.0, 0.0, 0.0, 0.0, 0.0});
    EXPECT_NE(base,
              runtime::graphFingerprint(chainGraph(shifted), shapes));

    // Different noise models scale the whitened system differently.
    fg::FactorGraph reweighted;
    reweighted.emplace<fg::PriorFactor>(1, truth[0],
                                        fg::isotropicSigmas(6, 0.02));
    for (std::size_t i = 1; i < truth.size(); ++i)
        reweighted.emplace<fg::IMUFactor>(
            i, i + 1, truth[i].ominus(truth[i - 1]),
            fg::isotropicSigmas(6, 0.05));
    EXPECT_NE(base, runtime::graphFingerprint(reweighted, shapes));

    // Factor registration order changes the instruction stream, so it
    // is (conservatively) a different program.
    fg::FactorGraph reordered;
    for (std::size_t i = 1; i < truth.size(); ++i)
        reordered.emplace<fg::IMUFactor>(
            i, i + 1, truth[i].ominus(truth[i - 1]),
            fg::isotropicSigmas(6, 0.05));
    reordered.emplace<fg::PriorFactor>(1, truth[0],
                                       fg::isotropicSigmas(6, 0.01));
    EXPECT_NE(base, runtime::graphFingerprint(reordered, shapes));

    // The coarse-grained OoO algorithm tag is part of the program.
    EXPECT_NE(base, runtime::graphFingerprint(chainGraph(truth), shapes,
                                              /*algorithm_tag=*/1));
}

// --- ServerPool ------------------------------------------------------

TEST(ServerPool, ParallelForRunsEveryIndexExactlyOnce)
{
    runtime::ServerPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    constexpr std::size_t kCount = 257; // Not a multiple of 4.
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ServerPool, ReportsPerThreadTotals)
{
    runtime::ServerPool pool(3);
    pool.parallelFor(64, [](std::size_t) {});

    const auto totals = pool.tasksExecuted();
    ASSERT_EQ(totals.size(), 3u);
    std::uint64_t sum = 0;
    for (std::uint64_t t : totals)
        sum += t;
    EXPECT_EQ(sum, 64u);
}

TEST(ServerPool, PropagatesExceptionsAndSurvivesThem)
{
    runtime::ServerPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error(
                                              "task 5 failed");
                                  }),
                 std::runtime_error);

    // The failed batch drained completely; the pool keeps serving.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&ran](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ServerPool, ZeroCountIsANoOp)
{
    runtime::ServerPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

// --- Concurrent serving ----------------------------------------------

TEST(Engine, ConcurrentRequestsOfOneGraphCompileOnce)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values shapes = chainInitial(truth, 0.01);

    // Pinned fp64: the compile-log fingerprint below is the unsalted
    // graph fingerprint (an fp32 engine would salt the cache key).
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    constexpr std::size_t kThreads = 8;
    std::vector<std::shared_ptr<const comp::Program>> got(kThreads);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&engine, &graph, &shapes, &got, t] {
                got[t] = engine.program(graph, shapes);
            });
        for (std::thread &thread : threads)
            thread.join();
    }

    // Single-flight: one compile, everyone shares one Program object.
    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t].get(), got[0].get());
    }
    EXPECT_EQ(engine.stats().compiles, 1u);
    EXPECT_EQ(engine.stats().cacheHits, kThreads - 1);
    EXPECT_EQ(engine.cachedPrograms(), 1u);

    ASSERT_EQ(engine.compileLog().size(), 1u);
    EXPECT_EQ(engine.compileLog()[0].fingerprint,
              runtime::graphFingerprint(graph, shapes));
    EXPECT_GT(engine.compileLog()[0].instructions, 0u);
}

// Plans are single-flight per program: eight threads opening sessions
// of one program at once schedule it exactly once, and every session
// replays that plan to the sequential values.
TEST(Engine, ConcurrentSessionOpensBuildOnePlan)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth, 0.01);
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    const auto program = engine.program(graph, initial);

    constexpr std::size_t kThreads = 8;
    std::vector<fg::Values> got(kThreads);
    std::atomic<std::size_t> arrived{0};
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                arrived.fetch_add(1);
                while (arrived.load() < kThreads)
                    std::this_thread::yield();
                runtime::Session session = engine.session(graph, initial);
                got[t] = session.iterate(2);
            });
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().compiles, 1u);

    runtime::Session sequential(program, initial,
                                hw::AcceleratorConfig::minimal(true));
    const fg::Values &want = sequential.iterate(2);
    for (std::size_t t = 0; t < kThreads; ++t)
        for (fg::Key key : want.keys()) {
            for (std::size_t c = 0; c < 3; ++c) {
                EXPECT_EQ(got[t].pose(key).phi()[c],
                          want.pose(key).phi()[c])
                    << "thread " << t << " pose " << key;
                EXPECT_EQ(got[t].pose(key).t()[c], want.pose(key).t()[c])
                    << "thread " << t << " pose " << key;
            }
        }
}

TEST(Engine, ConcurrentSessionsMatchSequentialByteForByte)
{
    // Two distinct mission graphs (different measurements), many
    // sessions each, served concurrently through one engine: every
    // session must land on exactly the values the sequential loop
    // produces, because parallelism is across sessions, never inside
    // a frame.
    const auto truth = chainTruth();
    auto shifted = truth;
    shifted.back() = shifted.back().retract(
        mat::Vector{0.05, 0.0, 0.0, 0.0, 0.0, 0.0});
    const std::vector<fg::FactorGraph> graphs = [&] {
        std::vector<fg::FactorGraph> out;
        out.push_back(chainGraph(truth));
        out.push_back(chainGraph(shifted));
        return out;
    }();

    constexpr std::size_t kSessions = 12;
    constexpr std::size_t kFrames = 3;
    auto solve = [&](runtime::ServerPool *pool) {
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
        std::vector<fg::Values> finals(kSessions);
        auto one = [&](std::size_t i) {
            runtime::Session session = engine.session(
                graphs[i % graphs.size()],
                chainInitial(truth, 0.01 * (1.0 + (i % 3))));
            session.iterate(kFrames);
            finals[i] = session.values();
        };
        if (pool != nullptr)
            pool->parallelFor(kSessions, one);
        else
            for (std::size_t i = 0; i < kSessions; ++i)
                one(i);
        return finals;
    };

    const std::vector<fg::Values> sequential = solve(nullptr);
    runtime::ServerPool pool(4);
    const std::vector<fg::Values> concurrent = solve(&pool);

    ASSERT_EQ(concurrent.size(), sequential.size());
    for (std::size_t i = 0; i < kSessions; ++i) {
        for (fg::Key key : sequential[i].keys()) {
            const lie::Pose &want = sequential[i].pose(key);
            const lie::Pose &got = concurrent[i].pose(key);
            for (std::size_t c = 0; c < want.phi().size(); ++c)
                EXPECT_EQ(got.phi()[c], want.phi()[c])
                    << "session " << i << " pose " << key;
            for (std::size_t c = 0; c < want.t().size(); ++c)
                EXPECT_EQ(got.t()[c], want.t()[c])
                    << "session " << i << " pose " << key;
        }
    }
}
