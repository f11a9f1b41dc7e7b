// Tests for the accelerator simulator: functional equivalence with the
// reference executor, in-order vs out-of-order scheduling properties,
// resource accounting and the energy model.

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "fg/factors.hpp"
#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using hw::AcceleratorConfig;
using hw::SimResult;
using hw::UnitKind;
using lie::Pose;
using mat::Vector;
using runtime::ExecutionContext;

/** Small 3-D pose chain fixture. */
struct Fixture
{
    FactorGraph graph;
    Values values;
    Program program;

    std::vector<hw::WorkItem> work() const { return {{&program, &values}}; }
};

Fixture
makeFixture(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    Fixture f;
    Pose current = Pose::identity(3);
    std::vector<Pose> truth;
    for (std::size_t i = 0; i < n; ++i) {
        truth.push_back(current);
        f.values.insert(i,
                        current.retract(randomVector(6, rng, 0.05)));
        Pose step = randomPose(3, rng, 0.2, 1.0);
        if (i + 1 < n)
            f.graph.emplace<fg::BetweenFactor>(
                i, i + 1, step, fg::isotropicSigmas(6, 0.1));
        current = current.oplus(step);
    }
    f.graph.emplace<fg::PriorFactor>(0u, truth[0],
                                     fg::isotropicSigmas(6, 0.01));
    f.program = comp::compileGraph(f.graph, f.values);
    return f;
}

TEST(Accelerator, FunctionalMatchesReferenceExecutor)
{
    Fixture f = makeFixture(5, 41);
    comp::Executor reference(f.program);
    const auto expected = reference.run(f.values);

    for (bool ooo : {false, true}) {
        SimResult sim =
            ExecutionContext(f.work()).run(AcceleratorConfig::minimal(ooo));
        ASSERT_EQ(sim.deltas.size(), 1u);
        for (const auto &[key, delta] : expected)
            EXPECT_LT(mat::maxDifference(sim.deltas[0].at(key), delta),
                      1e-12)
                << "ooo=" << ooo << " key=" << key;
    }
}

TEST(Accelerator, OutOfOrderIsFaster)
{
    Fixture f = makeFixture(8, 42);
    SimResult io =
        ExecutionContext(f.work()).run(AcceleratorConfig::minimal(false));
    SimResult ooo =
        ExecutionContext(f.work()).run(AcceleratorConfig::minimal(true));
    EXPECT_LT(ooo.cycles, io.cycles);
    // Same work, same compute energy.
    EXPECT_NEAR(ooo.dynamicEnergyJ, io.dynamicEnergyJ, 1e-15);
    // The in-order controller round-trips operands through DRAM and
    // burns idle static energy over the longer makespan.
    EXPECT_GT(io.memoryEnergyJ, ooo.memoryEnergyJ);
    EXPECT_GT(io.staticEnergyJ, ooo.staticEnergyJ);
    EXPECT_GT(io.totalEnergyJ(), ooo.totalEnergyJ());
}

TEST(Accelerator, MoreUnitsNeverSlower)
{
    Fixture f = makeFixture(6, 43);
    AcceleratorConfig small = AcceleratorConfig::minimal(true);
    AcceleratorConfig big = small;
    for (auto &count : big.units)
        count = 4;
    SimResult s = ExecutionContext(f.work()).run(small);
    SimResult b = ExecutionContext(f.work()).run(big);
    EXPECT_LE(b.cycles, s.cycles);
}

TEST(Accelerator, CoarseGrainedOooOverlapsAlgorithms)
{
    // Two independent algorithms: running them on one OoO accelerator
    // must take less than the sum of their standalone makespans
    // (coarse-grained out-of-order execution, Sec. 6.3).
    Fixture a = makeFixture(6, 44);
    Fixture b = makeFixture(6, 45);
    comp::CompileOptions options;
    options.algorithmTag = 1;
    Program program_b = comp::compileGraph(b.graph, b.values, options);

    AcceleratorConfig config = AcceleratorConfig::minimal(true);
    SimResult only_a = ExecutionContext(a.work()).run(config);
    SimResult only_b = ExecutionContext({{&program_b, &b.values}}).run(config);
    SimResult both = ExecutionContext(
        {{&a.program, &a.values}, {&program_b, &b.values}}).run(config);

    EXPECT_LT(both.cycles, only_a.cycles + only_b.cycles);
    EXPECT_EQ(both.algorithmFinishCycle.size(), 2u);
    EXPECT_GE(both.algorithmFinishCycle.at(0),
              std::min(only_a.cycles, only_b.cycles) / 2);
}

TEST(Accelerator, PhaseBreakdownCoversAllBusyCycles)
{
    Fixture f = makeFixture(6, 46);
    SimResult sim =
        ExecutionContext(f.work()).run(AcceleratorConfig::minimal(true));
    std::uint64_t by_phase = sim.phaseBusyCycles[0] +
                             sim.phaseBusyCycles[1] +
                             sim.phaseBusyCycles[2];
    std::uint64_t by_unit = 0;
    for (std::uint64_t c : sim.unitBusyCycles)
        by_unit += c;
    EXPECT_EQ(by_phase, by_unit);
    EXPECT_GT(sim.phaseBusyCycles[0], 0u); // Construction.
    EXPECT_GT(sim.phaseBusyCycles[1], 0u); // Decomposition.
    EXPECT_GT(sim.phaseBusyCycles[2], 0u); // Back substitution.
}

TEST(Accelerator, IteratedStepsConverge)
{
    Fixture f = makeFixture(5, 47);
    runtime::Session session(
        std::shared_ptr<const Program>(std::shared_ptr<const void>(),
                                       &f.program),
        f.values, AcceleratorConfig::minimal(true));
    session.iterate(6);
    EXPECT_LT(f.graph.totalError(session.values()), 1e-9);
    EXPECT_GT(session.totals().cycles, 0u);
}

TEST(Accelerator, ZeroUnitConfigRejected)
{
    Fixture f = makeFixture(3, 48);
    AcceleratorConfig config = AcceleratorConfig::minimal(true);
    config.count(UnitKind::Qr) = 0;
    EXPECT_THROW(ExecutionContext(f.work()).run(config),
                 std::invalid_argument);
}

TEST(CostModel, ResourcesScaleWithUnits)
{
    AcceleratorConfig one = AcceleratorConfig::minimal(true);
    AcceleratorConfig two = one;
    for (auto &count : two.units)
        count = 2;
    const hw::Resources r1 = one.resources();
    const hw::Resources r2 = two.resources();
    EXPECT_GT(r2.lut, r1.lut);
    EXPECT_GT(r2.dsp, r1.dsp);
    // Controller overhead is fixed, so doubling units less than
    // doubles the totals.
    EXPECT_LT(r2.lut, 2 * r1.lut);
}

TEST(CostModel, LatencyGrowsWithShape)
{
    comp::Instruction small;
    small.op = comp::IsaOp::QR;
    small.rows = 6;
    small.cols = 7;
    small.depth = 6;
    comp::Instruction large = small;
    large.rows = 60;
    large.cols = 61;
    large.depth = 60;
    EXPECT_LT(hw::CostModel::latency(small),
              hw::CostModel::latency(large));
    EXPECT_LT(hw::instructionMacs(small), hw::instructionMacs(large));
}

TEST(Accelerator, TraceRecordsSchedule)
{
    Fixture f = makeFixture(4, 49);
    AcceleratorConfig config = AcceleratorConfig::minimal(true);
    config.recordTrace = true;
    config.count(UnitKind::MatMul) = 2;
    SimResult sim = ExecutionContext(f.work()).run(config);

    ASSERT_EQ(sim.trace.size(), f.program.instructions.size());
    for (const auto &event : sim.trace) {
        EXPECT_LT(event.startCycle, event.endCycle);
        EXPECT_LE(event.endCycle, sim.cycles);
        EXPECT_LT(event.instance, config.count(event.unit));
    }
    // Events on the same unit instance never overlap.
    std::map<std::pair<int, unsigned>,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        lanes;
    for (const auto &event : sim.trace)
        lanes[{static_cast<int>(event.unit), event.instance}]
            .emplace_back(event.startCycle, event.endCycle);
    for (auto &[lane, spans] : lanes) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i)
            EXPECT_LE(spans[i - 1].second, spans[i].first);
    }
    // Off by default.
    SimResult quiet =
        ExecutionContext(f.work()).run(AcceleratorConfig::minimal(true));
    EXPECT_TRUE(quiet.trace.empty());
}

TEST(CostModel, EveryOpcodeHasAUnit)
{
    for (int op = 0; op <= static_cast<int>(comp::IsaOp::STORE); ++op) {
        comp::Instruction inst;
        inst.op = static_cast<comp::IsaOp>(op);
        inst.rows = 3;
        inst.cols = 3;
        inst.depth = 3;
        EXPECT_GE(hw::CostModel::latency(inst), 1u)
            << comp::isaOpName(inst.op);
        EXPECT_GE(hw::CostModel::dynamicEnergyNj(inst), 0.0);
    }
}

} // namespace
