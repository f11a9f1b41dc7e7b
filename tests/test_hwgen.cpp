// Tests for constraint-based hardware generation (Sec. 6.2 / Equ. 5).

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "fg/factors.hpp"
#include "hwgen/generator.hpp"
#include "runtime/execution_context.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using fg::FactorGraph;
using fg::Values;
using hw::AcceleratorConfig;
using hw::Resources;
using hwgen::Objective;
using lie::Pose;

struct Fixture
{
    FactorGraph graph;
    Values values;
    comp::Program program;
};

Fixture
makeFixture(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    Fixture f;
    Pose current = Pose::identity(3);
    for (std::size_t i = 0; i < n; ++i) {
        f.values.insert(i,
                        current.retract(randomVector(6, rng, 0.05)));
        Pose step = randomPose(3, rng, 0.2, 1.0);
        if (i + 1 < n)
            f.graph.emplace<fg::BetweenFactor>(
                i, i + 1, step, fg::isotropicSigmas(6, 0.1));
        current = current.oplus(step);
    }
    f.graph.emplace<fg::PriorFactor>(0u, Pose::identity(3),
                                     fg::isotropicSigmas(6, 0.01));
    f.program = comp::compileGraph(f.graph, f.values);
    return f;
}

Resources
budgetTimes(double scale)
{
    const Resources minimal =
        AcceleratorConfig::minimal(true).resources();
    return {static_cast<std::size_t>(minimal.lut * scale),
            static_cast<std::size_t>(minimal.ff * scale),
            static_cast<std::size_t>(minimal.bram * scale),
            static_cast<std::size_t>(minimal.dsp * scale)};
}

TEST(Hwgen, GeneratedFitsBudgetAndImproves)
{
    Fixture f = makeFixture(8, 51);
    const Resources budget = budgetTimes(3.0);
    auto gen = hwgen::generate({{&f.program, &f.values}}, budget);

    EXPECT_TRUE(gen.config.resources().fitsIn(budget));
    ASSERT_GE(gen.trajectory.size(), 1u);
    // The final design is at least as fast as the starting point.
    EXPECT_LE(gen.result.cycles, gen.trajectory.front().result.cycles);
    // The greedy trajectory is monotone in the objective.
    for (std::size_t i = 1; i < gen.trajectory.size(); ++i)
        EXPECT_LE(hwgen::objectiveValue(gen.trajectory[i].result,
                                        Objective::AvgLatency),
                  hwgen::objectiveValue(gen.trajectory[i - 1].result,
                                        Objective::AvgLatency));
}

TEST(Hwgen, GeneratedBeatsManualUnderSameBudget)
{
    // The Fig. 19 claim: workload-driven replication beats uniform
    // replication at equal resources.
    Fixture f = makeFixture(10, 52);
    const Resources budget = budgetTimes(2.5);

    auto gen = hwgen::generate({{&f.program, &f.values}}, budget);
    const AcceleratorConfig manual = hwgen::manualDesign(budget);
    ASSERT_TRUE(manual.resources().fitsIn(budget));
    auto manual_sim =
        runtime::ExecutionContext({{&f.program, &f.values}}).run(manual);

    EXPECT_LE(gen.result.cycles, manual_sim.cycles);
}

TEST(Hwgen, LargerBudgetNeverHurts)
{
    Fixture f = makeFixture(8, 53);
    auto small = hwgen::generate({{&f.program, &f.values}},
                                 budgetTimes(1.5));
    auto large = hwgen::generate({{&f.program, &f.values}},
                                 budgetTimes(4.0));
    EXPECT_LE(large.result.cycles, small.result.cycles);
    EXPECT_GE(large.config.resources().lut,
              small.config.resources().lut);
}

TEST(Hwgen, EnergyObjectiveMinimizesEnergy)
{
    Fixture f = makeFixture(8, 54);
    const Resources budget = budgetTimes(3.0);
    auto for_energy = hwgen::generate({{&f.program, &f.values}}, budget,
                                      Objective::Energy);
    auto for_latency = hwgen::generate({{&f.program, &f.values}},
                                       budget, Objective::AvgLatency);
    EXPECT_LE(for_energy.result.totalEnergyJ(),
              for_latency.result.totalEnergyJ() * 1.001);
}

TEST(Hwgen, TinyBudgetRejected)
{
    Fixture f = makeFixture(4, 55);
    EXPECT_THROW(
        hwgen::generate({{&f.program, &f.values}}, Resources{1, 1, 1, 1}),
        std::invalid_argument);
}

TEST(Hwgen, ManualDesignUniform)
{
    const AcceleratorConfig manual =
        hwgen::manualDesign(budgetTimes(3.0));
    for (std::size_t k = 1; k < hw::kUnitKindCount; ++k)
        EXPECT_EQ(manual.units[k], manual.units[0]);
    EXPECT_GE(manual.units[0], 1u);
}

} // namespace
