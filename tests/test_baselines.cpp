// Tests for the platform models and the VANILLA-HLS / STACK baselines.

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "baselines/platform_models.hpp"
#include "baselines/stack_model.hpp"
#include "compiler/executor.hpp"
#include "runtime/execution_context.hpp"

namespace {

using namespace orianna;
using baselines::PlatformResult;
using hw::AcceleratorConfig;

TEST(Platforms, RelativeSpeedOrdering)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Quadrotor, 5);
    const auto work = bench.app.frameWork();

    const PlatformResult on_intel =
        baselines::runOnCpu(baselines::intel(), work);
    const PlatformResult on_arm =
        baselines::runOnCpu(baselines::arm(), work);
    const PlatformResult on_sw =
        baselines::runOnCpu(baselines::oriannaSw(), work);
    const PlatformResult on_gpu =
        baselines::runOnGpu(baselines::embeddedGpu(), work);
    const hw::SimResult accel =
        runtime::ExecutionContext(work).run(AcceleratorConfig::minimal(true));

    // The paper's ordering: ARM slowest, GPU ~2x ARM, Intel ~8x ARM,
    // accelerator fastest.
    EXPECT_GT(on_arm.seconds, on_gpu.seconds);
    EXPECT_GT(on_gpu.seconds, on_intel.seconds);
    EXPECT_GT(on_intel.seconds, accel.seconds());
    // ORIANNA-SW is faster than Intel, but by less than 15%.
    EXPECT_LT(on_sw.seconds, on_intel.seconds);
    EXPECT_GT(on_sw.seconds, on_intel.seconds * 0.8);
}

TEST(Platforms, PhaseSplitSumsToTotal)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 6);
    const auto work = bench.app.frameWork();
    for (const auto &result :
         {baselines::runOnCpu(baselines::intel(), work),
          baselines::runOnGpu(baselines::embeddedGpu(), work)}) {
        const double split = result.phaseSeconds[0] +
                             result.phaseSeconds[1] +
                             result.phaseSeconds[2];
        EXPECT_NEAR(split, result.seconds, 1e-12);
        EXPECT_GT(result.energyJ, 0.0);
    }
}

TEST(VanillaHls, DenseProgramMatchesSparseSolution)
{
    // Same math, no sparsity: the dense program must produce the same
    // delta as the factor-graph program.
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 7);
    const core::Algorithm &loc = bench.app.algorithm(0);

    comp::Executor sparse(loc.program);
    comp::Executor dense(loc.denseProgram);
    const auto d_sparse = sparse.run(loc.values);
    const auto d_dense = dense.run(loc.values);
    ASSERT_EQ(d_sparse.size(), d_dense.size());
    for (const auto &[key, delta] : d_sparse)
        EXPECT_LT(mat::maxDifference(delta, d_dense.at(key)), 1e-7);
}

TEST(VanillaHls, DenseIsSlowerOnTheSameUnits)
{
    // Fig. 16a: factor-graph sparsity is the speed difference.
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Quadrotor, 8);
    const AcceleratorConfig config = AcceleratorConfig::minimal(true);
    const hw::SimResult sparse =
        runtime::ExecutionContext(bench.app.frameWork()).run(config);
    const hw::SimResult dense =
        runtime::ExecutionContext(bench.app.denseFrameWork()).run(config);
    EXPECT_GT(dense.cycles, sparse.cycles);
    EXPECT_GT(dense.totalEnergyJ(), sparse.totalEnergyJ());
}

TEST(Stack, ThreeAcceleratorsSumResources)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 9);
    const auto work = bench.app.frameWork();
    const hw::Resources budget =
        AcceleratorConfig::minimal(true).resources() + hw::Resources{
            20000, 24000, 20, 80};
    const auto stack = baselines::runStack(work, budget);

    ASSERT_EQ(stack.configs.size(), 3u);
    // Summed resources exceed any single accelerator's budget use.
    EXPECT_GT(stack.totalResources.lut,
              stack.configs[0].resources().lut * 2);
    EXPECT_GT(stack.frameSeconds, 0.0);
    EXPECT_GT(stack.frameEnergyJ, 0.0);
    // Frame latency is the max of the parallel accelerators.
    double max_seconds = 0.0;
    for (const auto &sim : stack.perAlgorithm)
        max_seconds = std::max(max_seconds, sim.seconds());
    EXPECT_DOUBLE_EQ(stack.frameSeconds, max_seconds);
}

} // namespace
