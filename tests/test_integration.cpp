// Cross-module integration tests: software path vs accelerator path
// on whole applications, scheduling invariants, and end-to-end
// reproduction properties that the benches rely on.

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/sphere.hpp"
#include "baselines/platform_models.hpp"
#include "baselines/stack_model.hpp"
#include "hwgen/generator.hpp"
#include "runtime/execution_context.hpp"

namespace {

using namespace orianna;
using apps::AppKind;
using hw::AcceleratorConfig;

// gtest names each instance after a byte dump of its parameter, so the
// struct must have no implicit padding: uninitialized padding put stack
// garbage into the test names and made them differ from run to run.
struct Case
{
    Case(AppKind kind, unsigned seed) : kind(kind), seed(seed) {}

    AppKind kind;
    std::uint8_t reserved[3] = {};
    unsigned seed;
};
static_assert(sizeof(Case) ==
                  sizeof(AppKind) + 3 + sizeof(unsigned),
              "Case must stay free of implicit padding");

class CrossPath : public ::testing::TestWithParam<Case>
{};

TEST_P(CrossPath, AcceleratorTracksSoftwareValues)
{
    // Beyond the boolean Tbl. 5 parity: the optimized states of the
    // two paths agree numerically on every variable.
    apps::BenchmarkApp bench =
        apps::buildApp(GetParam().kind, GetParam().seed);
    const auto sw = bench.app.solveSoftware(10);
    const auto accel = bench.app.solveAccelerated(
        AcceleratorConfig::minimal(true), 10);

    ASSERT_EQ(sw.size(), accel.size());
    for (std::size_t a = 0; a < sw.size(); ++a) {
        for (fg::Key key : sw[a].keys()) {
            if (sw[a].isPose(key)) {
                EXPECT_LT(lie::poseDistance(sw[a].pose(key),
                                            accel[a].pose(key)),
                          2e-3)
                    << "algorithm " << a << " key " << key;
            } else {
                EXPECT_LT(mat::maxDifference(sw[a].vector(key),
                                             accel[a].vector(key)),
                          2e-3)
                    << "algorithm " << a << " key " << key;
            }
        }
    }
}

TEST_P(CrossPath, InOrderAndOutOfOrderAgreeFunctionally)
{
    // Scheduling must never change the numerics, only the timing.
    apps::BenchmarkApp bench =
        apps::buildApp(GetParam().kind, GetParam().seed);
    const auto work = bench.app.frameWork();
    const auto ooo =
        runtime::ExecutionContext(work).run(AcceleratorConfig::minimal(true));
    const auto io = runtime::ExecutionContext(work).run(
        AcceleratorConfig::minimal(false));
    ASSERT_EQ(ooo.deltas.size(), io.deltas.size());
    for (std::size_t w = 0; w < ooo.deltas.size(); ++w)
        for (const auto &[key, delta] : ooo.deltas[w])
            EXPECT_LT(mat::maxDifference(delta, io.deltas[w].at(key)),
                      1e-14);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, CrossPath,
    ::testing::Values(Case{AppKind::MobileRobot, 2},
                      Case{AppKind::Manipulator, 3},
                      Case{AppKind::AutoVehicle, 4},
                      Case{AppKind::Quadrotor, 5}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(apps::appName(info.param.kind)) +
               std::to_string(info.param.seed);
    });

TEST(Scheduling, BusyCyclesRespectUnitCapacity)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 6);
    const auto work = bench.app.frameWork();
    AcceleratorConfig config = AcceleratorConfig::minimal(true);
    config.count(hw::UnitKind::MatMul) = 3;
    config.count(hw::UnitKind::Buffer) = 2;
    const auto sim = runtime::ExecutionContext(work).run(config);

    // No unit kind can be busier than (instances x makespan).
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        EXPECT_LE(sim.unitBusyCycles[k],
                  static_cast<std::uint64_t>(config.units[k]) *
                      sim.cycles)
            << hw::unitName(static_cast<hw::UnitKind>(k));
    }
    // Every algorithm finishes within the makespan.
    for (const auto &[tag, finish] : sim.algorithmFinishCycle)
        EXPECT_LE(finish, sim.cycles);
}

TEST(Scheduling, CompilationIsDeterministic)
{
    apps::BenchmarkApp a = apps::buildApp(apps::AppKind::Quadrotor, 9);
    apps::BenchmarkApp b = apps::buildApp(apps::AppKind::Quadrotor, 9);
    for (std::size_t i = 0; i < a.app.size(); ++i) {
        const auto &pa = a.app.algorithm(i).program;
        const auto &pb = b.app.algorithm(i).program;
        ASSERT_EQ(pa.instructions.size(), pb.instructions.size());
        for (std::size_t j = 0; j < pa.instructions.size(); ++j) {
            EXPECT_EQ(pa.instructions[j].op, pb.instructions[j].op);
            EXPECT_EQ(pa.instructions[j].dst, pb.instructions[j].dst);
        }
    }
}

TEST(Baselines, OrderingAcrossPlatformsHolds)
{
    // The qualitative Fig. 13/16 ordering must hold for every app,
    // not just in aggregate.
    for (AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildApp(kind, 7);
        const auto work = bench.app.frameWork();
        const auto arm = baselines::runOnCpu(baselines::arm(), work);
        const auto intel =
            baselines::runOnCpu(baselines::intel(), work);
        const auto accel = runtime::ExecutionContext(work).run(
            AcceleratorConfig::minimal(true));
        EXPECT_GT(arm.seconds, intel.seconds) << apps::appName(kind);
        EXPECT_GT(intel.seconds, accel.seconds())
            << apps::appName(kind);
    }
}

TEST(Baselines, StackBeatsSharedOnLatencyButNotResources)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::AutoVehicle, 8);
    const auto work = bench.app.frameWork();
    const hw::Resources budget{131000, 262000, 327, 540};

    auto shared = hwgen::generate(work, budget,
                                  hwgen::Objective::AvgLatency, true);
    auto stack = baselines::runStack(work, budget);

    // Three dedicated accelerators in parallel are at least as fast...
    EXPECT_LE(stack.frameSeconds, shared.result.seconds() * 1.2);
    // ...but cost far more resources than the shared design.
    EXPECT_GT(stack.totalResources.lut,
              shared.config.resources().lut * 3 / 2);
}

TEST(Sphere, BothRepresentationsBeatDeadReckoning)
{
    auto data = apps::makeSphere(6, 10, 10.0, 11, 0.01, 0.05);
    const auto initial = apps::computeAte(data.initial, data.truth);
    const auto unified =
        apps::computeAte(apps::optimizeSphereUnified(data), data.truth);
    const auto se3 =
        apps::computeAte(apps::optimizeSphereSe3(data), data.truth);
    EXPECT_LT(unified.mean, initial.mean / 4.0);
    EXPECT_LT(se3.mean, initial.mean / 4.0);
}

TEST(Hwgen, GeneratedConfigServesBothSchedulers)
{
    // The IO variant of a generated config must stay functional (the
    // Fig. 13/14 measurement depends on it).
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Manipulator, 12);
    const auto work = bench.app.frameWork();
    auto gen = hwgen::generate(work, hw::Resources{131000, 262000, 327,
                                                   540});
    hw::AcceleratorConfig io = gen.config;
    io.outOfOrder = false;
    const auto sim = runtime::ExecutionContext(work).run(io);
    EXPECT_GT(sim.cycles, gen.result.cycles);
    EXPECT_EQ(sim.deltas.size(), work.size());
}

} // namespace
