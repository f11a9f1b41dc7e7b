// Tests for the Application API, the four Tbl. 4 benchmark
// applications, the sphere validation benchmark of Sec. 4.3, and the
// agreement of the compiler, batch and incremental elimination walks
// on those applications and the pose-graph corpus.

#include <array>
#include <cstring>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "apps/sphere.hpp"
#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "fg/eliminate.hpp"
#include "fg/incremental.hpp"
#include "fg/ordering.hpp"
#include "matrix/mac_counter.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace orianna;
using apps::AppKind;
using apps::BenchmarkApp;
using hw::AcceleratorConfig;

TEST(Application, RegistrationAndCompile)
{
    BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 1);
    core::Application &app = bench.app;
    EXPECT_EQ(app.size(), 3u);
    EXPECT_NE(app.find("localization"), nullptr);
    EXPECT_NE(app.find("planning"), nullptr);
    EXPECT_NE(app.find("control"), nullptr);
    EXPECT_EQ(app.find("nonsense"), nullptr);

    const auto work = app.frameWork();
    ASSERT_EQ(work.size(), 3u);
    // Algorithm tags are distinct (coarse-grained OoO labels).
    EXPECT_EQ(work[0].program->algorithm, 0);
    EXPECT_EQ(work[1].program->algorithm, 1);
    EXPECT_EQ(work[2].program->algorithm, 2);
    for (const auto &item : work)
        EXPECT_GT(item.program->instructions.size(), 50u);

    // Dense (VANILLA-HLS) variants exist and are bigger in QR shape.
    const auto dense = app.denseFrameWork();
    ASSERT_EQ(dense.size(), 3u);
}

TEST(Application, BadRateRejected)
{
    core::Application app("x");
    EXPECT_THROW(app.add("a", fg::FactorGraph{}, fg::Values{}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(app.frameWork(), std::logic_error);
}

/** Every double of @p a and @p b has the same bit pattern. */
bool
bitIdentical(const fg::Values &a, const fg::Values &b)
{
    const auto same = [](const mat::Vector &x, const mat::Vector &y) {
        return x.size() == y.size() &&
               std::memcmp(x.data().data(), y.data().data(),
                           x.size() * sizeof(double)) == 0;
    };
    if (a.keys() != b.keys())
        return false;
    for (fg::Key key : a.keys()) {
        if (a.isPose(key) != b.isPose(key))
            return false;
        if (a.isPose(key) ? !same(a.pose(key).phi(), b.pose(key).phi()) ||
                                !same(a.pose(key).t(), b.pose(key).t())
                          : !same(a.vector(key), b.vector(key)))
            return false;
    }
    return true;
}

TEST(BuildMission, IsBuildAppWithoutTheCompile)
{
    // The served path builds missions only; buildApp adds the
    // compile. Both must see the same graphs and values, and compiling
    // the mission must give buildApp's programs byte for byte.
    for (const AppKind kind : apps::allApps()) {
        for (const unsigned seed : {1u, 7u, 4000000000u}) {
            SCOPED_TRACE(std::string(apps::appName(kind)) + " seed " +
                         std::to_string(seed));
            const BenchmarkApp compiled = apps::buildApp(kind, seed);
            BenchmarkApp mission = apps::buildMission(kind, seed);
            ASSERT_EQ(mission.app.name(), compiled.app.name());
            ASSERT_EQ(mission.app.size(), compiled.app.size());
            EXPECT_TRUE(static_cast<bool>(mission.check));
            for (std::size_t i = 0; i < mission.app.size(); ++i) {
                const core::Algorithm &got = mission.app.algorithm(i);
                const core::Algorithm &want = compiled.app.algorithm(i);
                EXPECT_EQ(got.name, want.name);
                EXPECT_EQ(got.rateHz, want.rateHz);
                EXPECT_EQ(got.stepScale, want.stepScale);
                EXPECT_EQ(runtime::graphFingerprint(got.graph, got.values),
                          runtime::graphFingerprint(want.graph,
                                                    want.values))
                    << got.name;
                EXPECT_TRUE(bitIdentical(got.values, want.values))
                    << got.name;
            }
            EXPECT_THROW((void)mission.app.frameWork(), std::logic_error);

            mission.app.compile();
            for (std::size_t i = 0; i < mission.app.size(); ++i) {
                const core::Algorithm &got = mission.app.algorithm(i);
                const core::Algorithm &want = compiled.app.algorithm(i);
                EXPECT_EQ(comp::encodeProgram(got.program),
                          comp::encodeProgram(want.program))
                    << got.name;
                EXPECT_EQ(comp::encodeProgram(got.referenceProgram),
                          comp::encodeProgram(want.referenceProgram))
                    << got.name;
                EXPECT_EQ(comp::encodeProgram(got.denseProgram),
                          comp::encodeProgram(want.denseProgram))
                    << got.name;
            }
        }
    }
}

class AllAppsSolve : public ::testing::TestWithParam<AppKind>
{};

TEST_P(AllAppsSolve, SoftwareMissionSucceeds)
{
    BenchmarkApp bench = apps::buildApp(GetParam(), 7);
    const auto solved = bench.app.solveSoftware();
    EXPECT_TRUE(bench.success(solved))
        << apps::appName(GetParam()) << " software mission failed";
}

TEST_P(AllAppsSolve, AcceleratorMatchesSoftwareMission)
{
    // The Tbl. 5 property: identical missions succeed or fail the
    // same way on the software path and on the simulated accelerator.
    BenchmarkApp bench = apps::buildApp(GetParam(), 11);
    const auto sw = bench.app.solveSoftware();
    const auto hw_solved = bench.app.solveAccelerated(
        AcceleratorConfig::minimal(true), 15);
    EXPECT_EQ(bench.success(sw), bench.success(hw_solved))
        << apps::appName(GetParam());
}

TEST_P(AllAppsSolve, DimensionsMatchTable4)
{
    BenchmarkApp bench = apps::buildApp(GetParam(), 3);
    const core::Application &app = bench.app;
    const fg::Values &loc = app.algorithm(0).values;
    const fg::Values &plan = app.algorithm(1).values;

    std::size_t loc_dim = 0;
    for (fg::Key key : loc.keys()) {
        if (loc.isPose(key)) {
            loc_dim = loc.pose(key).dof();
            break;
        }
        loc_dim = loc.vector(key).size();
        break;
    }
    std::size_t plan_dim = plan.dof(plan.keys().front());

    switch (GetParam()) {
      case AppKind::MobileRobot:
        EXPECT_EQ(loc_dim, 3u);
        EXPECT_EQ(plan_dim, 6u);
        break;
      case AppKind::Manipulator:
        EXPECT_EQ(loc_dim, 2u);
        EXPECT_EQ(plan_dim, 4u);
        break;
      case AppKind::AutoVehicle:
        EXPECT_EQ(loc_dim, 3u);
        EXPECT_EQ(plan_dim, 6u);
        break;
      case AppKind::Quadrotor:
        EXPECT_EQ(loc_dim, 6u);
        EXPECT_EQ(plan_dim, 12u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AllAppsSolve,
    ::testing::ValuesIn(apps::allApps()),
    [](const ::testing::TestParamInfo<AppKind> &info) {
        return apps::appName(info.param);
    });

// --- Sphere benchmark -------------------------------------------------------

TEST(Sphere, DatasetShape)
{
    auto data = apps::makeSphere(6, 12, 10.0, 1);
    EXPECT_EQ(data.truth.size(), 72u);
    EXPECT_EQ(data.initial.size(), 72u);
    // Odometry (n-1) plus loop closures (n - per_ring).
    EXPECT_EQ(data.edges.size(), 71u + 60u);
    // Dead reckoning drifts away from the truth.
    const auto initial_ate = apps::computeAte(data.initial, data.truth);
    EXPECT_GT(initial_ate.max, 0.1);
}

TEST(Sphere, UnifiedOptimizationRecoversTrajectory)
{
    auto data = apps::makeSphere(6, 12, 10.0, 2, 0.002, 0.01);
    const auto optimized = apps::optimizeSphereUnified(data);
    const auto ate = apps::computeAte(optimized, data.truth);
    const auto initial_ate = apps::computeAte(data.initial, data.truth);
    EXPECT_LT(ate.mean, initial_ate.mean / 3.0);
    EXPECT_LT(ate.mean, 0.06);
}

TEST(Sphere, Se3MatchesUnifiedAccuracy)
{
    // Tbl. 1: both representations reach the same accuracy.
    auto data = apps::makeSphere(5, 10, 10.0, 3);
    const auto unified = apps::optimizeSphereUnified(data);
    const auto se3 = apps::optimizeSphereSe3(data);
    const auto ate_unified = apps::computeAte(unified, data.truth);
    const auto ate_se3 = apps::computeAte(se3, data.truth);
    EXPECT_NEAR(ate_unified.mean, ate_se3.mean,
                0.25 * std::max(ate_unified.mean, ate_se3.mean) + 0.01);
}

TEST(Sphere, UnifiedSavesMacs)
{
    // The Sec. 4.3 efficiency claim, measured end to end.
    auto data = apps::makeSphere(4, 8, 10.0, 4);

    mat::MacCounter::reset();
    (void)apps::optimizeSphereUnified(data, 5);
    const std::uint64_t unified_macs = mat::MacCounter::value();

    mat::MacCounter::reset();
    (void)apps::optimizeSphereSe3(data, 5);
    const std::uint64_t se3_macs = mat::MacCounter::value();

    EXPECT_GT(unified_macs, 0u);
    EXPECT_GT(se3_macs, unified_macs);
}

// --- One elimination walk (DESIGN.md §13) -----------------------------------

/** A graph at its linearization point, named for failure messages. */
struct WalkCase
{
    std::string name;
    fg::FactorGraph graph;
    fg::Values values;
};

/** Every benchmark-app algorithm plus one graph per corpus family. */
std::vector<WalkCase>
walkCases()
{
    std::vector<WalkCase> cases;
    for (AppKind kind : apps::allApps()) {
        const BenchmarkApp bench = apps::buildApp(kind, 5);
        for (std::size_t i = 0; i < bench.app.size(); ++i) {
            const core::Algorithm &algo = bench.app.algorithm(i);
            cases.push_back({std::string(apps::appName(kind)) + "/" +
                                 algo.name,
                             algo.graph, algo.values});
        }
    }
    for (const apps::PoseGraphScenario &s :
         {apps::makeGarageWorld(5, 24, 1), apps::makeManhattanWorld(120, 1),
          apps::makeSphereWorld(6, 20, 1)})
        cases.push_back({s.name, s.graph(), s.initial});
    return cases;
}

TEST(EliminationWalk, CompiledQrShapesMatchSoftwareElimination)
{
    // The compiled program gathers and triangularizes exactly the
    // blocks fg::eliminate does: one QR per variable, same rows, same
    // triangularized columns, plus the augmented rhs column.
    for (const WalkCase &c : walkCases()) {
        comp::CompileOptions options;
        options.ordering = fg::ordering::minDegree(c.graph);
        fg::EliminationStats stats;
        fg::solveLinearSystem(c.graph.linearize(c.values),
                              options.ordering, &stats);
        const comp::Program program =
            comp::compileGraph(c.graph, c.values, options);

        std::vector<std::array<std::size_t, 3>> compiled;
        for (const comp::Instruction &inst : program.instructions)
            if (inst.op == comp::IsaOp::QR)
                compiled.push_back({inst.rows, inst.depth, inst.cols - 1});
        std::vector<std::array<std::size_t, 3>> software;
        for (const fg::OpShape &op : stats.qrOps)
            software.push_back({op.rows, op.cols, op.cols});
        EXPECT_EQ(software.size(), options.ordering.size()) << c.name;
        EXPECT_EQ(compiled, software) << c.name;
    }
}

TEST(EliminationWalk, IncrementalUpdateIsBitIdenticalToBatchSolve)
{
    // One whole-graph update() is a batch elimination at the initial
    // values in the smoother's ordering: same rows, same walk, same
    // arithmetic, so the estimates agree bit for bit.
    for (const WalkCase &c : walkCases()) {
        fg::IncrementalSmoother smoother;
        for (const auto &[key, value] : c.values)
            std::visit([&, k = key](const auto &v) {
                smoother.addVariable(k, v);
            }, value);
        for (const fg::FactorPtr &factor : c.graph)
            smoother.addFactor(factor);
        smoother.update();

        fg::Values batch = c.values;
        batch.retractAll(fg::solveLinearSystem(
            c.graph.linearize(c.values), smoother.ordering()));
        const fg::Values incremental = smoother.estimate();
        for (fg::Key key : batch.keys()) {
            if (batch.isPose(key)) {
                EXPECT_EQ(incremental.pose(key).phi().data(),
                          batch.pose(key).phi().data())
                    << c.name << " key " << key;
                EXPECT_EQ(incremental.pose(key).t().data(),
                          batch.pose(key).t().data())
                    << c.name << " key " << key;
            } else {
                EXPECT_EQ(incremental.vector(key).data(),
                          batch.vector(key).data())
                    << c.name << " key " << key;
            }
        }
    }
}

} // namespace
