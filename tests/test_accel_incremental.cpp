// Incremental solving on the accelerator path (DESIGN.md §13): the
// AcceleratedSmoother against the CPU reference smoother, the
// bit-identity of device-incremental vs device-batch at a fixed
// linearization point, shape-cache amortization, the degradation
// ladder, and ProgramStore round trips of update programs.

#include <cstdio>
#include <filesystem>
#include <random>

#include <gtest/gtest.h>

#include "apps/pose_graph.hpp"
#include "fg/eliminate.hpp"
#include "fg/factors.hpp"
#include "fg/incremental.hpp"
#include "fg/optimizer.hpp"
#include "runtime/incremental.hpp"

using namespace orianna;
using apps::PoseGraphFrame;
using apps::PoseGraphScenario;

namespace {

hw::AcceleratorConfig
config()
{
    return hw::AcceleratorConfig::minimal(true);
}

/** Replay a scenario through any smoother-shaped object. */
template <typename Smoother>
void
replay(Smoother &smoother, const PoseGraphScenario &scenario,
       std::size_t frames = SIZE_MAX)
{
    const std::size_t n = std::min(frames, scenario.frames.size());
    for (std::size_t i = 0; i < n; ++i) {
        const PoseGraphFrame &frame = scenario.frames[i];
        smoother.addVariable(frame.key,
                             scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        smoother.update();
    }
}

double
maxTrajectoryDelta(const fg::Values &a, const fg::Values &b)
{
    double worst = 0.0;
    for (fg::Key key : a.keys())
        worst = std::max(
            worst, (a.pose(key).t() - b.pose(key).t()).norm());
    return worst;
}

/** Never relinearize after the first frame (fixed-point regime). */
fg::IncrementalParams
frozenParams()
{
    fg::IncrementalParams params;
    params.relinearizeInterval = 0;
    params.relinearizeThreshold = 1e18;
    return params;
}

/** Engine options pinned to @p precision whatever ORIANNA_PRECISION says. */
runtime::EngineOptions
pinnedPrecision(comp::Precision precision)
{
    runtime::EngineOptions options;
    options.precision = precision;
    return options;
}

/**
 * Estimates of the frozen-linearization manhattan run, solved
 * incrementally on-device and as one all-factors device batch at the
 * same linearization point, on an engine of @p precision.
 */
struct IncrementalVsBatch
{
    fg::Values incremental;
    fg::Values batch;
    std::size_t acceleratedFrames = 0;
};

IncrementalVsBatch
solveIncrementalAndBatch(comp::Precision precision)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(50, /*seed=*/3);

    runtime::Engine engine(config(), pinnedPrecision(precision));
    runtime::AcceleratedSmootherOptions options;
    options.params = frozenParams();

    // Incremental: one frame at a time, suffix updates on-device.
    runtime::AcceleratedSmoother incremental(engine, options);
    replay(incremental, scenario);

    // Batch: everything in one update — a single relinearize-all
    // frame on the batch reference rung, at the same linearization
    // point (the shared scenario.initial guesses).
    runtime::AcceleratedSmoother batch(engine, options);
    for (const PoseGraphFrame &frame : scenario.frames)
        batch.addVariable(frame.key,
                          scenario.initial.pose(frame.key));
    for (const PoseGraphFrame &frame : scenario.frames)
        for (const fg::FactorPtr &factor : frame.factors)
            batch.addFactor(factor);
    batch.update();

    return {incremental.estimate(), batch.estimate(),
            incremental.stats().acceleratedFrames};
}

} // namespace

// The accelerated smoother follows the CPU reference smoother within
// floating-point noise across a full nonlinear manhattan run (the
// device QR is a Givens array, the host reference is Householder, so
// cross-path agreement is tolerance-based, not bit-exact).
TEST(AccelIncremental, TracksCpuSmootherOnManhattan)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(60, /*seed=*/7);
    ASSERT_GT(scenario.loopClosureFrames(), 0u);

    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);

    runtime::Engine engine(config());
    runtime::AcceleratedSmoother accel(engine);
    replay(accel, scenario);

    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
    EXPECT_GT(accel.stats().acceleratedFrames, 0u);
    EXPECT_GT(accel.stats().batchFrames, 0u);
}

// Tentpole bit-identity: with the linearization point frozen, an
// incremental device run and a single all-factors-at-once device
// batch eliminate the same rows in the same canonical order through
// the same Givens kernel — the results must agree bit for bit.
TEST(AccelIncremental, IncrementalMatchesDeviceBatchBitIdentical)
{
    // Pinned fp64: bit identity is the fp64 contract (the fp32
    // counterpart below is a tolerance check).
    const IncrementalVsBatch run =
        solveIncrementalAndBatch(comp::Precision::Fp64);
    const fg::Values &a = run.incremental;
    const fg::Values &b = run.batch;
    ASSERT_EQ(a.keys(), b.keys());
    for (fg::Key key : a.keys()) {
        const lie::Pose &pa = a.pose(key);
        const lie::Pose &pb = b.pose(key);
        for (std::size_t i = 0; i < pa.phi().size(); ++i)
            EXPECT_EQ(pa.phi()[i], pb.phi()[i]) << "pose " << key;
        for (std::size_t i = 0; i < pa.t().size(); ++i)
            EXPECT_EQ(pa.t()[i], pb.t()[i]) << "pose " << key;
    }
    EXPECT_GT(run.acceleratedFrames, 0u);
}

// The same scenario on the fp32 datapath: the device frames round
// differently from the batch rung, so the two agree to a tolerance.
TEST(AccelIncremental, Fp32IncrementalTracksDeviceBatch)
{
    const IncrementalVsBatch run =
        solveIncrementalAndBatch(comp::Precision::Fp32);
    ASSERT_EQ(run.incremental.keys(), run.batch.keys());
    EXPECT_LT(maxTrajectoryDelta(run.incremental, run.batch), 1e-5);
    EXPECT_GT(run.acceleratedFrames, 0u);
}

// Two identical accelerated runs are bit-identical (deterministic
// device kernels, deterministic schedule).
TEST(AccelIncremental, AcceleratedRunsAreDeterministic)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/11);
    runtime::Engine engine(config());

    runtime::AcceleratedSmoother first(engine);
    replay(first, scenario);
    runtime::AcceleratedSmoother second(engine);
    replay(second, scenario);

    EXPECT_EQ(maxTrajectoryDelta(first.estimate(),
                                 second.estimate()),
              0.0);
}

// Full nonlinear corpus agreement: every corpus scenario optimized
// incrementally on-device lands within 1e-6 of the batch Gauss-
// Newton solution of the same graph. A tight relinearization
// threshold plus a few factor-less polish updates (which relinearize
// on that threshold — the early-return bugfix) drive the incremental
// run to the same fixed point the batch solver converges to.
TEST(AccelIncremental, CorpusScenariosAgreeWithBatchSolve)
{
    runtime::Engine engine(config());
    const PoseGraphScenario corpus[] = {
        apps::makeManhattanWorld(60, 5),
        apps::makeSphereWorld(4, 12, 5),
        apps::makeGarageWorld(3, 12, 5),
    };
    for (const PoseGraphScenario &scenario : corpus) {
        SCOPED_TRACE(scenario.name);
        ASSERT_GT(scenario.loopClosureFrames(), 0u);

        runtime::AcceleratedSmootherOptions options;
        options.params.relinearizeThreshold = 1e-5;
        runtime::AcceleratedSmoother accel(engine, options);
        replay(accel, scenario);
        for (int polish = 0; polish < 3; ++polish)
            accel.update();

        // Batch Gauss-Newton on the flattened graph, started from
        // the same initial guesses.
        fg::GaussNewtonParams gn;
        gn.maxIterations = 20;
        fg::Values batch =
            fg::optimize(scenario.graph(), scenario.initial, gn)
                .values;

        EXPECT_LT(maxTrajectoryDelta(accel.estimate(), batch), 1e-6);
    }
}

// Steady-state shape reuse: the garage stream repeats the same two
// affected-suffix shapes (odometry, one-lap closure) frame after
// frame, so sessions — and compiles — stay far below the frame
// count. This is the whole point of shape-only fingerprints.
TEST(AccelIncremental, UpdateShapesAmortizeAcrossFrames)
{
    const PoseGraphScenario scenario =
        apps::makeGarageWorld(8, 16, /*seed=*/2);
    runtime::Engine engine(config());
    runtime::AcceleratedSmootherOptions options;
    options.params = frozenParams();
    runtime::AcceleratedSmoother accel(engine, options);
    replay(accel, scenario);

    const auto &stats = accel.stats();
    const std::uint64_t device_frames =
        stats.acceleratedFrames + stats.batchFrames;
    EXPECT_GT(stats.sessionReuses, device_frames / 2);
    EXPECT_LT(stats.sessionsOpened, device_frames / 4);
    // Compiles can only have happened on session opens (at most two
    // programs per shape: optimized + reference).
    EXPECT_LE(engine.stats().compiles, 2 * stats.sessionsOpened);
}

// The smoother keeps only its last device solve's session: the next
// solve of that shape reuses it, and a shape seen before but not
// last reopens through the Engine's cache without a compile.
TEST(AccelIncremental, KeepsOnlyTheLastSession)
{
    // A chain of n 3-dof variables: a prior on the first, then one
    // row per link, eliminated in key order.
    struct Suffix
    {
        std::vector<fg::LinearRow> rows;
        fg::SuffixSchedule schedule;
    };
    const auto chain = [](std::size_t n) {
        Suffix out;
        std::vector<fg::RowShape> shapes;
        std::vector<fg::Key> variables;
        std::map<fg::Key, std::size_t> dofs;
        for (fg::Key k = 0; k < n; ++k) {
            fg::LinearRow row;
            row.blocks.emplace(k, mat::Matrix::identity(3) * 2.0);
            if (k > 0)
                row.blocks.emplace(k - 1, -mat::Matrix::identity(3));
            row.rhs = mat::Vector{0.5, -0.25, 0.125};
            shapes.push_back(fg::shapeOf(row));
            out.rows.push_back(std::move(row));
            variables.push_back(k);
            dofs[k] = 3;
        }
        out.schedule = fg::scheduleElimination(std::move(shapes),
                                               variables, dofs);
        out.schedule.start = 1; // An incremental, not a batch, frame.
        return out;
    };
    const Suffix a = chain(2);
    const Suffix b = chain(3);

    runtime::Engine engine(config());
    runtime::AcceleratedSmoother accel(engine);
    const auto solve = [&accel](const Suffix &suffix) {
        std::vector<const fg::LinearRow *> rows;
        for (const fg::LinearRow &row : suffix.rows)
            rows.push_back(&row);
        std::map<fg::Key, std::vector<double>> deltas;
        for (const auto &[key, delta] :
             accel.solve(suffix.schedule, rows).deltas)
            deltas.emplace(key, delta.data());
        return deltas;
    };

    const auto first = solve(a);
    ASSERT_EQ(first.size(), 2u);
    solve(b);
    const std::uint64_t compiles = engine.stats().compiles;
    const auto reopened = solve(a);
    const auto reused = solve(a);

    const auto &stats = accel.stats();
    EXPECT_EQ(stats.acceleratedFrames, 4u);
    EXPECT_EQ(stats.sessionsOpened, 3u);
    EXPECT_EQ(stats.sessionReuses, 1u);
    EXPECT_EQ(engine.stats().compiles, compiles);
    EXPECT_EQ(reopened, first);
    EXPECT_EQ(reused, first);
}

// Oversize suffixes take the CPU reference path instead of
// compiling a one-off giant program.
TEST(AccelIncremental, OversizeSuffixFallsBackToCpu)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/9);
    runtime::Engine engine(config());
    runtime::AcceleratedSmootherOptions options;
    options.maxAcceleratedSuffix = 8;
    runtime::AcceleratedSmoother accel(engine, options);
    replay(accel, scenario);

    EXPECT_GT(accel.stats().cpuFrames, 0u);
    EXPECT_GT(accel.stats().acceleratedFrames, 0u);

    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
}

// The degradation ladder protects incremental frames: with an armed
// injector flipping datapath bits, frames retry and fall back to the
// reference update program instead of landing poisoned deltas.
TEST(AccelIncremental, InjectedFaultsFallBackToReferenceRung)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/13);

    runtime::EngineOptions options;
    options.faultPlan = hw::FaultPlan::parse("7@corrupt:all:0.02");
    runtime::Engine engine(config(), options);
    runtime::AcceleratedSmoother accel(engine);
    replay(accel, scenario);

    // Functional result still tracks the clean CPU run.
    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
    EXPECT_GT(engine.health().faultsDetected.load(), 0u);
}

// Without the fallback rung an armed injector must not cost a single
// compile: the reference update programs the ladder would replay on
// are never built, so the compile count equals a fault-free engine's.
TEST(AccelIncremental, DisabledFallbackCompilesNoReferenceRung)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/13);
    const auto compilesWith = [&](runtime::EngineOptions options) {
        options.precision = comp::Precision::Fp64;
        runtime::Engine engine(config(), options);
        runtime::AcceleratedSmoother accel(engine);
        replay(accel, scenario);
        return engine.stats().compiles;
    };

    runtime::EngineOptions stalls;
    stalls.faultPlan = hw::FaultPlan::parse("7@stall:all:0.01");
    stalls.degradation.fallback = false;
    EXPECT_EQ(compilesWith(stalls), compilesWith({}));
}

// Update programs round-trip through the persistent ProgramStore: a
// warm restart against the same directory serves previously seen
// update shapes from disk.
TEST(AccelIncremental, UpdateProgramsRoundTripThroughStore)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/4);
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "orianna_accel_incr_store_test")
            .string();
    std::filesystem::remove_all(dir);

    runtime::EngineOptions options;
    options.storeDir = dir;
    std::uint64_t cold_compiles = 0;
    {
        runtime::Engine engine(config(), options);
        runtime::AcceleratedSmoother accel(engine);
        replay(accel, scenario);
        cold_compiles = engine.stats().compiles;
        EXPECT_GT(engine.stats().storeWrites, 0u);
    }
    {
        runtime::Engine engine(config(), options);
        runtime::AcceleratedSmoother accel(engine);
        replay(accel, scenario);
        EXPECT_EQ(engine.stats().compiles, 0u);
        EXPECT_EQ(engine.stats().storeHits, cold_compiles);
    }
    std::filesystem::remove_all(dir);
}

// Fixed-lag operation: marginalizing the leading poses preserves the
// information exactly, so a subsequent loop closure lands on the same
// estimate the CPU smoother produces.
TEST(AccelIncremental, MarginalizeThenLoopClosureTracksCpu)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(60, /*seed=*/21);

    runtime::Engine engine(config());
    runtime::AcceleratedSmoother accel(engine);
    fg::IncrementalSmoother cpu;

    const std::size_t cut = 40;
    replay(accel, scenario, cut);
    replay(cpu, scenario, cut);
    accel.marginalizeLeading(10);
    cpu.marginalizeLeading(10);
    for (std::size_t i = cut; i < scenario.frames.size(); ++i) {
        const PoseGraphFrame &frame = scenario.frames[i];
        accel.addVariable(frame.key,
                          scenario.initial.pose(frame.key));
        cpu.addVariable(frame.key,
                        scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors) {
            accel.addFactor(factor);
            cpu.addFactor(factor);
        }
        accel.update();
        cpu.update();
    }
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
}

// Shape fingerprints are pure shape: two different frames with the
// same affected-suffix structure share one fingerprint, and any
// structural difference separates them.
TEST(AccelIncremental, UpdateFingerprintIsShapeOnly)
{
    comp::UpdateSpec spec;
    spec.dofs = {3, 3};
    spec.rows.push_back({3, {0}});
    spec.rows.push_back({3, {0, 1}});
    spec.steps.push_back({{0, 1}, {0, 1}, 3});
    spec.steps.push_back({{2}, {1}, 0});

    comp::UpdateSpec same = spec;
    same.name = "renamed";
    same.precision = comp::Precision::Fp32;
    EXPECT_EQ(comp::updateFingerprint(spec),
              comp::updateFingerprint(same));

    comp::UpdateSpec different = spec;
    different.steps[0].kept = 2;
    EXPECT_NE(comp::updateFingerprint(spec),
              comp::updateFingerprint(different));
}

// The committed data/g2o excerpts load, stream through
// scenarioFromG2o, and the accelerated replay agrees with a batch
// Gauss-Newton solve of the flattened graph — the full corpus round
// trip: generator -> g2o file -> reader -> frame stream -> device.
TEST(AccelIncremental, CommittedG2oCorpusReplays)
{
    const std::string dir = ORIANNA_G2O_DIR;
    const struct
    {
        const char *file;
        std::size_t spaceDim;
    } corpus[] = {{"manhattan_lite.g2o", 2},
                  {"sphere_lite.g2o", 3},
                  {"garage_lite.g2o", 3}};

    runtime::Engine engine(config());
    for (const auto &entry : corpus) {
        const fg::PoseGraphData data =
            fg::loadG2o(dir + "/" + entry.file);
        EXPECT_TRUE(data.warnings.empty()) << entry.file;
        const PoseGraphScenario scenario =
            apps::scenarioFromG2o(data, entry.file);
        ASSERT_EQ(scenario.frames.size(), 120u) << entry.file;
        ASSERT_EQ(scenario.spaceDim, entry.spaceDim) << entry.file;
        ASSERT_GT(scenario.loopClosureFrames(), 0u) << entry.file;

        runtime::AcceleratedSmootherOptions options;
        options.params.relinearizeThreshold = 1e-5;
        runtime::AcceleratedSmoother accel(engine, options);
        replay(accel, scenario);
        for (int polish = 0; polish < 3; ++polish)
            accel.update();

        fg::GaussNewtonParams gn;
        gn.maxIterations = 20;
        const auto batch =
            fg::optimize(scenario.graph(), scenario.initial, gn);
        EXPECT_LT(maxTrajectoryDelta(batch.values, accel.estimate()),
                  1e-6)
            << entry.file;
    }
}
