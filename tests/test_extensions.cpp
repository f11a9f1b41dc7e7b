// Tests for the extension features: Range and ArmCollision factors
// (the Norm DFG primitive and forward kinematics over Tbl. 3
// primitives), marginal covariance recovery, fixed-lag
// marginalization, and the Graphviz exports.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "apps/pose_graph.hpp"
#include "compiler/codegen.hpp"
#include "compiler/executor.hpp"
#include "fg/dot.hpp"
#include "fg/factors.hpp"
#include "fg/incremental.hpp"
#include "fg/marginals.hpp"
#include "fg/optimizer.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::expectJacobiansMatch;
using orianna::test::randomPose;
using orianna::test::randomVector;
using fg::FactorGraph;
using fg::Key;
using fg::Values;
using lie::Pose;
using mat::Matrix;
using mat::Vector;

// --- Range factor -----------------------------------------------------------

TEST(RangeFactor, ErrorAndJacobians)
{
    std::mt19937 rng(81);
    Values values;
    Pose pose = randomPose(3, rng, 0.4, 2.0);
    Vector landmark = randomVector(3, rng, 4.0);
    values.insert(1, pose);
    values.insert(2, landmark);

    const double truth = (landmark - pose.t()).norm();
    fg::RangeFactor factor(1, 2, truth - 0.3, 0.1);
    EXPECT_NEAR(factor.error(values)[0], 0.3, 1e-12);
    expectJacobiansMatch(factor, values);
}

TEST(RangeFactor, TrilaterationLocalizes)
{
    // Three beacons with exact ranges pin down a 2-D position.
    Values values;
    const Vector truth_t{1.5, -0.8};
    Pose truth(Vector{0.3}, truth_t);
    std::vector<Vector> beacons{Vector{0.0, 0.0}, Vector{4.0, 0.0},
                                Vector{0.0, 4.0}};
    FactorGraph graph;
    for (std::size_t b = 0; b < beacons.size(); ++b) {
        values.insert(10 + b, beacons[b]);
        graph.emplace<fg::VectorPriorFactor>(
            10 + b, beacons[b], fg::isotropicSigmas(2, 1e-4));
        graph.emplace<fg::RangeFactor>(
            1, 10 + b, (beacons[b] - truth_t).norm(), 0.01);
    }
    // The orientation is unobservable by ranges; pin it weakly.
    graph.emplace<fg::PriorFactor>(1, truth,
                                   fg::isotropicSigmas(3, 1.0));
    values.insert(1, truth.retract(Vector{0.1, 0.4, -0.3}));

    auto result = fg::optimize(graph, values);
    EXPECT_LT((result.values.pose(1).t() - truth_t).norm(), 1e-4);
}

TEST(RangeFactor, CompilesAndMatchesSolver)
{
    std::mt19937 rng(82);
    Values values;
    Pose pose = randomPose(2, rng, 0.3, 1.0);
    values.insert(1, pose);
    values.insert(2, randomVector(2, rng, 3.0));
    FactorGraph graph;
    graph.emplace<fg::RangeFactor>(1, 2, 2.0, 0.1);
    graph.emplace<fg::PriorFactor>(1, pose,
                                   fg::isotropicSigmas(3, 0.01));
    graph.emplace<fg::VectorPriorFactor>(2, values.vector(2),
                                         fg::isotropicSigmas(2, 0.5));

    const auto program = comp::compileGraph(graph, values);
    comp::Executor executor(program);
    const auto hw_delta = executor.run(values);
    const auto sw_delta = fg::solveLinearSystem(
        graph.linearize(values), graph.allKeys());
    for (const auto &[key, sw] : sw_delta)
        EXPECT_LT(mat::maxDifference(hw_delta.at(key), sw), 1e-8);
}

// --- Arm collision factor ---------------------------------------------------

TEST(ArmCollision, ForwardKinematicsCorrect)
{
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{10.0, 10.0}, 0.1); // Far away: inactive.
    const double l1 = 1.0;
    const double l2 = 0.7;
    fg::ArmCollisionFactor factor(1, l1, l2, map, 0.2, 0.5);

    Values values;
    values.insert(1, Vector{0.6, -0.4, 0.0, 0.0});
    // With the obstacle far away the hinge is zero...
    EXPECT_EQ(factor.error(values).maxAbs(), 0.0);

    // ...and an obstacle exactly at the analytic tip position
    // activates it maximally.
    const double q1 = 0.6;
    const double q12 = 0.6 - 0.4;
    Vector tip{l1 * std::cos(q1) + l2 * std::cos(q12),
               l1 * std::sin(q1) + l2 * std::sin(q12)};
    auto hit = std::make_shared<fg::SdfMap>();
    hit->addObstacle(tip, 0.3);
    fg::ArmCollisionFactor hitting(1, l1, l2, hit, 0.2, 0.5);
    const Vector e = hitting.error(values);
    EXPECT_NEAR(e[1], 0.2 + 0.3, 1e-9); // Tip at the center: d = -r.
}

TEST(ArmCollision, JacobiansMatchFiniteDifferences)
{
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.2, 0.6}, 0.4);
    fg::ArmCollisionFactor factor(1, 1.0, 0.8, map, 0.5, 0.3);
    Values values;
    values.insert(1, Vector{0.5, 0.3, 0.1, -0.1});
    // Both hinges active at this configuration?  Either way the
    // Jacobian check must hold.
    expectJacobiansMatch(factor, values, 1e-5);
}

TEST(ArmCollision, PlansAroundWorkspaceObstacle)
{
    // Joint-space trajectory optimization with workspace collision
    // checking through the compiled-down forward kinematics.
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.35, 0.45}, 0.25);
    const double l1 = 1.0;
    const double l2 = 0.8;

    FactorGraph graph;
    Values init;
    const std::size_t steps = 10;
    const Vector start{-0.3, 0.2, 0.0, 0.0};
    const Vector goal{0.9, -0.3, 0.0, 0.0};
    for (std::size_t k = 0; k < steps; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(steps - 1);
        Vector q = start * (1.0 - s) + goal * s;
        init.insert(k, q);
        if (k + 1 < steps)
            graph.emplace<fg::SmoothFactor>(k, k + 1, 2, 0.2,
                                            fg::isotropicSigmas(4, 0.3));
        graph.emplace<fg::ArmCollisionFactor>(k, l1, l2, map, 0.25,
                                              0.1);
        graph.emplace<fg::VectorPriorFactor>(k, q,
                                             fg::isotropicSigmas(4, 2.0));
    }
    graph.emplace<fg::VectorPriorFactor>(0u, start,
                                         fg::isotropicSigmas(4, 0.01));
    graph.emplace<fg::VectorPriorFactor>(steps - 1, goal,
                                         fg::isotropicSigmas(4, 0.01));

    fg::GaussNewtonParams params;
    params.stepScale = 0.5;
    params.maxIterations = 40;
    auto result = fg::optimize(graph, init, params);

    // Every configuration keeps the elbow and tip clear.
    for (std::size_t k = 0; k < steps; ++k) {
        const Vector &q = result.values.vector(k);
        const double q1 = q[0];
        const double q12 = q[0] + q[1];
        Vector elbow{l1 * std::cos(q1), l1 * std::sin(q1)};
        Vector tip{elbow[0] + l2 * std::cos(q12),
                   elbow[1] + l2 * std::sin(q12)};
        EXPECT_GT(map->distance(elbow), 0.0) << "elbow step " << k;
        EXPECT_GT(map->distance(tip), 0.0) << "tip step " << k;
    }
}

// --- Marginals --------------------------------------------------------------

TEST(Marginals, PriorOnlyMatchesNoise)
{
    // A single prior: the marginal covariance is sigma^2 I.
    Values values;
    values.insert(1, Vector{0.0, 0.0});
    FactorGraph graph;
    graph.emplace<fg::VectorPriorFactor>(1, Vector(2),
                                         fg::isotropicSigmas(2, 0.3));
    fg::Marginals marginals(graph.linearize(values), {1});
    const Matrix cov = marginals.marginalCovariance(1);
    EXPECT_NEAR(cov(0, 0), 0.09, 1e-12);
    EXPECT_NEAR(cov(1, 1), 0.09, 1e-12);
    EXPECT_NEAR(cov(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(marginals.sigmas(1)[0], 0.3, 1e-12);
}

TEST(Marginals, UncertaintyGrowsAlongChain)
{
    // Odometry chain anchored at one end: covariance grows with the
    // distance from the anchor (the dead-reckoning random walk).
    Values values;
    FactorGraph graph;
    const std::size_t n = 6;
    Pose current = Pose::identity(2);
    for (std::size_t i = 0; i < n; ++i) {
        values.insert(i, current);
        if (i + 1 < n)
            graph.emplace<fg::BetweenFactor>(
                i, i + 1, Pose(Vector{0.0}, Vector{1.0, 0.0}),
                fg::isotropicSigmas(3, 0.1));
        current = current.oplus(Pose(Vector{0.0}, Vector{1.0, 0.0}));
    }
    graph.emplace<fg::PriorFactor>(0u, Pose::identity(2),
                                   fg::isotropicSigmas(3, 0.01));
    fg::Marginals marginals(graph.linearize(values), graph.allKeys());
    double previous = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double trace =
            marginals.marginalCovariance(i)(1, 1) +
            marginals.marginalCovariance(i)(2, 2);
        EXPECT_GT(trace, previous) << "pose " << i;
        previous = trace;
    }
    // Cross-covariance with the anchor is nearly zero; adjacent poses
    // correlate strongly.
    const Matrix far = marginals.jointCovariance(0, n - 1);
    const Matrix near = marginals.jointCovariance(n - 2, n - 1);
    EXPECT_LT(far.maxAbs(), near.maxAbs());
}

TEST(Marginals, RankDeficientRejected)
{
    Values values;
    values.insert(1, Vector{0.0, 0.0});
    values.insert(2, Vector{0.0, 0.0});
    FactorGraph graph;
    graph.emplace<fg::VectorPriorFactor>(1, Vector(2),
                                         fg::isotropicSigmas(2, 1.0));
    // Variable 2 unconstrained except through a difference factor
    // missing... actually build the deficient system directly:
    fg::LinearSystem system = graph.linearize(values);
    system.dofs[2] = 2; // Columns with no rows touching them.
    EXPECT_THROW(fg::Marginals(system, {1, 2}), std::runtime_error);
}

// --- Fixed-lag marginalization ----------------------------------------------

TEST(FixedLag, WindowStaysBoundedAndTracksFullSmoother)
{
    std::mt19937 rng(83);
    fg::IncrementalParams params;
    params.relinearizeInterval = 5;
    fg::IncrementalSmoother lagged(params);
    fg::IncrementalSmoother full(params);

    Pose truth = Pose::identity(2);
    for (auto *s : {&lagged, &full}) {
        s->addVariable(0u, truth);
        s->addFactor(std::make_shared<fg::PriorFactor>(
            0u, truth, fg::isotropicSigmas(3, 0.01)));
        s->update();
    }

    std::vector<Pose> all_truth{truth};
    const std::size_t frames = 25;
    const std::size_t lag = 8;
    std::size_t window_start = 0;
    for (std::size_t i = 1; i < frames; ++i) {
        const Pose step(Vector{0.05}, Vector{0.4, 0.0});
        const Pose odom = step.retract(randomVector(3, rng, 0.01));
        truth = all_truth.back().oplus(step);
        all_truth.push_back(truth);
        for (auto *s : {&lagged, &full}) {
            s->addVariable(
                i, s->estimate().pose(i - 1).oplus(odom));
            s->addFactor(std::make_shared<fg::BetweenFactor>(
                i - 1, i, odom, fg::isotropicSigmas(3, 0.02)));
            s->update();
        }
        if (i - window_start >= lag) {
            lagged.marginalizeLeading(2);
            window_start += 2;
        }
        // Only the window variables remain in the lagged smoother.
        EXPECT_LE(lagged.estimate().size(), lag + 1);
        EXPECT_FALSE(lagged.estimate().exists(
            window_start == 0 ? 9999 : window_start - 1));
    }
    // Fixed-lag estimates of the recent states agree with the full
    // smoother (marginalization preserved the information), and both
    // stay within dead-reckoning error of the truth.
    for (std::size_t i = frames - 3; i < frames; ++i) {
        EXPECT_LT(lie::poseDistance(lagged.estimate().pose(i),
                                    full.estimate().pose(i)),
                  0.02)
            << "pose " << i;
        EXPECT_LT((lagged.estimate().pose(i).t() - all_truth[i].t())
                      .norm(),
                  0.6)
            << "pose " << i;
    }
}

/**
 * Latest-pose position RMSE of a 30-pose fixed-lag window sliding one
 * pose per frame over a Manhattan world, relinearizing every
 * @p interval updates (the delta threshold is off). Closures to
 * marginalized poses are dropped.
 */
double
slidingWindowRmse(const apps::PoseGraphScenario &scenario,
                  std::size_t interval)
{
    fg::IncrementalParams params;
    params.relinearizeInterval = interval;
    params.relinearizeThreshold = 1e9;
    fg::IncrementalSmoother smoother(params);
    std::set<Key> dropped;
    double sum_sq = 0.0;
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        smoother.addVariable(frame.key, scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors) {
            bool live = true;
            for (Key key : factor->keys())
                live = live && dropped.count(key) == 0;
            if (live)
                smoother.addFactor(factor);
        }
        smoother.update();
        if (smoother.ordering().size() > 30) {
            dropped.insert(smoother.ordering().front());
            smoother.marginalizeLeading(1);
        }
        const double error = (smoother.estimate().pose(frame.key).t() -
                              scenario.truth.pose(frame.key).t())
                                 .norm();
        sum_sq += error * error;
    }
    return std::sqrt(sum_sq / scenario.frames.size());
}

// Marginal priors are linear rows taken at an old linearization
// point. Relinearizing must re-express them at the new one, or the
// window is pulled back toward stale states: before the fix this
// scenario read 1.66 m at interval 3 and 0.80 m at interval 10
// against 0.26 m for the full smoother. With the priors moved, the
// error no longer depends on how often the window relinearizes.
TEST(FixedLag, RelinearizationMovesMarginalPriors)
{
    const apps::PoseGraphScenario scenario =
        apps::makeManhattanWorld(150, /*seed=*/7);
    const double every_3 = slidingWindowRmse(scenario, 3);
    const double every_10 = slidingWindowRmse(scenario, 10);
    EXPECT_LT(every_3, 0.4);
    EXPECT_LT(every_10, 0.4);
    EXPECT_NEAR(every_3, every_10, 0.01);
}

TEST(FixedLag, ErrorsRejected)
{
    fg::IncrementalSmoother smoother;
    smoother.addVariable(0u, Pose::identity(2));
    smoother.addFactor(std::make_shared<fg::PriorFactor>(
        0u, Pose::identity(2), fg::isotropicSigmas(3, 0.1)));
    smoother.update();
    EXPECT_THROW(smoother.marginalizeLeading(0), std::invalid_argument);
    EXPECT_THROW(smoother.marginalizeLeading(1), std::invalid_argument);
    smoother.addFactor(std::make_shared<fg::PriorFactor>(
        0u, Pose::identity(2), fg::isotropicSigmas(3, 0.1)));
    EXPECT_THROW(smoother.marginalizeLeading(1), std::invalid_argument);
}

// --- DOT export -------------------------------------------------------------

TEST(Dot, FactorGraphRendering)
{
    Values values;
    FactorGraph graph;
    graph.emplace<fg::BetweenFactor>(1, 2, Pose::identity(2),
                                     fg::isotropicSigmas(3, 1.0));
    graph.emplace<fg::PriorFactor>(1, Pose::identity(2),
                                   fg::isotropicSigmas(3, 1.0));
    const std::string dot = fg::graphToDot(graph);
    EXPECT_NE(dot.find("graph factorgraph"), std::string::npos);
    EXPECT_NE(dot.find("v1"), std::string::npos);
    EXPECT_NE(dot.find("Between"), std::string::npos);
    EXPECT_NE(dot.find("f0 -- v1"), std::string::npos);
}

TEST(Dot, DfgRendering)
{
    fg::Dfg dfg;
    auto a = dfg.inputPose(1);
    auto b = dfg.inputPose(2);
    dfg.addPoseOutput(dfg.ominus(a, b));
    const std::string dot = fg::dfgToDot(dfg, "between");
    EXPECT_NE(dot.find("digraph between"), std::string::npos);
    EXPECT_NE(dot.find("RT"), std::string::npos);
    EXPECT_NE(dot.find("Log"), std::string::npos);
    EXPECT_NE(dot.find("palegreen"), std::string::npos);
}

} // namespace
