// Tests for the linearization, elimination (factor-graph inference),
// ordering heuristics and the Gauss-Newton optimizer.

#include <gtest/gtest.h>

#include "fg/factors.hpp"
#include "fg/optimizer.hpp"
#include "fg/ordering.hpp"
#include "matrix/qr.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using fg::FactorGraph;
using fg::Key;
using fg::Values;
using lie::Pose;
using mat::Matrix;
using mat::maxDifference;
using mat::Vector;

/** A small localization graph mirroring Fig. 4 (poses + landmarks). */
FactorGraph
fig4Graph(Values &values, std::mt19937 &rng)
{
    // Ground truth: three poses moving forward, two landmarks.
    std::vector<Pose> poses;
    for (int i = 0; i < 3; ++i)
        poses.emplace_back(Vector{0.1 * i, 0.0, 0.05 * i},
                           Vector{1.0 * i, 0.5 * i, 0.0});
    Vector l1{1.0, 2.0, 1.0};
    Vector l2{2.5, 1.0, 0.8};

    FactorGraph graph;
    fg::CameraModel cam{400, 400, 320, 240};
    auto pixel = [&](const Pose &x, const Vector &l) {
        Vector local = x.rotation().transpose() * (l - x.t());
        return Vector{cam.fx * local[0] / local[2] + cam.cx,
                      cam.fy * local[1] / local[2] + cam.cy};
    };
    // Keys: poses 1..3, landmarks 11..12 (as in the Sec. 5.1 listing).
    graph.emplace<fg::CameraFactor>(1, 11, pixel(poses[0], l1), cam,
                                    fg::isotropicSigmas(2, 1.0));
    graph.emplace<fg::CameraFactor>(2, 11, pixel(poses[1], l1), cam,
                                    fg::isotropicSigmas(2, 1.0));
    graph.emplace<fg::CameraFactor>(3, 12, pixel(poses[2], l2), cam,
                                    fg::isotropicSigmas(2, 1.0));
    // Landmarks are 3-D, so each needs at least two 2-row camera
    // observations to be determined.
    graph.emplace<fg::CameraFactor>(3, 11, pixel(poses[2], l1), cam,
                                    fg::isotropicSigmas(2, 1.0));
    graph.emplace<fg::CameraFactor>(2, 12, pixel(poses[1], l2), cam,
                                    fg::isotropicSigmas(2, 1.0));
    graph.emplace<fg::IMUFactor>(1, 2, poses[1].ominus(poses[0]),
                                 fg::isotropicSigmas(6, 0.1));
    graph.emplace<fg::IMUFactor>(2, 3, poses[2].ominus(poses[1]),
                                 fg::isotropicSigmas(6, 0.1));
    graph.emplace<fg::PriorFactor>(1, poses[0],
                                   fg::isotropicSigmas(6, 0.01));

    // Slightly perturbed initial values.
    values = Values();
    for (int i = 0; i < 3; ++i) {
        Vector noise = randomVector(6, rng, 0.02);
        values.insert(i + 1, poses[i].retract(noise));
    }
    values.insert(11, l1 + randomVector(3, rng, 0.05));
    values.insert(12, l2 + randomVector(3, rng, 0.05));
    return graph;
}

TEST(Graph, AccountingAndAdjacency)
{
    std::mt19937 rng(3);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    EXPECT_EQ(graph.size(), 8u);
    const auto keys = graph.allKeys();
    ASSERT_EQ(keys.size(), 5u);
    EXPECT_EQ(keys.front(), 1u);
    EXPECT_EQ(keys.back(), 12u);

    const auto adj = graph.adjacency();
    // Pose 2 touches camera(2,11), camera(2,12), imu(1,2), imu(2,3).
    EXPECT_EQ(adj.at(2).size(), 4u);
    EXPECT_EQ(adj.at(12).size(), 2u);
    EXPECT_THROW(graph.totalError(Values{}), std::out_of_range);
}

TEST(Graph, LinearizeShapes)
{
    std::mt19937 rng(4);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    fg::LinearSystem system = graph.linearize(values);
    ASSERT_EQ(system.rows.size(), 8u);
    // 5 cameras (2 rows) + 2 IMU (6) + prior (6) = 28 rows.
    EXPECT_EQ(system.totalRows(), 28u);
    // 3 poses (6) + 2 landmarks (3) = 24 cols.
    EXPECT_EQ(system.totalCols(), 24u);

    const auto ordering = graph.allKeys();
    Matrix dense = system.toDense(ordering);
    EXPECT_EQ(dense.rows(), 28u);
    EXPECT_EQ(dense.cols(), 24u);
    // The system is sparse: camera rows touch only 9 of 24 columns.
    EXPECT_LT(dense.density(), 0.6);

    // A row key missing from the ordering (12 here) is out of range.
    EXPECT_THROW(system.toDense({1, 2, 3, 11}), std::out_of_range);
    // A block must match its row's rhs length and its key's dof.
    fg::LinearSystem long_rhs = system;
    long_rhs.rows[0].rhs = Vector(long_rhs.rows[0].rhs.size() + 1);
    EXPECT_THROW(long_rhs.toDense(ordering), std::invalid_argument);
    fg::LinearSystem wide_dof = system;
    wide_dof.dofs.at(ordering.front()) += 1;
    EXPECT_THROW(wide_dof.toDense(ordering), std::invalid_argument);
}

TEST(Eliminate, MatchesDenseLeastSquares)
{
    std::mt19937 rng(5);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    fg::LinearSystem system = graph.linearize(values);
    const auto ordering = graph.allKeys();

    // Reference: dense QR on the stacked system.
    Matrix a = system.toDense(ordering);
    Vector b = system.stackedRhs();
    Vector x_dense = mat::leastSquares(a, b);

    // Factor-graph inference.
    auto delta = fg::solveLinearSystem(system, ordering);

    std::size_t offset = 0;
    for (Key key : ordering) {
        const Vector &dv = delta.at(key);
        for (std::size_t i = 0; i < dv.size(); ++i)
            EXPECT_NEAR(dv[i], x_dense[offset + i], 1e-8)
                << "key " << key << " component " << i;
        offset += dv.size();
    }
}

TEST(Eliminate, AnyOrderingGivesSameSolution)
{
    std::mt19937 rng(6);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    fg::LinearSystem system = graph.linearize(values);

    const auto natural = fg::ordering::natural(graph);
    const auto min_degree = fg::ordering::minDegree(graph);
    auto d1 = fg::solveLinearSystem(system, natural);
    auto d2 = fg::solveLinearSystem(system, min_degree);
    for (Key key : natural)
        EXPECT_LT(maxDifference(d1.at(key), d2.at(key)), 1e-8);
}

TEST(Eliminate, StatsRecordSmallDenseOps)
{
    // The Sec. 7.5 claim in miniature: elimination works on small,
    // dense matrices rather than one large sparse one.
    std::mt19937 rng(7);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    fg::LinearSystem system = graph.linearize(values);
    const auto ordering = fg::ordering::minDegree(graph);

    fg::EliminationStats stats;
    auto delta = fg::solveLinearSystem(system, ordering, &stats);
    ASSERT_EQ(stats.qrOps.size(), 5u);      // One per variable.
    ASSERT_EQ(stats.backSubOps.size(), 5u); // One per variable.

    const Matrix dense = system.toDense(graph.allKeys());
    for (const auto &op : stats.qrOps) {
        EXPECT_LT(op.cols, dense.cols());
        EXPECT_GT(op.density, dense.density());
    }
}

TEST(Eliminate, IncompleteOrderingThrows)
{
    std::mt19937 rng(8);
    Values values;
    FactorGraph graph = fig4Graph(values, rng);
    fg::LinearSystem system = graph.linearize(values);
    std::vector<Key> bad{1, 2, 3, 11}; // Missing 12.
    EXPECT_THROW(fg::solveLinearSystem(system, bad),
                 std::invalid_argument);
    std::vector<Key> dup{1, 2, 3, 11, 11};
    EXPECT_THROW(fg::solveLinearSystem(system, dup),
                 std::invalid_argument);
}

TEST(Eliminate, UnderdeterminedThrows)
{
    // A landmark observed by nothing cannot be eliminated.
    fg::LinearSystem system;
    system.dofs[1] = 2;
    EXPECT_THROW(fg::solveLinearSystem(system, {1}), std::runtime_error);
}

TEST(Ordering, MinDegreeReducesFillIn)
{
    // A chain with a hub variable: eliminating the hub first creates a
    // big clique; min-degree eliminates leaves first.
    FactorGraph graph;
    for (Key leaf = 1; leaf <= 6; ++leaf) {
        graph.emplace<fg::BetweenFactor>(
            0, leaf, Pose::identity(2), fg::isotropicSigmas(3, 1.0));
    }
    graph.emplace<fg::PriorFactor>(0, Pose::identity(2),
                                   fg::isotropicSigmas(3, 1.0));

    const auto order = fg::ordering::minDegree(graph);
    // The hub (key 0, degree 6) must be eliminated after the leaves
    // (ties with the final leaf allow it to land second-to-last).
    std::size_t hub_position = 0;
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == 0u)
            hub_position = i;
    EXPECT_GE(hub_position, order.size() - 2);
}

TEST(Optimizer, ConvergesOnFig4Localization)
{
    std::mt19937 rng(9);
    Values initial;
    FactorGraph graph = fig4Graph(initial, rng);
    const double initial_error = graph.totalError(initial);

    auto result = fg::optimize(graph, initial);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.finalError, 1e-10);
    EXPECT_LT(result.finalError, initial_error);
    EXPECT_GE(result.iterations, 1u);
    ASSERT_FALSE(result.history.empty());
    EXPECT_LE(result.history.back().errorAfter,
              result.history.front().errorBefore);
}

TEST(Optimizer, RespectsIterationBudget)
{
    std::mt19937 rng(10);
    Values initial;
    FactorGraph graph = fig4Graph(initial, rng);
    fg::GaussNewtonParams params;
    params.maxIterations = 1;
    auto result = fg::optimize(graph, initial, params);
    EXPECT_EQ(result.iterations, 1u);
}

TEST(Optimizer, DampingStillConverges)
{
    std::mt19937 rng(11);
    Values initial;
    FactorGraph graph = fig4Graph(initial, rng);
    fg::GaussNewtonParams params;
    params.lambda = 1e-3;
    params.maxIterations = 50;
    auto result = fg::optimize(graph, initial, params);
    EXPECT_LT(result.finalError, 1e-6);
}

TEST(Optimizer, PlanningGraphAvoidsObstacle)
{
    // Miniature planning problem (Fig. 7a): a straight-line initial
    // trajectory through an obstacle is bent around it.
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{2.0, 0.0}, 0.6);

    const std::size_t steps = 9;
    const double dt = 0.5;
    FactorGraph graph;
    Values initial;
    Vector start{0.0, 0.0, 1.0, 0.0}; // [px py vx vy]
    Vector goal{4.0, 0.0, 1.0, 0.0};
    for (std::size_t k = 0; k < steps; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(steps - 1);
        Vector state{4.0 * s, 0.0, 1.0, 0.0};
        initial.insert(k, state);
        if (k + 1 < steps)
            graph.emplace<fg::SmoothFactor>(
                k, k + 1, 2, dt, fg::isotropicSigmas(4, 0.5));
        graph.emplace<fg::CollisionFreeFactor>(k, map, 4, 2, 0.4, 0.05);
    }
    graph.emplace<fg::VectorPriorFactor>(0u, start,
                                         fg::isotropicSigmas(4, 0.01));
    graph.emplace<fg::VectorPriorFactor>(steps - 1, goal,
                                         fg::isotropicSigmas(4, 0.01));

    fg::GaussNewtonParams params;
    params.lambda = 1e-2; // Hinge factors benefit from damping.
    params.maxIterations = 60;
    auto result = fg::optimize(graph, initial, params);

    // Every waypoint keeps clearance from the obstacle.
    for (std::size_t k = 0; k < steps; ++k) {
        const Vector &state = result.values.vector(k);
        const double d = map->distance(state.segment(0, 2));
        EXPECT_GT(d, 0.0) << "waypoint " << k << " collides";
    }
    // Endpoints stay pinned.
    EXPECT_LT(maxDifference(result.values.vector(0), start), 0.05);
    EXPECT_LT(maxDifference(result.values.vector(steps - 1), goal), 0.05);
}

TEST(Optimizer, ControlGraphReachesReference)
{
    // Miniature LQR-style control problem (Fig. 7b): drive a double
    // integrator to the origin.
    const std::size_t horizon = 12;
    const double dt = 0.2;
    Matrix a = Matrix::identity(2);
    a(0, 1) = dt;
    Matrix b(2, 1);
    b(1, 0) = dt;

    FactorGraph graph;
    Values initial;
    Vector x0{1.0, 0.0};
    // Keys: states 0..horizon, inputs 100..100+horizon-1.
    for (std::size_t k = 0; k <= horizon; ++k)
        initial.insert(k, Vector(2));
    for (std::size_t k = 0; k < horizon; ++k)
        initial.insert(100 + k, Vector(1));
    initial.update(0u, x0);

    graph.emplace<fg::VectorPriorFactor>(0u, x0,
                                         fg::isotropicSigmas(2, 1e-3));
    for (std::size_t k = 0; k < horizon; ++k) {
        graph.emplace<fg::DynamicsFactor>(k, 100 + k, k + 1, a, b,
                                          fg::isotropicSigmas(2, 1e-3));
        // Cost on state and input (Q and R of LQR).
        graph.emplace<fg::VectorPriorFactor>(k + 1, Vector(2),
                                             fg::isotropicSigmas(2, 1.0));
        graph.emplace<fg::VectorPriorFactor>(100 + k, Vector(1),
                                             fg::isotropicSigmas(1, 3.0));
    }

    auto result = fg::optimize(graph, initial);
    EXPECT_TRUE(result.converged);
    // Dynamics must hold tightly along the horizon.
    for (std::size_t k = 0; k < horizon; ++k) {
        const Vector &xk = result.values.vector(k);
        const Vector &uk = result.values.vector(100 + k);
        const Vector &xn = result.values.vector(k + 1);
        EXPECT_LT(maxDifference(xn, a * xk + b * uk), 1e-2);
    }
    // The final state approaches the reference.
    EXPECT_LT(result.values.vector(horizon).norm(), 0.3);
}

} // namespace
