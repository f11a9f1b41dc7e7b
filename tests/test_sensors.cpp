// Tests for the sensor front-end substrates: IMU preintegration and
// 2-D ICP scan matching.

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fg/factors.hpp"
#include "fg/optimizer.hpp"
#include "lie/so.hpp"
#include "sensors/imu.hpp"
#include "sensors/scan_matching.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using lie::Pose;
using mat::Vector;
using sensors::ImuPreintegrator;
using sensors::ImuSample;
using sensors::Scan;

// --- IMU preintegration -----------------------------------------------------

class Preintegration : public ::testing::TestWithParam<int>
{};

TEST_P(Preintegration, NoiselessSamplesReproduceMotionExactly)
{
    std::mt19937 rng(90 + GetParam());
    for (std::size_t dim : {2u, 3u}) {
        const Pose a = randomPose(dim, rng, 0.5, 2.0);
        const Pose b = randomPose(dim, rng, 0.5, 2.0);
        const auto samples = sensors::synthesizeImuSegment(
            a, b, 40, 0.2, rng, 0.0, 0.0);
        ImuPreintegrator integrator(dim);
        for (const ImuSample &sample : samples)
            integrator.add(sample);
        EXPECT_LT(lie::poseDistance(integrator.delta(), b.ominus(a)),
                  1e-9)
            << "dim " << dim;
        EXPECT_NEAR(integrator.elapsed(), 0.2, 1e-12);
        EXPECT_EQ(integrator.count(), 40u);
    }
}

TEST_P(Preintegration, NoisySamplesStayNearMotion)
{
    std::mt19937 rng(120 + GetParam());
    const Pose a = randomPose(3, rng, 0.3, 1.0);
    const Pose b = randomPose(3, rng, 0.3, 1.0);
    const auto samples = sensors::synthesizeImuSegment(
        a, b, 50, 0.25, rng, 0.02, 0.05);
    ImuPreintegrator integrator(3);
    for (const ImuSample &sample : samples)
        integrator.add(sample);
    const double err =
        lie::poseDistance(integrator.delta(), b.ominus(a));
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Preintegration, ::testing::Range(0, 6));

TEST(Preintegration, ResetAndValidation)
{
    ImuPreintegrator integrator(2);
    ImuSample sample;
    sample.gyro = Vector{0.1};
    sample.velocity = Vector{1.0, 0.0};
    sample.dt = 0.01;
    integrator.add(sample);
    EXPECT_EQ(integrator.count(), 1u);
    integrator.reset();
    EXPECT_EQ(integrator.count(), 0u);
    EXPECT_LT(lie::poseDistance(integrator.delta(), Pose::identity(2)),
              1e-15);

    sample.dt = -1.0;
    EXPECT_THROW(integrator.add(sample), std::invalid_argument);
    sample.dt = 0.01;
    sample.gyro = Vector{0.1, 0.2, 0.3};
    EXPECT_THROW(integrator.add(sample), std::invalid_argument);
    EXPECT_THROW(ImuPreintegrator(5), std::invalid_argument);
    std::mt19937 rng(1);
    EXPECT_THROW(sensors::synthesizeImuSegment(Pose::identity(2),
                                               Pose::identity(2), 0,
                                               0.1, rng, 0, 0),
                 std::invalid_argument);
}

TEST(Preintegration, FeedsImuFactor)
{
    // End to end: preintegrated measurements drive the localization
    // factor graph to the true trajectory.
    std::mt19937 rng(91);
    std::vector<Pose> truth;
    Pose current = Pose::identity(3);
    for (int i = 0; i < 5; ++i) {
        truth.push_back(current);
        current = current.oplus(Pose(Vector{0.05, 0.0, 0.1},
                                     Vector{0.4, 0.0, 0.05}));
    }
    fg::FactorGraph graph;
    fg::Values init;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        init.insert(i, orianna::test::randomPose(3, rng, 0.02, 0.05)
                           .oplus(truth[i]));
        if (i + 1 < truth.size()) {
            ImuPreintegrator integrator(3);
            for (const auto &sample : sensors::synthesizeImuSegment(
                     truth[i], truth[i + 1], 30, 0.1, rng, 0.001,
                     0.003))
                integrator.add(sample);
            graph.emplace<fg::IMUFactor>(i, i + 1, integrator.delta(),
                                         fg::isotropicSigmas(6, 0.01));
        }
    }
    graph.emplace<fg::PriorFactor>(0u, truth[0],
                                   fg::isotropicSigmas(6, 0.001));
    auto result = fg::optimize(graph, init);
    for (std::size_t i = 0; i < truth.size(); ++i)
        EXPECT_LT((result.values.pose(i).t() - truth[i].t()).norm(),
                  0.05)
            << "pose " << i;
}

// --- ICP scan matching ------------------------------------------------------

std::vector<Vector>
wallMap()
{
    // Irregular landmark field: repetitive structure (e.g. an evenly
    // spaced wall) aliases point-to-point ICP, so use a scattered map
    // like natural LiDAR returns.
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> x(-3.0, 10.0);
    std::uniform_real_distribution<double> y(-4.0, 4.0);
    std::vector<Vector> landmarks;
    for (int i = 0; i < 60; ++i)
        landmarks.push_back(Vector{x(rng), y(rng)});
    return landmarks;
}

TEST(Icp, RecoversKnownMotion)
{
    std::mt19937 rng(92);
    const auto landmarks = wallMap();
    const Pose a(Vector{0.1}, Vector{1.0, 0.2});
    const Pose b(Vector{0.22}, Vector{1.5, 0.35});

    const Scan scan_a =
        sensors::renderScan(a, landmarks, 12.0, 0.0, rng);
    const Scan scan_b =
        sensors::renderScan(b, landmarks, 12.0, 0.0, rng);
    const auto result =
        sensors::icp2d(scan_a, scan_b, Pose::identity(2));

    EXPECT_TRUE(result.converged);
    EXPECT_LT(lie::poseDistance(result.relative, b.ominus(a)), 1e-6);
    EXPECT_LT(result.meanResidual, 1e-6);
}

TEST(Icp, NoisyScansStayClose)
{
    std::mt19937 rng(93);
    const auto landmarks = wallMap();
    const Pose a(Vector{0.0}, Vector{0.5, 0.0});
    const Pose b(Vector{0.08}, Vector{0.9, 0.1});
    const Scan scan_a =
        sensors::renderScan(a, landmarks, 12.0, 0.01, rng);
    const Scan scan_b =
        sensors::renderScan(b, landmarks, 12.0, 0.01, rng);
    const auto result =
        sensors::icp2d(scan_a, scan_b, Pose::identity(2));
    EXPECT_LT(lie::poseDistance(result.relative, b.ominus(a)), 0.02);
}

TEST(Icp, InitialGuessExtendsBasin)
{
    // A large motion fails from identity but succeeds from an
    // odometry-grade initial guess.
    std::mt19937 rng(94);
    const auto landmarks = wallMap();
    const Pose a(Vector{0.0}, Vector{0.5, 0.0});
    const Pose b(Vector{0.5}, Vector{3.5, 1.0});
    const Scan scan_a =
        sensors::renderScan(a, landmarks, 20.0, 0.0, rng);
    const Scan scan_b =
        sensors::renderScan(b, landmarks, 20.0, 0.0, rng);

    const Pose truth = b.ominus(a);
    const auto guessed = sensors::icp2d(
        scan_a, scan_b, truth.retract(Vector{0.05, 0.2, -0.1}));
    EXPECT_LT(lie::poseDistance(guessed.relative, truth), 1e-5);
}

TEST(Icp, RendersOnlyInRange)
{
    std::mt19937 rng(95);
    const auto landmarks = wallMap();
    const Pose pose(Vector{0.0}, Vector{0.0, 0.0});
    const Scan near = sensors::renderScan(pose, landmarks, 3.5, 0.0, rng);
    const Scan all = sensors::renderScan(pose, landmarks, 50.0, 0.0, rng);
    EXPECT_LT(near.points.size(), all.points.size());
    EXPECT_EQ(all.points.size(), landmarks.size());
}

TEST(Icp, EmptyScanRejected)
{
    Scan empty;
    Scan one;
    one.points.push_back(Vector{1.0, 1.0});
    EXPECT_THROW(sensors::icp2d(empty, one, Pose::identity(2)),
                 std::invalid_argument);
    Scan line;
    line.points.push_back(Vector{1.0, 1.0, 1.0});
    EXPECT_THROW(sensors::icp2d(one, line, Pose::identity(2)),
                 std::invalid_argument);
    Scan nan;
    nan.points.push_back(
        Vector{std::numeric_limits<double>::quiet_NaN(), 1.0});
    EXPECT_THROW(sensors::icp2d(nan, one, Pose::identity(2)),
                 std::invalid_argument);
    EXPECT_THROW(sensors::icp2d(one, one, Pose::identity(3)),
                 std::invalid_argument);
}

// --- ICP differential: icp2d against the brute-force reference -------------

/**
 * The original icp2d: a fresh vector for every mapped point and every
 * candidate distance. icp2d must reproduce it bit for bit, since its
 * matches feed the MobileRobot localization graph.
 */
sensors::IcpResult
referenceIcp2d(const Scan &from, const Scan &to, const Pose &initial_guess,
               const sensors::IcpParams &params = {})
{
    sensors::IcpResult result;
    result.relative = initial_guess;
    for (std::size_t iter = 0; iter < params.maxIterations; ++iter) {
        ++result.iterations;
        const mat::Matrix r = result.relative.rotation();
        std::vector<std::pair<Vector, Vector>> pairs;
        double residual = 0.0;
        for (const Vector &q : to.points) {
            const Vector mapped = r * q + result.relative.t();
            double best = std::numeric_limits<double>::max();
            const Vector *match = nullptr;
            for (const Vector &p : from.points) {
                const double d = (mapped - p).norm();
                if (d < best) {
                    best = d;
                    match = &p;
                }
            }
            if (match != nullptr && best <= params.maxCorrespondence) {
                pairs.emplace_back(*match, q);
                residual += best;
            }
        }
        if (pairs.size() < 2)
            break;
        result.meanResidual =
            residual / static_cast<double>(pairs.size());
        Vector p_bar(2);
        Vector q_bar(2);
        for (const auto &[p, q] : pairs) {
            p_bar += p;
            q_bar += q;
        }
        const double inv = 1.0 / static_cast<double>(pairs.size());
        p_bar = p_bar * inv;
        q_bar = q_bar * inv;
        double sxx = 0.0;
        double sxy = 0.0;
        for (const auto &[p, q] : pairs) {
            const Vector pc = p - p_bar;
            const Vector qc = q - q_bar;
            sxx += qc[0] * pc[0] + qc[1] * pc[1];
            sxy += qc[0] * pc[1] - qc[1] * pc[0];
        }
        const double theta = std::atan2(sxy, sxx);
        const mat::Matrix r_new = lie::expSo(Vector{theta});
        const Vector t_new = p_bar - r_new * q_bar;
        const Pose updated(Vector{theta}, t_new);
        const double step = lie::poseDistance(updated, result.relative);
        result.relative = updated;
        if (step < params.tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBits(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return false;
    return true;
}

/** icp2d and the reference agree on every field, bit for bit. */
void
expectMatchesReference(const Scan &from, const Scan &to,
                       const Pose &guess,
                       const sensors::IcpParams &params = {})
{
    const sensors::IcpResult got = sensors::icp2d(from, to, guess, params);
    const sensors::IcpResult want = referenceIcp2d(from, to, guess, params);
    EXPECT_TRUE(sameBits(got.relative.phi(), want.relative.phi()))
        << got.relative.phi().str() << " vs " << want.relative.phi().str();
    EXPECT_TRUE(sameBits(got.relative.t(), want.relative.t()))
        << got.relative.t().str() << " vs " << want.relative.t().str();
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_TRUE(sameBits(got.meanResidual, want.meanResidual))
        << got.meanResidual << " vs " << want.meanResidual;
    EXPECT_EQ(got.converged, want.converged);
}

/** A MobileRobot-style landmark field: 70 scattered points. */
std::vector<Vector>
mobileRobotField(std::mt19937 &rng)
{
    std::uniform_real_distribution<double> fx(-3.0, 16.0);
    std::uniform_real_distribution<double> fy(-6.0, 10.0);
    std::vector<Vector> field;
    for (int i = 0; i < 70; ++i)
        field.push_back(Vector{fx(rng), fy(rng)});
    return field;
}

TEST(IcpDifferential, MobileRobotScanPairsMatchBruteForce)
{
    // Consecutive arc poses as in the MobileRobot mission, with
    // odometry guesses of growing noise so that the runs take from
    // one to many iterations.
    const Pose step(Vector{0.05}, Vector{0.5, 0.0});
    for (unsigned seed = 0; seed < 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(500 + seed);
        const std::vector<Vector> field = mobileRobotField(rng);
        Pose a(Vector{0.0}, Vector{0.0, 0.0});
        for (unsigned k = 0; k < seed % 24; ++k)
            a = a.oplus(step);
        const Pose b = a.oplus(step);
        const Scan from = sensors::renderScan(a, field, 15.0, 0.01, rng);
        const Scan to = sensors::renderScan(b, field, 15.0, 0.01, rng);
        std::normal_distribution<double> noise(
            0.0, 0.02 * static_cast<double>(1 + seed % 5));
        const Pose guess = b.ominus(a).retract(
            Vector{noise(rng), noise(rng), noise(rng)});
        expectMatchesReference(from, to, guess);
    }
}

TEST(IcpDifferential, RejectedCorrespondencesMatchBruteForce)
{
    // Points far from every landmark exceed maxCorrespondence and
    // drop out of the alignment; a tight bound rejects near misses too.
    std::mt19937 rng(77);
    const std::vector<Vector> field = mobileRobotField(rng);
    const Pose a(Vector{0.1}, Vector{1.0, 0.5});
    const Pose b = a.oplus(Pose(Vector{0.05}, Vector{0.5, 0.0}));
    const Scan from = sensors::renderScan(a, field, 15.0, 0.01, rng);
    Scan to = sensors::renderScan(b, field, 15.0, 0.01, rng);
    for (int i = 0; i < 5; ++i)
        to.points.push_back(Vector{40.0 + i, -30.0});
    const Pose guess = b.ominus(a).retract(Vector{0.03, -0.05, 0.04});
    expectMatchesReference(from, to, guess);
    sensors::IcpParams tight;
    tight.maxCorrespondence = 0.05;
    expectMatchesReference(from, to, guess, tight);
}

TEST(IcpDifferential, TiesPickTheFirstIndexLikeBruteForce)
{
    // (0, 0) lies at distance 1 from both (-1, 0) and (1, 0): the first
    // index wins, and the alignment depends on which one that is.
    // Listing the farther-right point first, or last, covers both
    // sides of the search's starting point.
    for (const bool right_first : {false, true}) {
        SCOPED_TRACE(right_first ? "right first" : "left first");
        Scan from;
        from.points = {Vector{-1.0, 0.0}, Vector{1.0, 0.0},
                       Vector{0.0, 3.0}, Vector{4.0, 0.5},
                       Vector{4.0, 0.5}};
        if (right_first)
            std::swap(from.points[0], from.points[1]);
        Scan to;
        to.points = {Vector{0.0, 0.0}, Vector{0.0, 3.0},
                     Vector{4.0, 0.5}};
        sensors::IcpParams one_step;
        one_step.maxIterations = 1;
        expectMatchesReference(from, to, Pose::identity(2), one_step);
        expectMatchesReference(from, to, Pose::identity(2));
    }
}

TEST(IcpDifferential, DisjointScansStopLikeBruteForce)
{
    // No pair lies within maxCorrespondence: both stop in the first
    // iteration on fewer than two pairs and return the guess.
    Scan from;
    Scan to;
    for (int i = 0; i < 6; ++i) {
        from.points.push_back(Vector{0.3 * i, 0.1 * i});
        to.points.push_back(Vector{50.0 + 0.3 * i, 50.0});
    }
    const Pose guess(Vector{0.02}, Vector{0.1, -0.1});
    expectMatchesReference(from, to, guess);
    const sensors::IcpResult result = sensors::icp2d(from, to, guess);
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_FALSE(result.converged);
    EXPECT_TRUE(sameBits(result.relative.t(), guess.t()));
}

} // namespace
