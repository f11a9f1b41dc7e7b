#include <cmath>

#include "apps/missions.hpp"
#include "apps/common.hpp"
#include "sensors/imu.hpp"

namespace orianna::apps {

namespace {

constexpr std::size_t kPoses = 14;     //!< Localization window.
constexpr std::size_t kLandmarks = 10;
constexpr std::size_t kWaypoints = 12; //!< Planning horizon.
constexpr std::size_t kHorizon = 12;   //!< Control horizon.
constexpr double kDt = 0.15;

constexpr Key kLandmarkBase = 50;
constexpr Key kPlanBase = 100;
constexpr Key kCtrlStateBase = 200;
constexpr Key kCtrlInputBase = 300;

} // namespace

/**
 * QUADROTOR (Tbl. 4): four-rotor micro drone.
 *   Localization: 6-dim poses (3 orientation + 3 position), Camera +
 *   IMU factors over a sliding window with 3-D landmarks.
 *   Planning: 12-dim states [pose(6); velocity(6)], collision-free +
 *   kinematics + smooth factors.
 *   Control: 12-dim state / 5-dim input, kinematics + dynamics
 *   factors (linearized hover dynamics).
 */
BenchmarkApp
quadrotorMission(unsigned seed)
{
    std::mt19937 rng(seed);
    core::Application app("Quadrotor");

    // ---- Localization: ascending arc with camera + IMU ----
    std::vector<Pose> truth;
    {
        Pose current(Vector{0.0, 0.0, 0.0}, Vector{0.0, 0.0, 1.0});
        for (std::size_t i = 0; i < kPoses; ++i) {
            truth.push_back(current);
            current = current.oplus(Pose(Vector{0.0, 0.0, 0.1},
                                         Vector{0.4, 0.0, 0.05}));
        }
    }
    std::vector<Vector> landmarks;
    for (std::size_t l = 0; l < kLandmarks; ++l) {
        landmarks.push_back(Vector{0.5 + 0.6 * l,
                                   -0.8 + 0.35 * l,
                                   4.0 + 0.3 * l});
    }

    const fg::CameraModel cam{420.0, 420.0, 320.0, 240.0};
    auto pixel = [&](const Pose &x, const Vector &l) {
        Vector local = x.rotation().transposeTimes(l - x.t());
        return Vector{cam.fx * local[0] / local[2] + cam.cx,
                      cam.fy * local[1] / local[2] + cam.cy};
    };

    fg::FactorGraph loc;
    fg::Values loc_init;
    for (std::size_t i = 0; i < kPoses; ++i) {
        loc_init.insert(i, perturbPose(truth[i], rng, 0.015, 0.06));
        if (i + 1 < kPoses) {
            // Preintegrate a burst of synthetic inertial samples
            // between the keyframes (the m4/m5 measurements of the
            // Sec. 5.1 listing).
            sensors::ImuPreintegrator integrator(3);
            for (const auto &sample : sensors::synthesizeImuSegment(
                     truth[i], truth[i + 1], 25, 1.0 / 30.0, rng,
                     0.02, 0.06))
                integrator.add(sample);
            loc.emplace<fg::IMUFactor>(i, i + 1, integrator.delta(),
                                       fg::isotropicSigmas(6, 0.015));
        }
        // Each pose observes three landmarks (round robin).
        for (std::size_t c = 0; c < 3; ++c) {
            const std::size_t l = (i + c) % kLandmarks;
            loc.emplace<fg::CameraFactor>(
                i, kLandmarkBase + l,
                pixel(truth[i], landmarks[l]) +
                    gaussianVector(2, rng, 0.8),
                cam, fg::isotropicSigmas(2, 0.8));
        }
    }
    for (std::size_t l = 0; l < kLandmarks; ++l)
        loc_init.insert(kLandmarkBase + l,
                        landmarks[l] + gaussianVector(3, rng, 0.08));
    loc.emplace<fg::PriorFactor>(0u, truth[0],
                                 fg::isotropicSigmas(6, 0.005));
    app.add("localization", std::move(loc), loc_init, 30.0);

    // ---- Planning: 3-D corridor with a floating obstacle ----
    auto map = std::make_shared<fg::SdfMap>();
    // Floating obstacle clipping the climb corridor from one side.
    const double side = (seed % 2 == 0) ? 1.0 : -1.0;
    map->addObstacle(
        Vector{2.0, side * (0.35 + 0.1 * uniformVector(1, rng, 1)[0]),
               1.5},
        0.5);
    Vector start(12);
    start[2] = 1.0;   // z.
    start[6] = 1.0;   // vx.
    Vector goal(12);
    goal[0] = 4.0;
    goal[2] = 2.0;
    goal[6] = 1.0;
    const double vmax = 2.5;
    fg::FactorGraph plan;
    fg::Values plan_init;
    for (std::size_t k = 0; k < kWaypoints; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(kWaypoints - 1);
        Vector state = start * (1.0 - s) + goal * s;
        plan_init.insert(kPlanBase + k, state);
        if (k + 1 < kWaypoints)
            plan.emplace<fg::SmoothFactor>(kPlanBase + k,
                                           kPlanBase + k + 1, 6, kDt,
                                           fg::isotropicSigmas(12, 0.5));
        plan.emplace<fg::CollisionFreeFactor>(kPlanBase + k, map, 12, 3,
                                              0.8, 0.15);
        plan.emplace<fg::KinematicsFactor>(kPlanBase + k, 12, 6, 6,
                                           vmax, 0.3);
        plan.emplace<fg::VectorPriorFactor>(kPlanBase + k, state,
                                            fg::isotropicSigmas(12, 2.5));
    }
    plan.emplace<fg::VectorPriorFactor>(kPlanBase, start,
                                        fg::isotropicSigmas(12, 0.01));
    plan.emplace<fg::VectorPriorFactor>(kPlanBase + kWaypoints - 1, goal,
                                        fg::isotropicSigmas(12, 0.01));
    app.add("planning", std::move(plan), plan_init, 5.0);

    // ---- Control: linearized hover dynamics ----
    // State [p(3) v(3) rpy(3) omega(3)], input [thrust, mx, my, mz,
    // collective-trim] (5 inputs per Tbl. 4).
    const double g = 9.81;
    Matrix a = Matrix::identity(12);
    for (std::size_t i = 0; i < 3; ++i) {
        a(i, 3 + i) = kDt;     // p += v dt.
        a(6 + i, 9 + i) = kDt; // rpy += omega dt.
    }
    a(3, 7) = kDt * g;  // vx couples to pitch.
    a(4, 6) = -kDt * g; // vy couples to roll.
    Matrix b(12, 5);
    b(5, 0) = kDt;        // vz from thrust.
    b(9, 1) = 4.0 * kDt;  // omega_x from mx.
    b(10, 2) = 4.0 * kDt; // omega_y from my.
    b(11, 3) = 4.0 * kDt; // omega_z from mz.
    b(5, 4) = 0.2 * kDt; // Collective trim.

    Vector x0(12);
    x0[0] = 0.3;
    x0[2] = -0.2;
    x0[6] = 0.05;
    x0 = x0 + gaussianVector(12, rng, 0.02);
    fg::FactorGraph ctrl;
    fg::Values ctrl_init;
    for (std::size_t k = 0; k <= kHorizon; ++k)
        ctrl_init.insert(kCtrlStateBase + k, Vector(12));
    for (std::size_t k = 0; k < kHorizon; ++k)
        ctrl_init.insert(kCtrlInputBase + k, Vector(5));
    ctrl_init.update(kCtrlStateBase, x0);

    ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase, x0,
                                        fg::isotropicSigmas(12, 1e-3));
    for (std::size_t k = 0; k < kHorizon; ++k) {
        ctrl.emplace<fg::DynamicsFactor>(
            kCtrlStateBase + k, kCtrlInputBase + k,
            kCtrlStateBase + k + 1, a, b,
            fg::isotropicSigmas(12, 1e-3));
        ctrl.emplace<fg::KinematicsFactor>(kCtrlStateBase + k + 1, 12,
                                           3, 3, vmax, 0.5);
        ctrl.emplace<fg::VectorPriorFactor>(
            kCtrlStateBase + k + 1, Vector(12),
            fg::isotropicSigmas(12, 1.0));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlInputBase + k,
                                            Vector(5),
                                            fg::isotropicSigmas(5, 2.0));
    }
    app.add("control", std::move(ctrl), ctrl_init, 100.0);

    // Hinge (collision/kinematics) factors oscillate under full
    // Gauss-Newton steps; damp the planning algorithm's updates.
    app.algorithm(1).stepScale = 0.5;

    BenchmarkApp bench{std::move(app), nullptr};
    bench.check = [truth, map, goal](
                      const std::vector<fg::Values> &solved,
                      std::string *why) {
        auto fail = [&](const char *reason) {
            if (why != nullptr)
                *why = reason;
            return false;
        };
        if (meanPositionError(solved[0], truth, 0) > 0.105)
            return fail("localization error");
        for (std::size_t k = 0; k < kWaypoints; ++k) {
            const Vector &state = solved[1].vector(kPlanBase + k);
            if (map->distance(state.segment(0, 3)) <= 0.0)
                return fail("plan collision");
        }
        const Vector &last = solved[1].vector(kPlanBase + kWaypoints - 1);
        if ((last.segment(0, 3) - goal.segment(0, 3)).norm() > 0.2)
            return fail("plan goal");
        if (solved[2].vector(kCtrlStateBase + kHorizon).norm() > 0.35)
            return fail("control convergence");
        return true;
    };
    return bench;
}

} // namespace orianna::apps
