#include <cmath>

#include "apps/missions.hpp"
#include "apps/common.hpp"

namespace orianna::apps {

namespace {

constexpr std::size_t kPoses = 24;     //!< Localization window.
constexpr std::size_t kWaypoints = 16; //!< Planning horizon.
constexpr std::size_t kHorizon = 12;   //!< Control horizon.
constexpr double kDt = 0.2;

constexpr Key kPlanBase = 100;
constexpr Key kCtrlStateBase = 200;
constexpr Key kCtrlInputBase = 300;

} // namespace

/**
 * AUTOVEHICLE (Tbl. 4): four-wheeled vehicle with car dynamics.
 *   Localization: 3-dim poses, LiDAR + GPS factors.
 *   Planning: 6-dim states, collision-free + kinematics (speed
 *   limits) factors.
 *   Control: 5-dim state [x y theta v delta] / 2-dim input
 *   [accel, steering rate], kinematics + dynamics factors
 *   (linearized bicycle model).
 */
BenchmarkApp
autoVehicleMission(unsigned seed)
{
    std::mt19937 rng(seed);
    core::Application app("AutoVehicle");

    // ---- Localization: lane-change trajectory, LiDAR + GPS ----
    std::vector<Pose> truth;
    {
        Pose current(Vector{0.0}, Vector{0.0, 0.0});
        for (std::size_t i = 0; i < kPoses; ++i) {
            truth.push_back(current);
            const double steer = (i < kPoses / 2) ? 0.03 : -0.03;
            current =
                current.oplus(Pose(Vector{steer}, Vector{1.2, 0.0}));
        }
    }
    fg::FactorGraph loc;
    fg::Values loc_init;
    for (std::size_t i = 0; i < kPoses; ++i) {
        loc_init.insert(i, perturbPose(truth[i], rng, 0.03, 0.12));
        if (i + 1 < kPoses) {
            const Pose odom = perturbPose(
                truth[i + 1].ominus(truth[i]), rng, 0.008, 0.03);
            loc.emplace<fg::LiDARFactor>(i, i + 1, odom,
                                         fg::isotropicSigmas(3, 0.03));
        }
        if (i % 4 == 0)
            loc.emplace<fg::GPSFactor>(
                i, truth[i].t() + gaussianVector(2, rng, 0.08),
                fg::isotropicSigmas(2, 0.08));
    }
    loc.emplace<fg::PriorFactor>(0u, truth[0],
                                 fg::isotropicSigmas(3, 0.01));
    app.add("localization", std::move(loc), loc_init, 20.0);

    // ---- Planning: overtaking around a parked car ----
    auto map = std::make_shared<fg::SdfMap>();
    // Parked car clipping the lane from one side.
    const double side = (seed % 2 == 0) ? 1.0 : -1.0;
    map->addObstacle(
        Vector{6.0, side * (0.8 + 0.2 * uniformVector(1, rng, 1)[0])},
        1.0);
    const Vector start{0.0, 0.0, 0.0, 2.0, 0.0, 0.0};
    const Vector goal{12.0, 0.0, 0.0, 2.0, 0.0, 0.0};
    const double vmax = 3.0;
    fg::FactorGraph plan;
    fg::Values plan_init;
    for (std::size_t k = 0; k < kWaypoints; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(kWaypoints - 1);
        Vector state = start * (1.0 - s) + goal * s;
        plan_init.insert(kPlanBase + k, state);
        if (k + 1 < kWaypoints)
            plan.emplace<fg::SmoothFactor>(kPlanBase + k,
                                           kPlanBase + k + 1, 3, kDt,
                                           fg::isotropicSigmas(6, 0.5));
        plan.emplace<fg::CollisionFreeFactor>(kPlanBase + k, map, 6, 2,
                                              1.6, 0.15);
        plan.emplace<fg::KinematicsFactor>(kPlanBase + k, 6, 3, 3, vmax,
                                           0.2);
        plan.emplace<fg::VectorPriorFactor>(kPlanBase + k, state,
                                            fg::isotropicSigmas(6, 2.5));
    }
    plan.emplace<fg::VectorPriorFactor>(kPlanBase, start,
                                        fg::isotropicSigmas(6, 0.01));
    plan.emplace<fg::VectorPriorFactor>(kPlanBase + kWaypoints - 1, goal,
                                        fg::isotropicSigmas(6, 0.01));
    app.add("planning", std::move(plan), plan_init, 5.0);

    // ---- Control: linearized bicycle model about forward motion ----
    // State [x y theta v delta], input [a, d(delta)/dt], linearized
    // at theta0 = 0, v0 = 2, delta0 = 0, wheelbase L = 2.5.
    const double v0 = 2.0;
    const double wheelbase = 2.5;
    Matrix a = Matrix::identity(5);
    a(0, 3) = kDt;             // x += v dt.
    a(1, 2) = kDt * v0;        // y += v0 theta dt.
    a(2, 4) = kDt * v0 / wheelbase; // theta += v0/L delta dt.
    Matrix b(5, 2);
    b(3, 0) = kDt;
    b(4, 1) = kDt;

    const Vector x0 = Vector{0.0, -0.5, 0.08, 0.3, 0.0} +
                      gaussianVector(5, rng, 0.04);
    fg::FactorGraph ctrl;
    fg::Values ctrl_init;
    for (std::size_t k = 0; k <= kHorizon; ++k)
        ctrl_init.insert(kCtrlStateBase + k, Vector(5));
    for (std::size_t k = 0; k < kHorizon; ++k)
        ctrl_init.insert(kCtrlInputBase + k, Vector(2));
    ctrl_init.update(kCtrlStateBase, x0);

    ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase, x0,
                                        fg::isotropicSigmas(5, 1e-3));
    for (std::size_t k = 0; k < kHorizon; ++k) {
        ctrl.emplace<fg::DynamicsFactor>(
            kCtrlStateBase + k, kCtrlInputBase + k,
            kCtrlStateBase + k + 1, a, b,
            fg::isotropicSigmas(5, 1e-3));
        // Kinematics constraint on the velocity entry of the state.
        ctrl.emplace<fg::KinematicsFactor>(kCtrlStateBase + k + 1, 5, 3,
                                           1, vmax, 0.5);
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase + k + 1,
                                            Vector(5),
                                            fg::isotropicSigmas(5, 1.0));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlInputBase + k,
                                            Vector(2),
                                            fg::isotropicSigmas(2, 2.0));
    }
    app.add("control", std::move(ctrl), ctrl_init, 50.0);

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
        if (meanPositionError(solved[0], truth, 0) > 0.12)
            return fail("localization error");
        for (std::size_t k = 0; k < kWaypoints; ++k) {
            const Vector &state = solved[1].vector(kPlanBase + k);
            if (map->distance(state.segment(0, 2)) <= 0.0)
                return fail("plan collision");
            if (state.segment(3, 3).maxAbs() > 3.6) // Speed limit.
                return fail("plan speed limit");
        }
        const Vector &last = solved[1].vector(kPlanBase + kWaypoints - 1);
        if ((last.segment(0, 2) - goal.segment(0, 2)).norm() > 0.2)
            return fail("plan goal");
        if (solved[2].vector(kCtrlStateBase + kHorizon).norm() > 0.3)
            return fail("control convergence");
        return true;
    };
    return bench;
}

} // namespace orianna::apps
