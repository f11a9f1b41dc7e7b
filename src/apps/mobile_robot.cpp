#include "apps/missions.hpp"
#include "apps/common.hpp"
#include "sensors/scan_matching.hpp"

namespace orianna::apps {

namespace {

constexpr std::size_t kPoses = 24;      //!< Localization window.
constexpr std::size_t kWaypoints = 16;  //!< Planning horizon.
constexpr std::size_t kHorizon = 12;    //!< Control horizon.
constexpr double kDt = 0.25;

constexpr Key kPlanBase = 100;
constexpr Key kCtrlStateBase = 200;
constexpr Key kCtrlInputBase = 300;

} // namespace

/**
 * MOBILEROBOT (Tbl. 4): two-wheeled robot on a plane.
 *   Localization: 3-dim poses, LiDAR (scan-match) + GPS factors.
 *   Planning: 6-dim states [x y theta vx vy omega], collision-free +
 *   smooth factors.
 *   Control: 3-dim state / 2-dim input, dynamics factors (linearized
 *   unicycle).
 */
BenchmarkApp
mobileRobotMission(unsigned seed)
{
    std::mt19937 rng(seed);
    core::Application app("MobileRobot");

    // ---- Localization: arc trajectory with LiDAR + GPS ----
    std::vector<Pose> truth;
    {
        Pose current(Vector{0.0}, Vector{0.0, 0.0});
        for (std::size_t i = 0; i < kPoses; ++i) {
            truth.push_back(current);
            current = current.oplus(
                Pose(Vector{0.05}, Vector{0.5, 0.0}));
        }
    }
    // LiDAR odometry comes from actual scan matching: render scans of
    // a scattered landmark field at each pose and align consecutive
    // ones with ICP (the Tbl. 2 LiDAR-factor front end).
    std::vector<Vector> field;
    {
        std::uniform_real_distribution<double> fx(-3.0, 16.0);
        std::uniform_real_distribution<double> fy(-6.0, 10.0);
        for (int i = 0; i < 70; ++i)
            field.push_back(Vector{fx(rng), fy(rng)});
    }
    std::vector<sensors::Scan> scans;
    for (std::size_t i = 0; i < kPoses; ++i)
        scans.push_back(
            sensors::renderScan(truth[i], field, 15.0, 0.01, rng));

    fg::FactorGraph loc;
    fg::Values loc_init;
    for (std::size_t i = 0; i < kPoses; ++i) {
        loc_init.insert(i, perturbPose(truth[i], rng, 0.03, 0.08));
        if (i + 1 < kPoses) {
            const auto match = sensors::icp2d(
                scans[i], scans[i + 1],
                truth[i + 1].ominus(truth[i]).retract(
                    gaussianVector(3, rng, 0.02)));
            loc.emplace<fg::LiDARFactor>(i, i + 1, match.relative,
                                         fg::isotropicSigmas(3, 0.02));
        }
        if (i % 3 == 0) {
            loc.emplace<fg::GPSFactor>(
                i, truth[i].t() + gaussianVector(2, rng, 0.05),
                fg::isotropicSigmas(2, 0.05));
        }
    }
    loc.emplace<fg::PriorFactor>(0u, truth[0],
                                 fg::isotropicSigmas(3, 0.01));
    app.add("localization", std::move(loc), loc_init, 20.0);

    // ---- Planning: around one obstacle between start and goal ----
    auto map = std::make_shared<fg::SdfMap>();
    // The obstacle clips the nominal straight-line path from one side
    // (symmetric head-on obstacles are degenerate for any local
    // planner).
    const double side = (seed % 2 == 0) ? 1.0 : -1.0;
    map->addObstacle(Vector{2.5 + 0.2 * uniformVector(1, rng, 1.0)[0],
                            side * (0.45 + 0.1 *
                                    uniformVector(1, rng, 1.0)[0])},
                     0.6);
    const Vector start{0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    const Vector goal{5.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    fg::FactorGraph plan;
    fg::Values plan_init;
    for (std::size_t k = 0; k < kWaypoints; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(kWaypoints - 1);
        Vector state{5.0 * s, 0.0, 0.0, 1.0, 0.0, 0.0};
        plan_init.insert(kPlanBase + k, state);
        if (k + 1 < kWaypoints)
            plan.emplace<fg::SmoothFactor>(kPlanBase + k,
                                           kPlanBase + k + 1, 3, kDt,
                                           fg::isotropicSigmas(6, 0.4));
        plan.emplace<fg::CollisionFreeFactor>(kPlanBase + k, map, 6, 2,
                                              1.0, 0.15);
        // Weak anchor: keeps the hinge-regularized Gauss-Newton steps
        // well conditioned (compiled into the program, so software and
        // accelerator stay identical).
        plan.emplace<fg::VectorPriorFactor>(kPlanBase + k, state,
                                            fg::isotropicSigmas(6, 2.0));
    }
    plan.emplace<fg::VectorPriorFactor>(kPlanBase, start,
                                        fg::isotropicSigmas(6, 0.01));
    plan.emplace<fg::VectorPriorFactor>(kPlanBase + kWaypoints - 1, goal,
                                        fg::isotropicSigmas(6, 0.01));
    app.add("planning", std::move(plan), plan_init, 5.0);

    // ---- Control: unicycle linearized about forward motion ----
    const double v0 = 1.0;
    Matrix a = Matrix::identity(3);
    a(0, 2) = -kDt * v0 * 0.0; // sin(theta0) with theta0 = 0.
    a(1, 2) = kDt * v0;        // cos(theta0).
    Matrix b(3, 2);
    b(0, 0) = kDt;
    b(2, 1) = kDt;

    const Vector x0 =
        Vector{0.4, -0.3, 0.15} + gaussianVector(3, rng, 0.05);
    fg::FactorGraph ctrl;
    fg::Values ctrl_init;
    for (std::size_t k = 0; k <= kHorizon; ++k)
        ctrl_init.insert(kCtrlStateBase + k, Vector(3));
    for (std::size_t k = 0; k < kHorizon; ++k)
        ctrl_init.insert(kCtrlInputBase + k, Vector(2));
    ctrl_init.update(kCtrlStateBase, x0);

    ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase, x0,
                                        fg::isotropicSigmas(3, 1e-3));
    for (std::size_t k = 0; k < kHorizon; ++k) {
        ctrl.emplace<fg::DynamicsFactor>(
            kCtrlStateBase + k, kCtrlInputBase + k,
            kCtrlStateBase + k + 1, a, b,
            fg::isotropicSigmas(3, 1e-3));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase + k + 1,
                                            Vector(3),
                                            fg::isotropicSigmas(3, 1.0));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlInputBase + k,
                                            Vector(2),
                                            fg::isotropicSigmas(2, 2.5));
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
        // Localization: track ground truth.
        if (meanPositionError(solved[0], truth, 0) > 0.08)
            return fail("localization error");
        // Planning: collision-free waypoints reaching the goal.
        for (std::size_t k = 0; k < kWaypoints; ++k) {
            const Vector &state = solved[1].vector(kPlanBase + k);
            if (map->distance(state.segment(0, 2)) <= 0.0)
                return fail("plan collision");
        }
        const Vector &last = solved[1].vector(kPlanBase + kWaypoints - 1);
        if ((last.segment(0, 2) - goal.segment(0, 2)).norm() > 0.15)
            return fail("plan goal");
        // Control: the horizon end reaches the reference.
        if (solved[2].vector(kCtrlStateBase + kHorizon).norm() > 0.25)
            return fail("control convergence");
        return true;
    };
    return bench;
}

} // namespace orianna::apps
