#include <cmath>

#include "apps/missions.hpp"
#include "apps/common.hpp"

namespace orianna::apps {

namespace {

constexpr std::size_t kStates = 14;    //!< Joint-state window.
constexpr std::size_t kWaypoints = 14; //!< Planning horizon.
constexpr std::size_t kHorizon = 10;   //!< Control horizon.
constexpr double kDt = 0.2;

constexpr Key kPlanBase = 100;
constexpr Key kCtrlStateBase = 200;
constexpr Key kCtrlInputBase = 300;

} // namespace

/**
 * MANIPULATOR (Tbl. 4): two-link robot arm.
 *   Localization (joint-state estimation): 2-dim variables, Prior
 *   factors from the joint encoders.
 *   Planning: 4-dim states [q1 q2 dq1 dq2] in joint space,
 *   collision-free + smooth factors.
 *   Control: 2-dim state / 2-dim input, dynamics factors (velocity
 *   control of the joints).
 */
BenchmarkApp
manipulatorMission(unsigned seed)
{
    std::mt19937 rng(seed);
    core::Application app("Manipulator");

    // ---- Localization: encoder priors on each joint state ----
    std::vector<Vector> joint_truth;
    fg::FactorGraph loc;
    fg::Values loc_init;
    for (std::size_t i = 0; i < kStates; ++i) {
        const double s = 0.15 * static_cast<double>(i);
        Vector q{0.4 + 0.5 * std::sin(s), -0.3 + 0.4 * std::cos(s)};
        joint_truth.push_back(q);
        loc_init.insert(i, q + gaussianVector(2, rng, 0.08));
        // Two encoder readings per state (redundant sensing).
        loc.emplace<fg::VectorPriorFactor>(
            i, q + gaussianVector(2, rng, 0.02),
            fg::isotropicSigmas(2, 0.02), "Prior");
        loc.emplace<fg::VectorPriorFactor>(
            i, q + gaussianVector(2, rng, 0.02),
            fg::isotropicSigmas(2, 0.02), "Prior");
    }
    app.add("localization", std::move(loc), loc_init, 100.0);

    // ---- Planning: joint-space trajectory around a forbidden zone ----
    auto map = std::make_shared<fg::SdfMap>();
    // Joint-space forbidden zone clipping the straight-line plan.
    map->addObstacle(Vector{0.8, 0.35}, 0.35);
    const Vector start{0.0, -0.4, 0.0, 0.0};
    const Vector goal{1.6, 0.6, 0.0, 0.0};
    fg::FactorGraph plan;
    fg::Values plan_init;
    for (std::size_t k = 0; k < kWaypoints; ++k) {
        const double s = static_cast<double>(k) /
                         static_cast<double>(kWaypoints - 1);
        Vector state = start * (1.0 - s) + goal * s;
        plan_init.insert(kPlanBase + k, state);
        if (k + 1 < kWaypoints)
            plan.emplace<fg::SmoothFactor>(kPlanBase + k,
                                           kPlanBase + k + 1, 2, kDt,
                                           fg::isotropicSigmas(4, 0.3));
        plan.emplace<fg::CollisionFreeFactor>(kPlanBase + k, map, 4, 2,
                                              0.6, 0.15);
        plan.emplace<fg::VectorPriorFactor>(kPlanBase + k, state,
                                            fg::isotropicSigmas(4, 2.0));
    }
    plan.emplace<fg::VectorPriorFactor>(kPlanBase, start,
                                        fg::isotropicSigmas(4, 0.01));
    plan.emplace<fg::VectorPriorFactor>(kPlanBase + kWaypoints - 1, goal,
                                        fg::isotropicSigmas(4, 0.01));
    app.add("planning", std::move(plan), plan_init, 2.0);

    // ---- Control: joint velocity control, x_{k+1} = x_k + dt u_k ----
    Matrix a = Matrix::identity(2);
    Matrix b = Matrix::identity(2) * kDt;
    const Vector x0 = Vector{0.5, -0.35} + gaussianVector(2, rng, 0.05);
    fg::FactorGraph ctrl;
    fg::Values ctrl_init;
    for (std::size_t k = 0; k <= kHorizon; ++k)
        ctrl_init.insert(kCtrlStateBase + k, Vector(2));
    for (std::size_t k = 0; k < kHorizon; ++k)
        ctrl_init.insert(kCtrlInputBase + k, Vector(2));
    ctrl_init.update(kCtrlStateBase, x0);

    ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase, x0,
                                        fg::isotropicSigmas(2, 1e-3));
    for (std::size_t k = 0; k < kHorizon; ++k) {
        ctrl.emplace<fg::DynamicsFactor>(
            kCtrlStateBase + k, kCtrlInputBase + k,
            kCtrlStateBase + k + 1, a, b,
            fg::isotropicSigmas(2, 1e-3));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlStateBase + k + 1,
                                            Vector(2),
                                            fg::isotropicSigmas(2, 1.0));
        ctrl.emplace<fg::VectorPriorFactor>(kCtrlInputBase + k,
                                            Vector(2),
                                            fg::isotropicSigmas(2, 2.0));
    }
    app.add("control", std::move(ctrl), ctrl_init, 100.0);

    // Hinge (collision/kinematics) factors oscillate under full
    // Gauss-Newton steps; damp the planning algorithm's updates.
    app.algorithm(1).stepScale = 0.5;

    BenchmarkApp bench{std::move(app), nullptr};
    bench.check = [joint_truth, map, goal](
                      const std::vector<fg::Values> &solved,
                      std::string *why) {
        auto fail = [&](const char *reason) {
            if (why != nullptr)
                *why = reason;
            return false;
        };
        for (std::size_t i = 0; i < joint_truth.size(); ++i)
            if ((solved[0].vector(i) - joint_truth[i]).norm() > 0.045)
                return fail("localization error");
        for (std::size_t k = 0; k < kWaypoints; ++k) {
            const Vector &state = solved[1].vector(kPlanBase + k);
            if (map->distance(state.segment(0, 2)) <= 0.0)
                return fail("plan collision");
        }
        const Vector &last = solved[1].vector(kPlanBase + kWaypoints - 1);
        if ((last.segment(0, 2) - goal.segment(0, 2)).norm() > 0.1)
            return fail("plan goal");
        if (solved[2].vector(kCtrlStateBase + kHorizon).norm() > 0.2)
            return fail("control convergence");
        return true;
    };
    return bench;
}

} // namespace orianna::apps
