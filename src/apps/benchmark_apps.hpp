#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/application.hpp"

namespace orianna::apps {

/** The four evaluation applications of Tbl. 4. */
enum class AppKind : std::uint8_t {
    MobileRobot, //!< Two-wheeled robot on a plane.
    Manipulator, //!< Two-link robot arm.
    AutoVehicle, //!< Four-wheeled vehicle with car dynamics.
    Quadrotor,   //!< Four-rotor micro drone.
};

const char *appName(AppKind kind);
std::vector<AppKind> allApps();

/**
 * A benchmark application instance: the ORIANNA application
 * (localization + planning + control algorithms with the Tbl. 4
 * variable dimensions and factor types; compiled when it comes from
 * buildApp, not from buildMission) plus a mission-success predicate
 * evaluated on the per-algorithm optimized values (Tbl. 5's metric).
 */
struct BenchmarkApp
{
    core::Application app;

    /**
     * Mission predicate given optimized values, one per algorithm in
     * registration order (localization, planning, control): the
     * estimated trajectory must track ground truth, the planned
     * trajectory must be collision-free and reach the goal, and the
     * controller must drive the state to the reference. When @p why
     * is non-null, a failing check writes its name there.
     */
    std::function<bool(const std::vector<fg::Values> &, std::string *)>
        check;

    /** Convenience wrapper: success without diagnostics. */
    bool
    success(const std::vector<fg::Values> &solved) const
    {
        return check(solved, nullptr);
    }
};

/**
 * Generate one randomized mission of @p kind: every algorithm's graph
 * and initial values plus the mission predicate, with nothing
 * compiled (the application's frameWork() throws until compile()).
 * The same seed produces the same mission, so software and
 * accelerator paths can be compared on identical workloads. This is
 * what a served submit needs: the runtime::Engine compiles the one
 * graph it serves.
 */
BenchmarkApp buildMission(AppKind kind, unsigned seed);

/**
 * buildMission(@p kind, @p seed) followed by app.compile(): every
 * algorithm's optimized, reference and dense programs, for the paper
 * benches that simulate or cost whole applications.
 */
BenchmarkApp buildApp(AppKind kind, unsigned seed);

} // namespace orianna::apps
