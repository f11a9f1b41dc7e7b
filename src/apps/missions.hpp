#pragma once

// The per-application mission builders behind apps::buildMission, one
// per translation unit: each generates one randomized Tbl. 4 mission
// (graphs, initial values, mission predicate) and compiles nothing.

#include "apps/benchmark_apps.hpp"

namespace orianna::apps {

BenchmarkApp mobileRobotMission(unsigned seed);
BenchmarkApp manipulatorMission(unsigned seed);
BenchmarkApp autoVehicleMission(unsigned seed);
BenchmarkApp quadrotorMission(unsigned seed);

} // namespace orianna::apps
