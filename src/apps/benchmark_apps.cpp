#include "apps/missions.hpp"

#include <stdexcept>

namespace orianna::apps {

const char *
appName(AppKind kind)
{
    switch (kind) {
      case AppKind::MobileRobot: return "MobileRobot";
      case AppKind::Manipulator: return "Manipulator";
      case AppKind::AutoVehicle: return "AutoVehicle";
      case AppKind::Quadrotor: return "Quadrotor";
    }
    return "?";
}

std::vector<AppKind>
allApps()
{
    return {AppKind::MobileRobot, AppKind::Manipulator,
            AppKind::AutoVehicle, AppKind::Quadrotor};
}

BenchmarkApp
buildMission(AppKind kind, unsigned seed)
{
    switch (kind) {
      case AppKind::MobileRobot: return mobileRobotMission(seed);
      case AppKind::Manipulator: return manipulatorMission(seed);
      case AppKind::AutoVehicle: return autoVehicleMission(seed);
      case AppKind::Quadrotor: return quadrotorMission(seed);
    }
    throw std::invalid_argument("buildMission: unknown application");
}

BenchmarkApp
buildApp(AppKind kind, unsigned seed)
{
    BenchmarkApp bench = buildMission(kind, seed);
    bench.app.compile();
    return bench;
}

} // namespace orianna::apps
