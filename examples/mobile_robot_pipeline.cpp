// End-to-end ORIANNA flow on a full robotic application (Sec. 3):
// build the MobileRobot application (localization + planning +
// control factor graphs), compile every algorithm to the ORIANNA ISA,
// generate an accelerator under a ZC706-scale resource budget, and
// run one mission on both the software reference path and the
// simulated accelerator.

#include <cstdio>

#include "apps/benchmark_apps.hpp"
#include "baselines/platform_models.hpp"
#include "hwgen/generator.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/trace_sink.hpp"

using namespace orianna;

int
main()
{
    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::MobileRobot, /*seed=*/42);
    core::Application &app = bench.app;

    std::printf("application %s: %zu algorithms\n", app.name().c_str(),
                app.size());
    for (std::size_t i = 0; i < app.size(); ++i) {
        const core::Algorithm &algo = app.algorithm(i);
        std::printf("  %-13s %4zu factors, %5zu instructions "
                    "(%zu dense), rate %.0f Hz\n",
                    algo.name.c_str(), algo.graph.size(),
                    algo.program.instructions.size(),
                    algo.denseProgram.instructions.size(), algo.rateHz);
    }

    // Generate the accelerator (Equ. 5) for the whole application.
    const hw::Resources budget{131000, 262000, 327, 540};
    auto gen = hwgen::generate(app.frameWork(), budget,
                               hwgen::Objective::AvgLatency, true);
    std::printf("\ngenerated accelerator (%zu greedy steps):\n",
                gen.trajectory.size());
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        std::printf("  %-10s x%u\n",
                    hw::unitName(static_cast<hw::UnitKind>(k)),
                    gen.config.units[k]);
    const hw::Resources used = gen.config.resources();
    std::printf("  resources: %zu LUT, %zu FF, %zu BRAM, %zu DSP\n",
                used.lut, used.ff, used.bram, used.dsp);
    std::printf("  one frame: %.1f us, %.2f uJ (dyn %.2f + mem %.2f + "
                "static %.2f)\n",
                gen.result.seconds() * 1e6,
                gen.result.totalEnergyJ() * 1e6,
                gen.result.dynamicEnergyJ * 1e6,
                gen.result.memoryEnergyJ * 1e6,
                gen.result.staticEnergyJ * 1e6);

    const auto intel =
        baselines::runOnCpu(baselines::intel(), app.frameWork());
    std::printf("  Intel frame: %.1f us -> speedup %.1fx\n",
                intel.seconds * 1e6,
                intel.seconds / gen.result.seconds());

    // Dump the schedule of one frame for chrome://tracing or
    // ui.perfetto.dev: the coarse-grained interleaving of the three
    // algorithms is directly visible on the unit lanes.
    hw::AcceleratorConfig traced = gen.config;
    traced.recordTrace = true;
    const hw::SimResult traced_frame =
        runtime::ExecutionContext(app.frameWork()).run(traced);
    runtime::TraceCollector trace;
    trace.addHwFrame(trace.openTrack(app.name()), /*anchor_us=*/0,
                     traced_frame.trace, traced.units);
    trace.write("mobile_robot_schedule.json");
    std::printf("  schedule trace: mobile_robot_schedule.json (%zu "
                "events)\n", traced_frame.trace.size());

    // Run the mission on both paths.
    const auto sw = app.solveSoftware();
    const auto accel = app.solveAccelerated(gen.config);
    std::string sw_why = "ok";
    std::string hw_why = "ok";
    const bool sw_ok = bench.check(sw, &sw_why);
    const bool hw_ok = bench.check(accel, &hw_why);
    std::printf("\nmission: software %s (%s), accelerator %s (%s)\n",
                sw_ok ? "SUCCESS" : "FAIL", sw_why.c_str(),
                hw_ok ? "SUCCESS" : "FAIL", hw_why.c_str());

    // Show the planned trajectory bending around the obstacle.
    std::printf("\nplanned waypoints (x, y):\n ");
    for (std::size_t k = 0; k < 16; ++k) {
        const mat::Vector &state = accel[1].vector(100 + k);
        std::printf(" (%.2f, %+.2f)", state[0], state[1]);
        if (k % 4 == 3)
            std::printf("\n ");
    }
    std::printf("\n");
    return sw_ok && hw_ok ? 0 : 1;
}
