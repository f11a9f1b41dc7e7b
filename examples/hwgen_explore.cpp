// Design-space exploration with the constraint-based hardware
// generator (Sec. 6.2): sweep resource budgets and objectives for the
// Quadrotor application and print the Pareto-style trajectory of
// generated designs.

#include <cstdio>

#include "apps/benchmark_apps.hpp"
#include "hwgen/generator.hpp"

using namespace orianna;

namespace {

void
printConfig(const hw::AcceleratorConfig &config)
{
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        std::printf("%u%s", config.units[k],
                    k + 1 < hw::kUnitKindCount ? "/" : "");
}

} // namespace

int
main()
{
    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::Quadrotor, /*seed=*/3);
    const auto work = bench.app.frameWork();

    std::printf("unit kinds: matmul/transpose/qr/backsub/vector/"
                "special/buffer/dma\n\n");

    std::printf("latency objective, growing DSP budget:\n");
    std::printf("%8s %10s %10s %8s  %s\n", "DSP", "latency", "energy",
                "steps", "units");
    for (std::size_t dsp : {160u, 288u, 512u}) {
        hw::Resources budget{131000, 262000, 327, dsp};
        auto gen = hwgen::generate(work, budget,
                                   hwgen::Objective::AvgLatency);
        std::printf("%8zu %8.1fus %8.1fuJ %8zu  ", dsp,
                    gen.result.seconds() * 1e6,
                    gen.result.totalEnergyJ() * 1e6,
                    gen.trajectory.size());
        printConfig(gen.config);
        std::printf("\n");
    }

    std::printf("\nobjective comparison at 512 DSPs:\n");
    std::printf("%-12s %10s %10s  %s\n", "objective", "latency",
                "energy", "units");
    const hw::Resources budget{131000, 262000, 327, 512};
    for (auto objective : {hwgen::Objective::AvgLatency,
                           hwgen::Objective::MaxLatency,
                           hwgen::Objective::Energy}) {
        auto gen = hwgen::generate(work, budget, objective);
        const char *name =
            objective == hwgen::Objective::AvgLatency  ? "avg-latency"
            : objective == hwgen::Objective::MaxLatency ? "max-latency"
                                                        : "energy";
        std::printf("%-12s %8.1fus %8.1fuJ  ", name,
                    gen.result.seconds() * 1e6,
                    gen.result.totalEnergyJ() * 1e6);
        printConfig(gen.config);
        std::printf("\n");
    }

    std::printf("\ngreedy trajectory (avg-latency, 512 DSPs):\n");
    auto gen = hwgen::generate(work, budget,
                               hwgen::Objective::AvgLatency);
    for (std::size_t i = 0; i < gen.trajectory.size(); ++i) {
        const auto &point = gen.trajectory[i];
        std::printf("  step %2zu: %8.1f us, %4zu DSP  ", i,
                    point.result.seconds() * 1e6, point.resources.dsp);
        printConfig(point.config);
        std::printf("\n");
    }
    return 0;
}
