// Reproduces the Sec. 7.3 latency breakdown: in the drone (Quadrotor)
// application, the share of accelerator time spent in matrix
// decomposition, linear-equation construction, and back substitution.

#include <cstdio>

#include "bench_common.hpp"

int
main()
{
    using namespace orianna;

    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::Quadrotor, orianna::bench::kBenchSeed);
    const auto work = bench.app.frameWork();
    auto gen = hwgen::generate(work, orianna::bench::zc706Budget(),
                               hwgen::Objective::AvgLatency, true);

    const auto &phases = gen.result.phaseBusyCycles;
    const double total = static_cast<double>(phases[0] + phases[1] +
                                             phases[2]);

    std::printf("Sec. 7.3: Quadrotor latency breakdown (busy cycles per "
                "phase)\n");
    orianna::bench::rule();
    std::printf("  construction (A and b):  %8llu cycles  %5.1f%%  "
                "(paper 16.0%%)\n",
                static_cast<unsigned long long>(phases[0]),
                100.0 * phases[0] / total);
    std::printf("  matrix decomposition:    %8llu cycles  %5.1f%%  "
                "(paper 74.0%%)\n",
                static_cast<unsigned long long>(phases[1]),
                100.0 * phases[1] / total);
    std::printf("  back substitution:       %8llu cycles  %5.1f%%  "
                "(paper 10.0%%)\n",
                static_cast<unsigned long long>(phases[2]),
                100.0 * phases[2] / total);
    orianna::bench::rule();
    std::printf("decomposition dominates, as in the paper; see "
                "EXPERIMENTS.md for the share discussion.\n");

    std::printf("\nunit utilization (busy cycles / makespan %llu):\n",
                static_cast<unsigned long long>(gen.result.cycles));
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        const auto kind = static_cast<hw::UnitKind>(k);
        std::printf("  %-10s x%-2u %10llu busy\n", hw::unitName(kind),
                    gen.config.count(kind),
                    static_cast<unsigned long long>(
                        gen.result.unitBusyCycles[k]));
    }
    return 0;
}
