// Reproduces Fig. 20: frame energy under a resource budget, comparing
// accelerators generated with the energy objective against hand-tuned
// (uniform replication) designs.

#include <cstdio>

#include "bench_common.hpp"

int
main()
{
    using namespace orianna;

    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::Quadrotor, orianna::bench::kBenchSeed);
    const auto work = bench.app.frameWork();
    const auto intel = baselines::runOnCpu(
        baselines::intel(), bench.app.referenceFrameWork());

    std::printf("Fig. 20: energy reduction vs Intel under a DSP budget "
                "(Quadrotor)\n");
    orianna::bench::rule();
    std::printf("%8s %14s %14s %14s %14s\n", "DSP", "generated",
                "manual", "gen. uJ", "man. uJ");

    for (std::size_t dsp : {160u, 224u, 288u, 384u, 512u, 704u}) {
        hw::Resources budget = orianna::bench::zc706Budget();
        budget.dsp = dsp;
        auto gen = hwgen::generate(work, budget,
                                   hwgen::Objective::Energy, true);
        const auto manual_cfg = hwgen::manualDesign(budget, true);
        const auto manual =
            runtime::ExecutionContext(work).run(manual_cfg);
        std::printf("%8zu %13.2fx %13.2fx %14.2f %14.2f\n", dsp,
                    intel.energyJ / gen.result.totalEnergyJ(),
                    intel.energyJ / manual.totalEnergyJ(),
                    gen.result.totalEnergyJ() * 1e6,
                    manual.totalEnergyJ() * 1e6);
    }
    orianna::bench::rule();
    std::printf("paper: the generated design consumes less energy than "
                "every manual design point.\n");
    return 0;
}
