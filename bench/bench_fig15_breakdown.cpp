// Reproduces Fig. 15: per-algorithm (localization / planning /
// control) speedup of ORIANNA-OoO over ARM, across all applications.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int
main()
{
    using namespace orianna;

    std::printf("Fig. 15: per-algorithm speedup over ARM\n");
    orianna::bench::rule();
    std::printf("%-14s %14s %12s %12s\n", "Application", "Localization",
                "Planning", "Control");

    double geo[3] = {1, 1, 1};
    int count = 0;
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench =
            apps::buildApp(kind, orianna::bench::kBenchSeed);
        const auto work = bench.app.frameWork();
        const auto reference = bench.app.referenceFrameWork();

        // One accelerator generated for the whole application, then
        // each algorithm measured standalone on it (the paper's
        // shared-accelerator setting).
        auto gen = hwgen::generate(work, orianna::bench::zc706Budget(),
                                   hwgen::Objective::AvgLatency, true);

        double speedups[3] = {0, 0, 0};
        for (std::size_t a = 0; a < 3; ++a) {
            const hw::SimResult accel =
                runtime::ExecutionContext({work[a]}).run(gen.config);
            const auto arm = baselines::runOnCpu(
                baselines::arm(), {reference[a]});
            speedups[a] = arm.seconds / accel.seconds();
            geo[a] *= speedups[a];
        }
        ++count;
        std::printf("%-14s %14.1f %12.1f %12.1f\n",
                    apps::appName(kind), speedups[0], speedups[1],
                    speedups[2]);
    }
    for (double &g : geo)
        g = std::pow(g, 1.0 / count);
    orianna::bench::rule();
    std::printf("%-14s %14.1f %12.1f %12.1f\n", "geomean", geo[0],
                geo[1], geo[2]);
    std::printf("paper: localization 48.2x, planning 50.6x, control "
                "60.7x (control highest because its\n"
                "optimization variables have the highest dimensions, "
                "enabling the most parallel dispatch).\n");
    return 0;
}
