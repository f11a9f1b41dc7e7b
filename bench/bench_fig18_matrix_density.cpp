// Reproduces Fig. 18: density of the matrix operations executed by
// VANILLA-HLS versus ORIANNA, for the three algorithms of the
// MobileRobot application. Factor-graph elimination turns one huge
// sparse decomposition into many small, dense ones.

#include <cstdio>

#include "bench_common.hpp"
#include "fg/eliminate.hpp"
#include "fg/ordering.hpp"

int
main()
{
    using namespace orianna;

    std::printf("Fig. 18: matrix-operation density, VANILLA-HLS vs "
                "ORIANNA (MobileRobot)\n");
    orianna::bench::rule();
    std::printf("%-14s %14s %16s %12s\n", "Algorithm", "HLS density",
                "Orianna density", "improvement");

    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::MobileRobot, orianna::bench::kBenchSeed);
    for (std::size_t a = 0; a < bench.app.size(); ++a) {
        const core::Algorithm &algo = bench.app.algorithm(a);
        fg::LinearSystem system = algo.graph.linearize(algo.values);
        const auto ordering = fg::ordering::minDegree(algo.graph);

        fg::EliminationStats stats;
        (void)fg::solveLinearSystem(system, ordering, &stats);

        const double dense_density =
            system.toDense(ordering).density();
        double mean_density = 0.0;
        for (const auto &op : stats.qrOps)
            mean_density += op.density;
        mean_density /= static_cast<double>(stats.qrOps.size());

        std::printf("%-14s %13.1f%% %15.1f%% %11.1fx\n",
                    algo.name.c_str(), 100.0 * dense_density,
                    100.0 * mean_density,
                    mean_density / dense_density);
    }
    orianna::bench::rule();
    std::printf("paper: localization 5.3%% dense -> 58.5%% average; "
                "planning density improves 10.8x.\n");
    return 0;
}
