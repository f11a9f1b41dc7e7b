// Reproduces Fig. 17: size of the matrix operations executed by
// VANILLA-HLS (one whole-system dense decomposition) versus ORIANNA
// (many small per-variable eliminations), for the three algorithms of
// the MobileRobot application.

#include <cstdio>

#include "bench_common.hpp"
#include "fg/eliminate.hpp"
#include "fg/ordering.hpp"

int
main()
{
    using namespace orianna;

    std::printf("Fig. 17: matrix-operation size, VANILLA-HLS vs "
                "ORIANNA (MobileRobot)\n");
    orianna::bench::rule(86);
    std::printf("%-14s | %16s | %16s %16s | %8s\n", "Algorithm",
                "HLS (rows x cols)", "Orianna max", "mean elems",
                "reduction");

    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::MobileRobot, orianna::bench::kBenchSeed);
    for (std::size_t a = 0; a < bench.app.size(); ++a) {
        const core::Algorithm &algo = bench.app.algorithm(a);
        fg::LinearSystem system = algo.graph.linearize(algo.values);
        const auto ordering = fg::ordering::minDegree(algo.graph);

        fg::EliminationStats stats;
        (void)fg::solveLinearSystem(system, ordering, &stats);

        const std::size_t dense_rows = system.totalRows();
        const std::size_t dense_cols = system.totalCols();
        const double dense_elems =
            static_cast<double>(dense_rows * dense_cols);

        std::size_t max_rows = 0;
        std::size_t max_cols = 0;
        double mean_elems = 0.0;
        double max_elems = 0.0;
        for (const auto &op : stats.qrOps) {
            const double elems =
                static_cast<double>(op.rows * op.cols);
            if (elems > max_elems) {
                max_elems = elems;
                max_rows = op.rows;
                max_cols = op.cols;
            }
            mean_elems += elems;
        }
        mean_elems /= static_cast<double>(stats.qrOps.size());

        std::printf("%-14s | %7zu x %-7zu | %6zu x %-7zu %16.1f | "
                    "%7.1fx\n",
                    algo.name.c_str(), dense_rows, dense_cols, max_rows,
                    max_cols, mean_elems, dense_elems / mean_elems);
    }
    orianna::bench::rule(86);
    std::printf("paper: localization 147x90 dense vs 11.1x smaller "
                "average; planning max 41x12 (12.2x\n"
                "smaller); control 16.4x smaller.\n");
    return 0;
}
