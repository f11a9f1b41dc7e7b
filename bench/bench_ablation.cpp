// Ablations of the design choices called out in DESIGN.md:
//   (a) elimination ordering (natural vs minimum degree),
//   (b) out-of-order granularity (Sec. 6.3: none / fine-grained only /
//       fine + coarse across algorithms),
//   (c) sensitivity to replicating the bottleneck (QR) unit.

#include <cstdio>

#include "bench_common.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pass_manager.hpp"
#include "fg/ordering.hpp"

namespace {

using namespace orianna;

/** Recompile one algorithm with an explicit ordering. */
comp::Program
compileWithOrdering(const core::Algorithm &algo, std::vector<fg::Key> ord,
                    std::uint8_t tag)
{
    comp::CompileOptions options;
    options.ordering = std::move(ord);
    options.algorithmTag = tag;
    options.name = algo.name;
    return comp::compileGraph(algo.graph, algo.values, options);
}

} // namespace

int
main()
{
    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::Quadrotor, orianna::bench::kBenchSeed);
    core::Application &app = bench.app;
    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);

    // ---- (a) elimination ordering -------------------------------
    std::printf("(a) elimination ordering (Quadrotor, minimal OoO "
                "accelerator)\n");
    orianna::bench::rule();
    std::printf("%-14s %16s %16s\n", "Algorithm", "natural",
                "min-degree");
    for (std::size_t a = 0; a < app.size(); ++a) {
        const core::Algorithm &algo = app.algorithm(a);
        const comp::Program natural = compileWithOrdering(
            algo, fg::ordering::natural(algo.graph),
            static_cast<std::uint8_t>(a));
        const comp::Program mindeg = compileWithOrdering(
            algo, fg::ordering::minDegree(algo.graph),
            static_cast<std::uint8_t>(a));
        const auto sim_nat =
            runtime::ExecutionContext({{&natural, &algo.values}})
                .run(config);
        const auto sim_md =
            runtime::ExecutionContext({{&mindeg, &algo.values}})
                .run(config);
        std::printf("%-14s %12.1f us %12.1f us  (%.2fx)\n",
                    algo.name.c_str(), sim_nat.seconds() * 1e6,
                    sim_md.seconds() * 1e6,
                    sim_nat.seconds() / sim_md.seconds());
    }

    // ---- (b) out-of-order granularity ----------------------------
    std::printf("\n(b) dispatch granularity (whole application)\n");
    orianna::bench::rule();
    const auto work = app.frameWork();
    const auto in_order = runtime::ExecutionContext(work).run(
        hw::AcceleratorConfig::minimal(false));
    // Fine-grained only: each algorithm OoO, but algorithms serialized.
    double fine_only = 0.0;
    for (const auto &item : work)
        fine_only +=
            runtime::ExecutionContext({item}).run(config).seconds();
    const auto coarse = runtime::ExecutionContext(work).run(config);
    std::printf("  in-order:                 %8.1f us\n",
                in_order.seconds() * 1e6);
    std::printf("  fine-grained OoO only:    %8.1f us\n",
                fine_only * 1e6);
    std::printf("  fine + coarse OoO:        %8.1f us  "
                "(coarse overlap buys %.2fx)\n",
                coarse.seconds() * 1e6, fine_only / coarse.seconds());

    // ---- (c) replicating the bottleneck unit ----------------------
    std::printf("\n(c) QR-unit replication (whole application, OoO)\n");
    orianna::bench::rule();
    for (unsigned qr : {1u, 2u, 4u, 8u}) {
        hw::AcceleratorConfig scaled = config;
        scaled.count(hw::UnitKind::Qr) = qr;
        const auto sim = runtime::ExecutionContext(work).run(scaled);
        std::printf("  %u QR unit%s: %8.1f us\n", qr,
                    qr == 1 ? " " : "s", sim.seconds() * 1e6);
    }
    // ---- (d) post-codegen optimization passes ---------------------
    std::printf("\n(d) compiler cleanup passes (constant dedup + DCE)\n");
    orianna::bench::rule();
    const comp::PassManager cleanup =
        comp::PassManager::parse("dedup,dce");
    for (std::size_t a = 0; a < app.size(); ++a) {
        const core::Algorithm &algo = app.algorithm(a);
        comp::CompileOptions options;
        options.algorithmTag = static_cast<std::uint8_t>(a);
        options.ordering = fg::ordering::minDegree(algo.graph);
        const comp::Program raw =
            comp::compileGraph(algo.graph, algo.values, options);
        comp::Program opt = raw;
        const std::vector<comp::PassStats> stats = cleanup.run(opt);
        const comp::PassStats &dedup = stats[0];
        const comp::PassStats &dce = stats[1];
        const auto t_raw =
            runtime::ExecutionContext({{&raw, &algo.values}})
                .run(config)
                .seconds();
        const auto t_opt =
            runtime::ExecutionContext({{&opt, &algo.values}})
                .run(config)
                .seconds();
        std::printf("  %-13s %4zu -> %4zu instructions (%zu consts "
                    "merged, %zu dead), %5.1f -> %5.1f us\n",
                    algo.name.c_str(), dedup.before, dce.after,
                    dedup.rewrites, dce.rewrites, t_raw * 1e6,
                    t_opt * 1e6);
    }

    std::printf("\nthe Equ. 5 generator automates exactly this search "
                "under a resource bound.\n");
    return 0;
}
