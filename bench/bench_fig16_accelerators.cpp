// Reproduces Fig. 16: ORIANNA versus the state-of-the-art accelerator
// baselines on the same unit templates.
//   (a) speedup over Intel  (b) energy reduction over Intel
//   (c) resource consumption (LUT / FF / BRAM / DSP).
// VANILLA-HLS runs the dense (no factor graph) program; STACK runs
// one dedicated generated accelerator per algorithm.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int
main()
{
    using namespace orianna;

    std::printf("Fig. 16a/b: speedup and energy reduction vs Intel\n");
    orianna::bench::rule(100);
    std::printf("%-14s | %9s %9s %9s %9s | %9s %9s %9s %9s\n",
                "Application", "HLSx", "STACKx", "IOx", "OoOx",
                "HLSe", "STACKe", "IOe", "OoOe");

    double geo_speed[4] = {1, 1, 1, 1};
    double geo_energy[4] = {1, 1, 1, 1};
    hw::Resources orianna_res{};
    hw::Resources stack_res{};
    hw::Resources hls_res{};
    int count = 0;

    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench =
            apps::buildApp(kind, orianna::bench::kBenchSeed);
        const auto work = bench.app.frameWork();
        const auto dense_work = bench.app.denseFrameWork();
        const auto intel = baselines::runOnCpu(
            baselines::intel(), bench.app.referenceFrameWork());

        // ORIANNA generated under the full board budget.
        auto gen = hwgen::generate(work, orianna::bench::zc706Budget(),
                                   hwgen::Objective::AvgLatency, true);
        hw::AcceleratorConfig io_cfg = gen.config;
        io_cfg.outOfOrder = false;
        const auto io = runtime::ExecutionContext(work).run(io_cfg);

        // VANILLA-HLS: same templates and budget, dense program. Its
        // buffers must hold the whole [A|b], so it is generated for
        // the dense workload.
        auto hls = hwgen::generate(dense_work,
                                   orianna::bench::zc706Budget(),
                                   hwgen::Objective::AvgLatency, true);

        // STACK: three dedicated accelerators, each under a third of
        // the board (they must share the die area in silicon, but the
        // paper stacks full designs; we give each the same budget the
        // single ORIANNA accelerator gets).
        const auto stack =
            baselines::runStack(work, orianna::bench::zc706Budget());

        const double speed[4] = {
            intel.seconds / hls.result.seconds(),
            intel.seconds / stack.frameSeconds,
            intel.seconds / io.seconds(),
            intel.seconds / gen.result.seconds(),
        };
        const double energy[4] = {
            intel.energyJ / hls.result.totalEnergyJ(),
            intel.energyJ / stack.frameEnergyJ,
            intel.energyJ / io.totalEnergyJ(),
            intel.energyJ / gen.result.totalEnergyJ(),
        };
        std::printf("%-14s | %9.2f %9.2f %9.2f %9.2f | %9.2f %9.2f "
                    "%9.2f %9.2f\n",
                    apps::appName(kind), speed[0], speed[1], speed[2],
                    speed[3], energy[0], energy[1], energy[2],
                    energy[3]);
        for (int i = 0; i < 4; ++i) {
            geo_speed[i] *= speed[i];
            geo_energy[i] *= energy[i];
        }
        ++count;
        orianna_res = orianna_res + gen.config.resources();
        stack_res = stack_res + stack.totalResources;
        hls_res = hls_res + hls.config.resources();
    }
    for (int i = 0; i < 4; ++i) {
        geo_speed[i] = std::pow(geo_speed[i], 1.0 / count);
        geo_energy[i] = std::pow(geo_energy[i], 1.0 / count);
    }
    orianna::bench::rule(100);
    std::printf("%-14s | %9.2f %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f "
                "%9.2f\n",
                "geomean", geo_speed[0], geo_speed[1], geo_speed[2],
                geo_speed[3], geo_energy[0], geo_energy[1],
                geo_energy[2], geo_energy[3]);
    std::printf("paper: OoO 25.6x faster / 27.5x less energy than "
                "VANILLA-HLS; ~STACK speed (1%% slower)\n"
                "with 2.9x less energy.\n");
    std::printf("measured: OoO %.1fx faster / %.1fx less energy than "
                "HLS; %.2fx STACK speed, %.1fx less energy.\n\n",
                geo_speed[3] / geo_speed[0],
                geo_energy[3] / geo_energy[0],
                geo_speed[3] / geo_speed[1],
                geo_energy[3] / geo_energy[1]);

    std::printf("Fig. 16c: resources (summed over the four apps)\n");
    orianna::bench::rule();
    std::printf("%-14s %10s %10s %10s %10s\n", "", "LUT", "FF", "BRAM",
                "DSP");
    auto print_res = [](const char *name, const hw::Resources &r) {
        std::printf("%-14s %10zu %10zu %10zu %10zu\n", name, r.lut,
                    r.ff, r.bram, r.dsp);
    };
    print_res("Orianna-OoO", orianna_res);
    print_res("VANILLA-HLS", hls_res);
    print_res("STACK", stack_res);
    std::printf("STACK/Orianna: %.1fx LUT, %.1fx FF, %.1fx BRAM, %.1fx "
                "DSP (paper: 3.4/3.0/3.2/2.0)\n",
                double(stack_res.lut) / orianna_res.lut,
                double(stack_res.ff) / orianna_res.ff,
                double(stack_res.bram) / orianna_res.bram,
                double(stack_res.dsp) / orianna_res.dsp);
    return 0;
}
