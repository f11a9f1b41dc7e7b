// Rate-aware pipeline study (Sec. 6.2 / 6.3): the algorithms of one
// application run at very different frequencies (e.g. control at
// 100 Hz, planning at 5 Hz). One shared ORIANNA accelerator sustains
// all of them; under stress, out-of-order dispatch and the
// MaxLatency generation objective cut the long-tail frame latency.

#include <cstdio>

#include "bench_common.hpp"
#include "hw/frame_pipeline.hpp"

namespace {

using namespace orianna;

std::vector<hw::PeriodicStream>
streamsOf(core::Application &app, double rate_scale)
{
    std::vector<hw::PeriodicStream> streams;
    for (std::size_t i = 0; i < app.size(); ++i) {
        core::Algorithm &algo = app.algorithm(i);
        streams.push_back({&algo.program, algo.rateHz * rate_scale,
                           0.0002 * static_cast<double>(i)});
    }
    return streams;
}

void
report(const char *label, core::Application &app,
       const hw::PipelineResult &result)
{
    std::printf("%s (hot-unit utilization %.1f%%)\n", label,
                100.0 * result.utilization);
    for (std::size_t s = 0; s < result.streams.size(); ++s) {
        const auto &stats = result.streams[s];
        std::printf("  %-13s %4zu frames  mean %7.1f us  max %7.1f us"
                    "  misses %zu\n",
                    app.algorithm(s).name.c_str(), stats.frames,
                    stats.meanLatencyS * 1e6, stats.maxLatencyS * 1e6,
                    stats.deadlineMisses);
    }
}

} // namespace

int
main()
{
    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::Quadrotor, orianna::bench::kBenchSeed);
    core::Application &app = bench.app;

    std::printf("pipeline study: Quadrotor algorithms at their Sec. 6.3 "
                "rates\n");
    orianna::bench::rule();

    // Nominal rates on the smallest accelerator: trivially sustained.
    const auto nominal =
        hw::FramePipeline(streamsOf(app, 1.0),
                          hw::AcceleratorConfig::minimal(true))
            .run(0.25);
    report("nominal rates, minimal OoO accelerator", app, nominal);

    // 60x stress: the shared accelerator saturates; compare dispatch
    // modes and generation objectives on the tail.
    std::printf("\n60x rates (stress):\n");
    const auto streams = streamsOf(app, 60.0);

    const auto io =
        hw::FramePipeline(streams, hw::AcceleratorConfig::minimal(false))
            .run(0.02);
    report("  in-order minimal", app, io);
    const auto ooo =
        hw::FramePipeline(streams, hw::AcceleratorConfig::minimal(true))
            .run(0.02);
    report("  out-of-order minimal", app, ooo);

    auto tail_gen = hwgen::generate(app.frameWork(),
                                    orianna::bench::zc706Budget(),
                                    hwgen::Objective::MaxLatency, true);
    const auto tuned =
        hw::FramePipeline(streams, tail_gen.config).run(0.02);
    report("  out-of-order, MaxLatency-generated", app, tuned);

    orianna::bench::rule();
    double io_max = 0.0;
    double tuned_max = 0.0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        io_max = std::max(io_max, io.streams[s].maxLatencyS);
        tuned_max = std::max(tuned_max, tuned.streams[s].maxLatencyS);
    }
    std::printf("worst-case frame latency: in-order %.0f us -> "
                "generated OoO %.0f us (%.1fx better)\n",
                io_max * 1e6, tuned_max * 1e6, io_max / tuned_max);
    return 0;
}
