// Tests for the rate-aware frame-pipeline simulator.

#include <cmath>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "hw/frame_pipeline.hpp"
#include "runtime/execution_context.hpp"

namespace {

using namespace orianna;
using hw::AcceleratorConfig;
using hw::FramePipeline;
using hw::PeriodicStream;

std::vector<PeriodicStream>
streamsOf(core::Application &app, double scale = 1.0)
{
    std::vector<PeriodicStream> streams;
    for (std::size_t i = 0; i < app.size(); ++i) {
        core::Algorithm &algo = app.algorithm(i);
        streams.push_back({&algo.program, algo.rateHz * scale, 0.0});
    }
    return streams;
}

TEST(Pipeline, FrameCountsMatchRates)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Manipulator, 21);
    auto streams = streamsOf(bench.app);
    const auto result =
        FramePipeline(streams, AcceleratorConfig::minimal(true)).run(0.1);
    ASSERT_EQ(result.streams.size(), streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto expected = static_cast<std::size_t>(
            std::ceil(0.1 * streams[s].rateHz));
        EXPECT_EQ(result.streams[s].frames, expected)
            << "stream " << s;
    }
}

TEST(Pipeline, NominalRatesMeetDeadlines)
{
    // The Sec. 6.3 claim: one shared accelerator sustains all
    // algorithm rates of an application.
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildApp(kind, 22);
        auto streams = streamsOf(bench.app);
        const auto result =
            FramePipeline(streams, AcceleratorConfig::minimal(true))
                .run(0.1);
        for (std::size_t s = 0; s < result.streams.size(); ++s)
            EXPECT_EQ(result.streams[s].deadlineMisses, 0u)
                << apps::appName(kind) << " stream " << s;
    }
}

TEST(Pipeline, LatencyIsAtLeastIsolatedMakespan)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::MobileRobot, 23);
    core::Algorithm &loc = bench.app.algorithm(0);
    const AcceleratorConfig config = AcceleratorConfig::minimal(true);

    const auto isolated =
        runtime::ExecutionContext({{&loc.program, &loc.values}})
            .run(config);
    const auto pipeline =
        FramePipeline({{&loc.program, 20.0, 0.0}}, config)
            .run(0.2);
    EXPECT_GE(pipeline.streams[0].meanLatencyS,
              isolated.seconds() * 0.999);
}

TEST(Pipeline, StressIncreasesLatency)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Quadrotor, 24);
    auto nominal_streams = streamsOf(bench.app, 1.0);
    auto stressed_streams = streamsOf(bench.app, 100.0);
    const AcceleratorConfig config = AcceleratorConfig::minimal(true);

    const auto nominal =
        FramePipeline(nominal_streams, config).run(0.05);
    const auto stressed =
        FramePipeline(stressed_streams, config).run(0.02);
    // At 100x rates the accelerator does ~100x the work per second:
    // the hot unit's utilization rises by well over an order of
    // magnitude, and frames still make progress (the OoO scoreboard
    // absorbs the load below saturation).
    EXPECT_GT(stressed.utilization, 10.0 * nominal.utilization);
    std::size_t nominal_frames = 0;
    std::size_t stressed_frames = 0;
    for (std::size_t s = 0; s < nominal.streams.size(); ++s) {
        nominal_frames += nominal.streams[s].frames;
        stressed_frames += stressed.streams[s].frames;
    }
    EXPECT_GT(stressed_frames, 20 * nominal_frames);
}

TEST(Pipeline, OutOfOrderBeatsInOrderUnderContention)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Quadrotor, 25);
    auto streams = streamsOf(bench.app, 60.0);
    const auto io =
        FramePipeline(streams, AcceleratorConfig::minimal(false)).run(0.02);
    const auto ooo =
        FramePipeline(streams, AcceleratorConfig::minimal(true)).run(0.02);
    double io_mean = 0.0;
    double ooo_mean = 0.0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        io_mean += io.streams[s].meanLatencyS;
        ooo_mean += ooo.streams[s].meanLatencyS;
    }
    EXPECT_LT(ooo_mean, io_mean);
}

TEST(Pipeline, InvalidInputsRejected)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Manipulator, 26);
    core::Algorithm &loc = bench.app.algorithm(0);
    const AcceleratorConfig config = AcceleratorConfig::minimal(true);
    EXPECT_THROW(FramePipeline({}, config).run(0.1),
                 std::invalid_argument);
    EXPECT_THROW(
        FramePipeline({{&loc.program, 0.0, 0.0}}, config)
            .run(0.1),
                 std::invalid_argument);
    EXPECT_THROW(
        FramePipeline({{&loc.program, 10.0, 0.0}}, config)
            .run(-1.0),
                 std::invalid_argument);
    AcceleratorConfig broken = config;
    broken.count(hw::UnitKind::Qr) = 0;
    EXPECT_THROW(
        FramePipeline({{&loc.program, 10.0, 0.0}}, broken)
            .run(0.1),
                 std::invalid_argument);
}

} // namespace
