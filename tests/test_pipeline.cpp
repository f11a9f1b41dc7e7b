// Tests for the rate-aware frame-pipeline simulator.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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

// The pipeline schedules through the issue loop every other figure
// uses: one uncontended frame takes exactly the cycles of an isolated
// frame of its program.
TEST(Pipeline, OneFrameLatencyEqualsIsolatedMakespan)
{
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildApp(kind, 23);
        for (std::size_t i = 0; i < bench.app.size(); ++i) {
            core::Algorithm &algo = bench.app.algorithm(i);
            for (const bool out_of_order : {true, false}) {
                SCOPED_TRACE(std::string(apps::appName(kind)) + "/" +
                             algo.name +
                             (out_of_order ? " OoO" : " in-order"));
                const AcceleratorConfig config =
                    AcceleratorConfig::minimal(out_of_order);
                const auto isolated =
                    runtime::ExecutionContext({{&algo.program, &algo.values}})
                        .run(config);
                // A 1 Hz stream over half a second releases one frame.
                const auto pipeline =
                    FramePipeline({{&algo.program, 1.0, 0.0}}, config)
                        .run(0.5);
                ASSERT_EQ(pipeline.streams[0].frames, 1u);
                EXPECT_EQ(pipeline.cycles, isolated.cycles);
                EXPECT_EQ(pipeline.streams[0].meanLatencyS,
                          isolated.seconds());
            }
        }
    }
}

// Utilization is the busiest unit's share of the cycles its instances
// had, the per-unit share MetricsRegistry::toJson derives: a kind with
// two units is busy for at most half of their cycles.
TEST(Pipeline, UtilizationIsTheBusiestUnitsShare)
{
    apps::BenchmarkApp bench = apps::buildApp(apps::AppKind::Quadrotor, 26);
    AcceleratorConfig config = AcceleratorConfig::minimal(true);
    for (unsigned &count : config.units)
        count *= 2;
    for (std::size_t i = 0; i < bench.app.size(); ++i) {
        core::Algorithm &algo = bench.app.algorithm(i);
        SCOPED_TRACE(algo.name);
        const auto isolated =
            runtime::ExecutionContext({{&algo.program, &algo.values}})
                .run(config);
        double share = 0.0;
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
            share = std::max(
                share, static_cast<double>(isolated.unitBusyCycles[k]) /
                           (static_cast<double>(isolated.cycles) *
                            static_cast<double>(config.units[k])));
        const auto pipeline =
            FramePipeline({{&algo.program, 1.0, 0.0}}, config).run(0.5);
        ASSERT_EQ(pipeline.streams[0].frames, 1u);
        EXPECT_GT(share, 0.0);
        EXPECT_EQ(pipeline.utilization, share);
    }
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
    // Non-finite rates and horizons would release frames forever, and
    // a negative offset would wrap the release cycle.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double rate : {nan, inf, -inf, -1.0})
        EXPECT_THROW(FramePipeline({{&loc.program, rate, 0.0}}, config),
                     std::invalid_argument)
            << rate;
    for (const double offset : {nan, inf, -1e-3})
        EXPECT_THROW(FramePipeline({{&loc.program, 10.0, offset}}, config),
                     std::invalid_argument)
            << offset;
    for (const double horizon : {nan, inf, 0.0})
        EXPECT_THROW(
            FramePipeline({{&loc.program, 10.0, 0.0}}, config).run(horizon),
            std::invalid_argument)
            << horizon;
    AcceleratorConfig broken = config;
    broken.count(hw::UnitKind::Qr) = 0;
    EXPECT_THROW(
        FramePipeline({{&loc.program, 10.0, 0.0}}, broken)
            .run(0.1),
                 std::invalid_argument);
}

} // namespace
