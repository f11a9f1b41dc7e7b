// Replay vs live: the differential suite of the schedule/numerics
// split (DESIGN.md §5). A frame that replays a FramePlan must equal a
// live frame — one forced through the issue loop by passing a
// Scheduler explicitly — in every SimResult field, bit for bit in
// deltas and trace events, in the hw.* metric deltas and in kernel
// call counts. Fault-armed frames always run live, and plans are
// shared through the Engine.

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "fg/io_g2o.hpp"
#include "hwgen/generator.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"
#include "test_json.hpp"

namespace {

using namespace orianna;
namespace kernels = mat::kernels;

using KernelCalls = std::array<std::uint64_t, kernels::kKernelOpCount>;

/** Every hw.* counter but the replay counter, from the registry. */
std::map<std::string, double>
hwCounters()
{
    const auto json = test::parseJson(runtime::Engine::metricsJson());
    std::map<std::string, double> out;
    for (const auto &[name, value] : json->at("counters").asObject())
        if (name.rfind("hw.", 0) == 0 && name != "hw.frames_replayed")
            out[name] = value->asNumber();
    return out;
}

std::uint64_t
counter(const std::string &name)
{
    return runtime::MetricsRegistry::global().counter(name).value();
}

KernelCalls
kernelCalls()
{
    KernelCalls calls{};
    for (std::size_t op = 0; op < calls.size(); ++op)
        calls[op] =
            kernels::kernelCallCount(static_cast<kernels::KernelOp>(op));
    return calls;
}

/** One frame plus what it moved in the process-wide counters. */
struct Observed
{
    hw::SimResult frame;
    std::map<std::string, double> hwDelta;
    KernelCalls kernelDelta{};
    std::uint64_t replayed = 0; //!< hw.frames_replayed delta.
};

template <typename Run>
Observed
observe(Run &&run)
{
    const auto hw_before = hwCounters();
    const KernelCalls calls_before = kernelCalls();
    const std::uint64_t replayed_before = counter("hw.frames_replayed");
    Observed out;
    out.frame = run();
    for (const auto &[name, value] : hwCounters()) {
        const auto it = hw_before.find(name);
        out.hwDelta[name] = value - (it != hw_before.end() ? it->second
                                                           : 0.0);
    }
    const KernelCalls calls_after = kernelCalls();
    for (std::size_t op = 0; op < calls_after.size(); ++op)
        out.kernelDelta[op] = calls_after[op] - calls_before[op];
    out.replayed = counter("hw.frames_replayed") - replayed_before;
    return out;
}

std::uint64_t
bits(double x)
{
    std::uint64_t out;
    std::memcpy(&out, &x, sizeof out);
    return out;
}

void
expectSameFrame(const hw::SimResult &got, const hw::SimResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(bits(got.dynamicEnergyJ), bits(want.dynamicEnergyJ));
    EXPECT_EQ(bits(got.memoryEnergyJ), bits(want.memoryEnergyJ));
    EXPECT_EQ(bits(got.staticEnergyJ), bits(want.staticEnergyJ));
    EXPECT_EQ(got.unitBusyCycles, want.unitBusyCycles);
    EXPECT_EQ(got.phaseBusyCycles, want.phaseBusyCycles);
    EXPECT_EQ(got.algorithmFinishCycle, want.algorithmFinishCycle);
    EXPECT_EQ(got.faultsInjected, want.faultsInjected);
    EXPECT_EQ(got.faultsByKind, want.faultsByKind);

    ASSERT_EQ(got.deltas.size(), want.deltas.size());
    for (std::size_t w = 0; w < want.deltas.size(); ++w) {
        ASSERT_EQ(got.deltas[w].size(), want.deltas[w].size());
        for (const auto &[key, delta] : want.deltas[w]) {
            const mat::Vector &other = got.deltas[w].at(key);
            ASSERT_EQ(other.size(), delta.size());
            for (std::size_t i = 0; i < delta.size(); ++i)
                EXPECT_EQ(bits(other[i]), bits(delta[i]))
                    << "item " << w << " key " << key << " [" << i
                    << "]";
        }
    }

    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (std::size_t e = 0; e < want.trace.size(); ++e) {
        const hw::TraceEvent &a = got.trace[e];
        const hw::TraceEvent &b = want.trace[e];
        EXPECT_EQ(a.name, b.name) << "event " << e;
        EXPECT_EQ(a.unit, b.unit) << "event " << e;
        EXPECT_EQ(a.instance, b.instance) << "event " << e;
        EXPECT_EQ(a.startCycle, b.startCycle) << "event " << e;
        EXPECT_EQ(a.endCycle, b.endCycle) << "event " << e;
        EXPECT_EQ(a.algorithm, b.algorithm) << "event " << e;
        EXPECT_EQ(a.phase, b.phase) << "event " << e;
    }
}

/**
 * Run @p frames Gauss-Newton frames of @p work twice — live through an
 * explicit scheduler, and replayed from a plan scheduled up front —
 * retracting each run's own deltas, and check every frame matches.
 */
void
expectReplayMatchesLive(const std::vector<hw::WorkItem> &work,
                        hw::AcceleratorConfig config,
                        std::size_t frames = 3)
{
    config.recordTrace = true;
    std::vector<const comp::Program *> programs;
    std::vector<fg::Values> live_values;
    for (const hw::WorkItem &item : work) {
        programs.push_back(item.program);
        live_values.push_back(*item.values);
    }
    std::vector<fg::Values> replay_values = live_values;

    runtime::ExecutionContext live(programs);
    runtime::ExecutionContext replay(
        programs, runtime::ExecutionContext::schedule(programs, config));
    const auto scheduler = runtime::makeScheduler(config.outOfOrder);
    for (std::size_t f = 0; f < frames; ++f) {
        SCOPED_TRACE("frame " + std::to_string(f));
        for (std::size_t w = 0; w < work.size(); ++w) {
            live.bindValues(w, &live_values[w]);
            replay.bindValues(w, &replay_values[w]);
        }
        const Observed want =
            observe([&] { return live.run(config, *scheduler); });
        const Observed got = observe([&] { return replay.run(config); });
        expectSameFrame(got.frame, want.frame);
        EXPECT_EQ(got.hwDelta, want.hwDelta);
        EXPECT_EQ(got.kernelDelta, want.kernelDelta);
        EXPECT_EQ(want.replayed, 0u);
        EXPECT_EQ(got.replayed, 1u);
        for (std::size_t w = 0; w < work.size(); ++w) {
            live_values[w].retractAll(want.frame.deltas[w]);
            replay_values[w].retractAll(got.frame.deltas[w]);
        }
    }
    EXPECT_EQ(live.plan(), nullptr) << "caller-scheduled frames keep "
                                       "no plan";
}

/** The committed 120-pose garage graph. */
apps::PoseGraphScenario
garageScenario()
{
    return apps::scenarioFromG2o(
        fg::loadG2o(ORIANNA_G2O_DIR "/garage_lite.g2o"), "garage_lite");
}

runtime::EngineOptions
precision(comp::Precision p)
{
    runtime::EngineOptions options;
    options.precision = p;
    return options;
}

TEST(Replay, GarageOutOfOrderMatchesLive)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           precision(comp::Precision::Fp64));
    const auto program =
        engine.program(scenario.graph(), scenario.initial);
    expectReplayMatchesLive({{program.get(), &scenario.initial}},
                            hw::AcceleratorConfig::minimal(true));
}

TEST(Replay, GarageInOrderMatchesLive)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(false),
                           precision(comp::Precision::Fp64));
    const auto program =
        engine.program(scenario.graph(), scenario.initial);
    expectReplayMatchesLive({{program.get(), &scenario.initial}},
                            hw::AcceleratorConfig::minimal(false));
}

TEST(Replay, MobileRobotFig13FrameMatchesLive)
{
    // Three programs (one per algorithm) on the generated fig.13
    // accelerator: replays interleave work items like live frames.
    apps::BenchmarkApp bench =
        apps::buildMission(apps::AppKind::MobileRobot, /*seed=*/5);
    bench.app.compile();
    const std::vector<hw::WorkItem> work = bench.app.frameWork();
    ASSERT_EQ(work.size(), 3u);
    const hw::AcceleratorConfig config =
        hwgen::generate(work, {131000, 262000, 327, 540},
                        hwgen::Objective::AvgLatency, true)
            .config;
    expectReplayMatchesLive(work, config);
}

TEST(Replay, Fp32ProgramMatchesLive)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           precision(comp::Precision::Fp32));
    const auto program =
        engine.program(scenario.graph(), scenario.initial);
    ASSERT_EQ(program->precision, comp::Precision::Fp32);
    expectReplayMatchesLive({{program.get(), &scenario.initial}},
                            hw::AcceleratorConfig::minimal(true));
}

// A fault-armed frame runs the live issue loop and rolls its faults
// per (frame, attempt); it leaves the plan alone, and the next clean
// frame replays it.
TEST(Replay, FaultArmedFramesRunLiveAndTheNextCleanFrameReplays)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           precision(comp::Precision::Fp64));
    const auto program =
        engine.program(scenario.graph(), scenario.initial);
    hw::AcceleratorConfig config = hw::AcceleratorConfig::minimal(true);
    config.recordTrace = true;

    runtime::ExecutionContext context(
        {{program.get(), &scenario.initial}});
    const Observed first = observe([&] { return context.run(config); });
    const auto plan = context.plan();
    ASSERT_NE(plan, nullptr);

    const hw::FaultInjector injector(
        hw::FaultPlan::parse("5@spike:all:0.05:300,corrupt:qr:0.01"));
    context.armFaults(&injector, 0, 0);
    const Observed attempt0 = observe([&] { return context.run(config); });
    context.armFaults(&injector, 0, 1);
    const Observed attempt1 = observe([&] { return context.run(config); });
    context.armFaults(&injector, 0, 0);
    const hw::SimResult again = context.run(config);
    EXPECT_EQ(context.plan(), plan) << "fault-armed frames keep the plan";

    EXPECT_GT(attempt0.frame.faultsInjected, 0u);
    EXPECT_GT(attempt0.frame.cycles, first.frame.cycles);
    // Each attempt re-rolls; re-arming the same coordinates repeats.
    EXPECT_NE(attempt0.frame.cycles, attempt1.frame.cycles);
    EXPECT_NE(attempt0.frame.faultsByKind, attempt1.frame.faultsByKind);
    expectSameFrame(again, attempt0.frame);

    context.armFaults(nullptr, 0, 0);
    const Observed clean = observe([&] { return context.run(config); });
    expectSameFrame(clean.frame, first.frame);
    EXPECT_EQ(first.replayed, 0u);
    EXPECT_EQ(attempt0.replayed, 0u);
    EXPECT_EQ(attempt1.replayed, 0u);
    EXPECT_EQ(clean.replayed, 1u);
}

// The Engine schedules a program once, when the first session opens
// on it; that session's frames and every later session's replay it.
TEST(Replay, GarageSessionReplaysEveryFrameWithOnePlanBuiltAtOpen)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    const fg::FactorGraph graph = scenario.graph();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           precision(comp::Precision::Fp64));
    engine.program(graph, scenario.initial);
    EXPECT_EQ(engine.stats().plansBuilt, 0u) << "compiling plans nothing";

    const std::uint64_t built = counter("engine.plans_built");
    runtime::Session session = engine.session(graph, scenario.initial);
    EXPECT_EQ(counter("engine.plans_built") - built, 1u);

    const std::uint64_t frames = counter("hw.frames");
    const std::uint64_t replayed = counter("hw.frames_replayed");
    session.iterate(5);
    EXPECT_EQ(counter("hw.frames") - frames, 5u);
    EXPECT_EQ(counter("hw.frames_replayed") - replayed, 5u);

    runtime::Session later = engine.session(graph, scenario.initial);
    later.step();
    EXPECT_EQ(counter("hw.frames_replayed") - replayed, 6u);
    EXPECT_EQ(counter("engine.plans_built") - built, 1u);
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
}

TEST(Replay, FaultArmedSessionReplaysNoFrame)
{
    const apps::PoseGraphScenario scenario = garageScenario();
    const fg::FactorGraph graph = scenario.graph();
    // Latency spikes only and no deadline: every frame is healthy, so
    // the fallback rung (which would replay) never runs.
    runtime::EngineOptions options = precision(comp::Precision::Fp64);
    options.faultPlan = hw::FaultPlan::parse("3@spike:all:0.01:100");
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session session = engine.session(graph, scenario.initial);

    const std::uint64_t frames = counter("hw.frames");
    const std::uint64_t replayed = counter("hw.frames_replayed");
    session.iterate(5);
    EXPECT_EQ(session.fallbacks(), 0u);
    EXPECT_EQ(counter("hw.frames") - frames, 5u);
    EXPECT_EQ(counter("hw.frames_replayed") - replayed, 0u);
    EXPECT_GT(session.totals().faultsInjected, 0u);
}

} // namespace
