// Tests for the observability layer (DESIGN.md §6): the metrics
// instruments, the registry JSON snapshot, the unified trace
// collector, and the cross-sink consistency invariant — the same
// integer microsecond durations feed the stage histograms and the
// trace spans, so their totals must agree exactly.

#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "fg/factors.hpp"
#include "hw/accelerator.hpp"
#include "matrix/mac_counter.hpp"
#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_sink.hpp"
#include "test_fg_common.hpp"
#include "test_json.hpp"

namespace {

using namespace orianna;
using orianna::test::parseJson;
using orianna::test::parseJsonFile;
using orianna::test::randomPose;
using orianna::test::randomVector;
using runtime::Counter;
using runtime::Gauge;
using runtime::Histogram;
using runtime::MetricsRegistry;
using runtime::TraceCollector;

/**
 * Restore the process-wide gates the tests toggle: metrics recording
 * defaults to on, trace collection defaults to off.
 */
struct GateGuard
{
    ~GateGuard()
    {
        MetricsRegistry::setEnabled(true);
        TraceCollector::setEnabled(false);
        TraceCollector::global().clear();
    }
};

/** The runtime_server odometry chain, sized down for unit tests. */
fg::FactorGraph
chainGraph(const std::vector<lie::Pose> &truth)
{
    fg::FactorGraph graph;
    graph.emplace<fg::PriorFactor>(1, truth[0],
                                   fg::isotropicSigmas(6, 0.01));
    for (std::size_t i = 1; i < truth.size(); ++i)
        graph.emplace<fg::IMUFactor>(
            i, i + 1, truth[i].ominus(truth[i - 1]),
            fg::isotropicSigmas(6, 0.05));
    return graph;
}

std::vector<lie::Pose>
chainTruth()
{
    std::vector<lie::Pose> truth;
    for (int i = 0; i < 4; ++i)
        truth.emplace_back(
            mat::Vector{0.1 * i, 0.02 * i, 0.05 * i},
            mat::Vector{0.4 * i, 0.04 * i, 0.0});
    return truth;
}

fg::Values
chainInitial(const std::vector<lie::Pose> &truth, double perturb)
{
    fg::Values initial;
    for (std::size_t i = 0; i < truth.size(); ++i)
        initial.insert(i + 1,
                       truth[i].retract(mat::Vector{
                           perturb, -perturb, perturb, -perturb,
                           perturb, -perturb}));
    return initial;
}

// --- Instruments ----------------------------------------------------

TEST(MetricsCounter, ConcurrentAddsSumExactly)
{
    Counter counter;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                counter.add();
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsGauge, SetAndReset)
{
    Gauge gauge;
    gauge.set(7);
    EXPECT_EQ(gauge.value(), 7);
    gauge.set(-3);
    EXPECT_EQ(gauge.value(), -3);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
}

TEST(MetricsHistogram, PowerOfTwoBucketBounds)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 0u);
    EXPECT_EQ(Histogram::bucketOf(2), 1u);
    EXPECT_EQ(Histogram::bucketOf(3), 1u);
    EXPECT_EQ(Histogram::bucketOf(4), 2u);
    EXPECT_EQ(Histogram::bucketOf(1023), 9u);
    EXPECT_EQ(Histogram::bucketOf(1024), 10u);
    EXPECT_EQ(Histogram::bucketLowerUs(0), 0u);
    EXPECT_EQ(Histogram::bucketLowerUs(10), 1024u);
}

TEST(MetricsHistogram, OverflowBucketCountsExtremeLatencies)
{
    Histogram histogram;
    const std::uint64_t limit = std::uint64_t{1} << Histogram::kBuckets;
    histogram.observe(limit - 1); // Largest finite-bucket sample.
    histogram.observe(limit);     // First overflow sample.
    histogram.observe(limit * 8); // Way past the range.
    histogram.observe(UINT64_MAX / 2);
    EXPECT_EQ(histogram.count(), 4u);
    EXPECT_EQ(histogram.overflowCount(), 3u);
    EXPECT_EQ(histogram.bucketCount(Histogram::kBuckets - 1), 1u);
    // Exact integer sum even with extreme samples.
    EXPECT_EQ(histogram.sumUs(),
              (limit - 1) + limit + limit * 8 + UINT64_MAX / 2);
    // The overflow bucket clamps percentile estimates to its lower
    // bound rather than inventing a value beyond the range.
    EXPECT_EQ(histogram.percentile(0.99),
              static_cast<double>(limit));
}

TEST(MetricsHistogram, PercentileInterpolatesWithinBucket)
{
    Histogram histogram;
    for (int i = 0; i < 100; ++i)
        histogram.observe(10); // All in bucket [8, 16).
    const double p50 = histogram.percentile(0.50);
    EXPECT_GE(p50, 8.0);
    EXPECT_LE(p50, 16.0);
    EXPECT_EQ(histogram.percentile(0.0), 8.0);
}

// --- Registry snapshots ---------------------------------------------

TEST(MetricsRegistryJson, ZeroedRegistryIsValidJson)
{
    GateGuard guard;
    auto &registry = MetricsRegistry::global();
    registry.reset();

    // Engine::metricsJson before any session: every registered
    // instrument reads zero, derived rates are null, and the document
    // still parses.
    const auto json = parseJson(runtime::Engine::metricsJson());
    EXPECT_EQ(json->at("enabled").kind,
              orianna::test::JsonValue::Kind::Bool);
    for (const auto &[name, value] : json->at("counters").asObject())
        EXPECT_EQ(value->asNumber(), 0.0) << name;
    EXPECT_TRUE(json->at("derived").at("cache_hit_rate").isNull());
    EXPECT_TRUE(
        json->at("derived").at("utilization").asObject().empty());
}

TEST(MetricsRegistryJson, ServedSessionsProduceDerivedRates)
{
    GateGuard guard;
    MetricsRegistry::setEnabled(true);
    auto &registry = MetricsRegistry::global();
    registry.reset();

    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    // Pinned fp64: exact compile counters — an fp32 engine would also
    // compile each session's reference fallback.
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    for (int client = 0; client < 3; ++client) {
        runtime::Session session = engine.session(
            graph, chainInitial(truth, 0.01 * (client + 1)));
        session.iterate(2);
    }

    const auto json = parseJson(runtime::Engine::metricsJson());
    EXPECT_EQ(orianna::test::counterValue(*json, "engine.compiles"),
              1.0);
    EXPECT_EQ(orianna::test::counterValue(*json, "engine.cache_hits"),
              2.0);
    // The serializer prints 6 significant digits.
    EXPECT_NEAR(json->at("derived").at("cache_hit_rate").asNumber(),
                2.0 / 3.0, 1e-6);
    // Six frames served; the stage histograms carry all of them.
    EXPECT_EQ(orianna::test::counterValue(*json, "frame.count"), 6.0);
    EXPECT_EQ(json->at("histograms")
                  .at("frame.simulate_us")
                  .at("count")
                  .asNumber(),
              6.0);
    // Every simulated unit kind reports a utilization share in (0,1].
    const auto &utilization =
        json->at("derived").at("utilization").asObject();
    EXPECT_FALSE(utilization.empty());
    for (const auto &[unit, share] : utilization) {
        EXPECT_GT(share->asNumber(), 0.0) << unit;
        EXPECT_LE(share->asNumber(), 1.0) << unit;
    }
}

TEST(MetricsRegistryJson, DisabledRecordingLeavesRegistryUntouched)
{
    GateGuard guard;
    auto &registry = MetricsRegistry::global();
    registry.reset();
    MetricsRegistry::setEnabled(false);

    const auto truth = chainTruth();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    runtime::Session session =
        engine.session(chainGraph(truth), chainInitial(truth, 0.02));
    session.iterate(2);

    EXPECT_EQ(registry.counter("frame.count").value(), 0u);
    EXPECT_EQ(registry.counter("engine.compiles").value(), 0u);
    EXPECT_EQ(registry.histogram("frame.simulate_us").count(), 0u);
    EXPECT_EQ(registry.gauge("engine.cached_bytes").value(), 0);
    EXPECT_GT(engine.stats().cachedBytes, 0u); // Always maintained.

    // Recording is observation only: a metrics-on session lands on the
    // same values and cycles.
    MetricsRegistry::setEnabled(true);
    runtime::Session recorded =
        engine.session(chainGraph(truth), chainInitial(truth, 0.02));
    recorded.iterate(2);
    EXPECT_EQ(recorded.totals().cycles, session.totals().cycles);
    for (fg::Key key : session.values().keys())
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(recorded.values().pose(key).phi()[c],
                      session.values().pose(key).phi()[c])
                << "pose " << key;
            EXPECT_EQ(recorded.values().pose(key).t()[c],
                      session.values().pose(key).t()[c])
                << "pose " << key;
        }
}

TEST(MetricsRegistryJson, CachedBytesGaugeFollowsTheEngine)
{
    GateGuard guard;
    MetricsRegistry::setEnabled(true);
    auto &registry = MetricsRegistry::global();
    registry.reset();

    const auto truth = chainTruth();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    const auto program =
        engine.program(chainGraph(truth), chainInitial(truth, 0.02));
    EXPECT_EQ(engine.stats().cachedBytes, program->footprintBytes());
    EXPECT_EQ(registry.gauge("engine.cached_bytes").value(),
              static_cast<std::int64_t>(engine.stats().cachedBytes));
}

// --- Unified trace sink ---------------------------------------------

TEST(TraceSink, WriteThrowsOnUnwritablePath)
{
    TraceCollector collector;
    EXPECT_THROW(
        collector.write("/nonexistent-dir-orianna/trace.json"),
        std::runtime_error);
}

// One hardware frame written with no runtime spans (what
// mobile_robot_pipeline exports) is a well-formed Chrome trace: one
// "X" event per TraceEvent, each on a row named after its unit
// instance.
TEST(TraceSink, HardwareFrameWithoutSpansWritesUnitRows)
{
    const auto truth = chainTruth();
    const fg::Values initial = chainInitial(truth, 0.02);
    const comp::Program program =
        comp::compileGraph(chainGraph(truth), initial);
    hw::AcceleratorConfig config = hw::AcceleratorConfig::minimal(true);
    config.recordTrace = true;
    config.count(hw::UnitKind::MatMul) = 2;
    const hw::SimResult frame =
        runtime::ExecutionContext({{&program, &initial}}).run(config);
    ASSERT_FALSE(frame.trace.empty());

    TraceCollector collector;
    collector.addHwFrame(collector.openTrack("frame"), /*anchor_us=*/0,
                         frame.trace, config.units);
    const std::string path =
        ::testing::TempDir() + "orianna_hw_frame_trace.json";
    collector.write(path);
    const auto json = parseJsonFile(path);
    std::remove(path.c_str());

    std::map<std::pair<double, double>, std::string> rows;
    std::vector<const test::JsonValue *> complete;
    for (const auto &event : json->asArray()) {
        if (event->at("ph").asString() == "X")
            complete.push_back(event.get());
        else if (event->at("name").asString() == "thread_name")
            rows[{event->at("pid").asNumber(),
                  event->at("tid").asNumber()}] =
                event->at("args").at("name").asString();
    }
    ASSERT_EQ(complete.size(), frame.trace.size());
    for (std::size_t i = 0; i < complete.size(); ++i) {
        const hw::TraceEvent &want = frame.trace[i];
        const auto row = rows.find({complete[i]->at("pid").asNumber(),
                                    complete[i]->at("tid").asNumber()});
        ASSERT_NE(row, rows.end()) << "event " << i;
        EXPECT_EQ(row->second, std::string(hw::unitName(want.unit)) +
                                   "[" + std::to_string(want.instance) +
                                   "]");
        EXPECT_EQ(complete[i]->at("name").asString(), want.name);
    }
}

TEST(TraceSink, SpanSumsMatchHistogramSumsExactly)
{
    GateGuard guard;
    MetricsRegistry::setEnabled(true);
    TraceCollector::setEnabled(true);
    auto &registry = MetricsRegistry::global();
    auto &collector = TraceCollector::global();
    registry.reset();
    collector.clear();

    const auto truth = chainTruth();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    constexpr std::size_t kFrames = 3;
    {
        runtime::Session session = engine.session(
            chainGraph(truth), chainInitial(truth, 0.02));
        session.iterate(kFrames);
    } // Destructor reports the enclosing "session" span.

    std::map<std::string, std::uint64_t> span_totals;
    std::map<std::string, std::uint64_t> span_counts;
    for (const runtime::RuntimeSpan &span : collector.spans()) {
        const std::string key = span.category == "frame"
                                    ? std::string("frame")
                                    : span.name;
        span_totals[key] += span.durUs;
        ++span_counts[key];
    }

    // The invariant the shared integer durations buy: per stage, the
    // histogram total equals the sum of that stage's span durations.
    EXPECT_EQ(span_counts["frame"], kFrames);
    EXPECT_EQ(span_counts["session"], 1u);
    EXPECT_EQ(registry.histogram("frame.total_us").count(), kFrames);
    EXPECT_EQ(span_totals["frame"],
              registry.histogram("frame.total_us").sumUs());
    EXPECT_EQ(span_totals["simulate"],
              registry.histogram("frame.simulate_us").sumUs());
    EXPECT_EQ(span_totals["update"],
              registry.histogram("frame.update_us").sumUs());
    // Every frame attached its hardware schedule under the same track.
    EXPECT_GT(collector.hwEventCount(), 0u);
    EXPECT_EQ(registry.counter("hw.frames").value(), kFrames);
}

TEST(TraceSink, StageSpansNestInsideTheirFrame)
{
    GateGuard guard;
    TraceCollector::setEnabled(true);
    auto &collector = TraceCollector::global();
    collector.clear();

    const auto truth = chainTruth();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    runtime::Session session =
        engine.session(chainGraph(truth), chainInitial(truth, 0.02));
    session.step();

    std::vector<runtime::RuntimeSpan> frames;
    std::vector<runtime::RuntimeSpan> stages;
    for (const runtime::RuntimeSpan &span : collector.spans()) {
        if (span.category == "frame")
            frames.push_back(span);
        else if (span.category == "stage")
            stages.push_back(span);
    }
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(stages.size(), 2u);
    for (const runtime::RuntimeSpan &stage : stages) {
        EXPECT_GE(stage.startUs, frames[0].startUs);
        EXPECT_LE(stage.startUs + stage.durUs,
                  frames[0].startUs + frames[0].durUs);
        EXPECT_EQ(stage.track, frames[0].track);
    }
}

// --- Randomized scheduling property ---------------------------------

/** A random small pose-chain program, deterministic per seed. */
struct FuzzCase
{
    comp::Program program;
    fg::Values values;
};

FuzzCase
makeFuzzCase(unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> length(3, 6);
    const std::size_t n = length(rng);

    FuzzCase fuzz;
    fg::FactorGraph graph;
    lie::Pose current = lie::Pose::identity(3);
    std::vector<lie::Pose> truth;
    for (std::size_t i = 0; i < n; ++i) {
        truth.push_back(current);
        fuzz.values.insert(i,
                           current.retract(randomVector(6, rng, 0.05)));
        const lie::Pose step = randomPose(3, rng, 0.2, 1.0);
        if (i + 1 < n)
            graph.emplace<fg::BetweenFactor>(
                i, i + 1, step, fg::isotropicSigmas(6, 0.1));
        current = current.oplus(step);
    }
    graph.emplace<fg::PriorFactor>(0u, truth[0],
                                   fg::isotropicSigmas(6, 0.01));
    if (n > 3) // Loop closure on the longer chains.
        graph.emplace<fg::BetweenFactor>(
            0u, n - 1, truth[n - 1].ominus(truth[0]),
            fg::isotropicSigmas(6, 0.05));
    fuzz.program = comp::compileGraph(graph, fuzz.values);
    return fuzz;
}

TEST(SchedulingFuzz, OutOfOrderMatchesInOrderResultsAndMacs)
{
    GateGuard guard;
    MetricsRegistry::setEnabled(true);
    auto &registry = MetricsRegistry::global();

    hw::AcceleratorConfig ooo = hw::AcceleratorConfig::minimal(true);
    hw::AcceleratorConfig in_order =
        hw::AcceleratorConfig::minimal(true);
    in_order.outOfOrder = false;

    for (unsigned seed = 1; seed <= 8; ++seed) {
        const FuzzCase fuzz = makeFuzzCase(seed);
        const std::vector<hw::WorkItem> work = {
            {&fuzz.program, &fuzz.values}};

        registry.reset();
        mat::MacScope ooo_macs;
        const hw::SimResult a = runtime::ExecutionContext(work).run(ooo);
        const std::uint64_t ooo_mac_count = ooo_macs.elapsed();
        // The simulator reported this frame's makespan and busy
        // cycles into the registry as it ran.
        EXPECT_EQ(registry.counter("hw.cycles").value(), a.cycles)
            << "seed " << seed;
        std::uint64_t busy_counters = 0;
        std::uint64_t busy_result = 0;
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            const std::string name =
                std::string("hw.busy_cycles.") +
                hw::unitName(static_cast<hw::UnitKind>(k));
            busy_counters += registry.counter(name).value();
            busy_result += a.unitBusyCycles[k];
        }
        EXPECT_EQ(busy_counters, busy_result) << "seed " << seed;

        mat::MacScope io_macs;
        const hw::SimResult b =
            runtime::ExecutionContext(work).run(in_order);
        const std::uint64_t io_mac_count = io_macs.elapsed();

        // Scheduling policy must not change what is computed: same
        // kernels, same MAC count, bit-identical deltas.
        EXPECT_EQ(ooo_mac_count, io_mac_count) << "seed " << seed;
        EXPECT_GT(ooo_mac_count, 0u) << "seed " << seed;
        ASSERT_EQ(a.deltas.size(), b.deltas.size());
        for (std::size_t w = 0; w < a.deltas.size(); ++w) {
            ASSERT_EQ(a.deltas[w].size(), b.deltas[w].size());
            for (const auto &[key, delta] : a.deltas[w]) {
                const auto it = b.deltas[w].find(key);
                ASSERT_NE(it, b.deltas[w].end());
                EXPECT_EQ(mat::maxDifference(delta, it->second), 0.0)
                    << "seed " << seed << " key " << key;
            }
        }
        // In-order must never beat the out-of-order schedule.
        EXPECT_LE(a.cycles, b.cycles) << "seed " << seed;
    }
}

} // namespace
