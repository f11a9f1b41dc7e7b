// Golden-trace regression test: the mobile_robot schedule on its
// generated fig.13-style accelerator is fully deterministic (the
// cycle-level simulator has no randomness; schedules depend only on
// the program structure), so a structural digest of the schedule —
// event count, makespan, per-unit busy cycles — is byte-stable across
// runs and thread counts. Any change in the compiler, scheduler or
// cost model that moves the paper-facing schedule shows up here as a
// digest diff instead of a silent drift.
//
// The aggregate digest cannot see a reordering that keeps the
// makespan and busy totals, so a second golden hashes every trace
// event (op, unit, instance, start, end) in issue order. It covers
// the 120-pose garage graph, whose ready lists run to hundreds of
// entries, under both dispatch modes, plus the fig.13 config. A third
// golden pins the garage values after five Gauss-Newton frames.
//
// Regenerate the checked-in digests after an intentional change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_golden_trace

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
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
#include "runtime/server_pool.hpp"
#include "test_golden.hpp"

namespace {

using namespace orianna;
using orianna::test::expectGolden;
using orianna::test::fnv1a;
using orianna::test::hex;

/** Seed and budget of the latency benches (bench/bench_common.hpp). */
constexpr unsigned kBenchSeed = 5;

hw::Resources
zc706Budget()
{
    return {131000, 262000, 327, 540};
}

const char *kGoldenPath =
    ORIANNA_GOLDEN_DIR "/mobile_robot_fig13.digest";
const char *kEventsGoldenPath =
    ORIANNA_GOLDEN_DIR "/schedule_events.digest";
const char *kValuesGoldenPath =
    ORIANNA_GOLDEN_DIR "/garage_values.digest";

/**
 * One line per frame: event count, makespan and a hash of every
 * trace event (op and shape, unit, instance, start, end) in issue
 * order, so any reordering shows even when the aggregates hold.
 */
std::string
eventDigest(const std::string &label,
            const std::vector<hw::WorkItem> &work,
            const hw::AcceleratorConfig &config)
{
    hw::AcceleratorConfig traced = config;
    traced.recordTrace = true;
    runtime::ExecutionContext context(work);
    const hw::SimResult frame = context.run(traced);

    std::uint64_t hash = fnv1a("");
    for (const hw::TraceEvent &event : frame.trace)
        hash = fnv1a(event.name + " " + hw::unitName(event.unit) + " " +
                         std::to_string(event.instance) + " " +
                         std::to_string(event.startCycle) + " " +
                         std::to_string(event.endCycle) + "\n",
                     hash);
    return label + " events " + std::to_string(frame.trace.size()) +
           " makespan_cycles " + std::to_string(frame.cycles) +
           " fnv1a " + hex(hash) + "\n";
}

/** The committed 120-pose garage graph, compiled at fp64. */
struct GarageSetup
{
    apps::PoseGraphScenario scenario;
    std::shared_ptr<const comp::Program> program;
};

GarageSetup
makeGarage()
{
    GarageSetup setup;
    setup.scenario = apps::scenarioFromG2o(
        fg::loadG2o(ORIANNA_G2O_DIR "/garage_lite.g2o"), "garage_lite");
    // Pinned fp64: the fp32 datapath has its own latencies and values.
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    setup.program = engine.program(setup.scenario.graph(),
                                   setup.scenario.initial, 0, "garage");
    return setup;
}

/**
 * Structural digest of one simulated frame's schedule: every number a
 * schedule regression would move, in a fixed text layout.
 */
std::string
scheduleDigest(const std::vector<hw::WorkItem> &work,
               const hw::AcceleratorConfig &config)
{
    hw::AcceleratorConfig traced = config;
    traced.recordTrace = true;
    runtime::ExecutionContext context(work);
    const hw::SimResult frame = context.run(traced);

    std::ostringstream out;
    out << "app mobile_robot seed " << kBenchSeed << "\n";
    out << "events " << frame.trace.size() << "\n";
    out << "makespan_cycles " << frame.cycles << "\n";
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        out << "busy_cycles "
            << hw::unitName(static_cast<hw::UnitKind>(k)) << " "
            << frame.unitBusyCycles[k] << "\n";
    for (std::size_t p = 0; p < frame.phaseBusyCycles.size(); ++p)
        out << "phase_busy_cycles " << p << " "
            << frame.phaseBusyCycles[p] << "\n";
    // The last event's end pins the tail of the schedule.
    if (!frame.trace.empty()) {
        const hw::TraceEvent &last = frame.trace.back();
        out << "last_event " << last.name << " "
            << last.startCycle << " " << last.endCycle << "\n";
    }
    return out.str();
}

struct GoldenSetup
{
    apps::BenchmarkApp bench;
    std::vector<hw::WorkItem> work;
    hw::AcceleratorConfig config;
};

GoldenSetup
makeSetup()
{
    GoldenSetup setup{
        apps::buildMission(apps::AppKind::MobileRobot, kBenchSeed),
        {},
        {}};
    setup.bench.app.compile();
    setup.work = setup.bench.app.frameWork();
    setup.config = hwgen::generate(setup.work, zc706Budget(),
                                   hwgen::Objective::AvgLatency, true)
                       .config;
    return setup;
}

TEST(GoldenTrace, MobileRobotScheduleMatchesCheckedInDigest)
{
    const GoldenSetup setup = makeSetup();
    expectGolden(kGoldenPath, scheduleDigest(setup.work, setup.config));
}

TEST(GoldenTrace, ScalarKernelTierReproducesDigestByteIdentically)
{
    // The bit-exact contract of ORIANNA_SIMD=scalar (DESIGN.md §10):
    // with the scalar kernel table pinned, the fig.13 digest matches
    // the checked-in golden byte for byte — no regeneration, no
    // tolerance. (The digest is structural, so faster tiers also
    // reproduce it; this test is the guarantee for the reference
    // tier specifically.)
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    if (std::getenv("ORIANNA_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating; covered by the test above";

    const GoldenSetup setup = makeSetup();
    const std::string digest = scheduleDigest(setup.work, setup.config);
    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(digest, golden.str());
}

TEST(GoldenTrace, DigestIsStableAcrossRunsAndThreadCounts)
{
    const GoldenSetup setup = makeSetup();
    const std::string reference =
        scheduleDigest(setup.work, setup.config);

    // Re-running in a fresh context must reproduce every byte.
    EXPECT_EQ(scheduleDigest(setup.work, setup.config), reference);

    // Concurrency must not leak into the schedule: digests computed
    // on pool workers (any thread count) equal the sequential one.
    for (unsigned threads : {2u, 4u}) {
        runtime::ServerPool pool(threads);
        std::vector<std::string> digests(threads);
        pool.parallelFor(threads, [&](std::size_t i) {
            digests[i] = scheduleDigest(setup.work, setup.config);
        });
        for (const std::string &digest : digests)
            EXPECT_EQ(digest, reference)
                << "thread count " << threads;
    }
}

TEST(GoldenTrace, EveryScheduleEventMatchesCheckedInDigest)
{
    const GarageSetup garage = makeGarage();
    const std::vector<hw::WorkItem> garage_work{
        {garage.program.get(), &garage.scenario.initial}};
    const GoldenSetup fig13 = makeSetup();

    const std::string digest =
        eventDigest("garage_lite out-of-order", garage_work,
                    hw::AcceleratorConfig::minimal(true)) +
        eventDigest("garage_lite in-order", garage_work,
                    hw::AcceleratorConfig::minimal(false)) +
        eventDigest("mobile_robot fig13", fig13.work, fig13.config);
    expectGolden(kEventsGoldenPath, digest);
}

TEST(GoldenTrace, GarageValuesAfterFiveFramesMatchCheckedInDigest)
{
    // Values are bit-exact only on the scalar reference tier, like
    // the fig.13 digest above.
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    const GarageSetup garage = makeGarage();
    runtime::Session session(garage.program, garage.scenario.initial,
                             hw::AcceleratorConfig::minimal(true));
    const fg::Values &values = session.iterate(5);

    std::string bytes;
    auto put = [&bytes](const mat::Vector &v) {
        for (std::size_t i = 0; i < v.size(); ++i) {
            const double x = v[i];
            char raw[sizeof x];
            std::memcpy(raw, &x, sizeof raw);
            bytes.append(raw, sizeof raw);
        }
    };
    for (fg::Key key : values.keys()) {
        bytes += std::to_string(key) + ":";
        put(values.pose(key).phi());
        put(values.pose(key).t());
    }
    expectGolden(kValuesGoldenPath,
                 "garage_lite frames 5 poses " +
                     std::to_string(values.size()) + " fnv1a " +
                     hex(fnv1a(bytes)) + "\n");
}

} // namespace
