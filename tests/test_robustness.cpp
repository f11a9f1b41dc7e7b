// Fault tolerance, end to end: deterministic fault-injection
// schedules, symptom detection in the Session, the retry -> fallback
// degradation ladder (bit-identical to the reference executor), the
// health export, adaptive Levenberg-Marquardt termination reasons,
// and nested ServerPool submission (the fork-join deadlock fix).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "compiler/executor.hpp"
#include "fg/factors.hpp"
#include "fg/optimizer.hpp"
#include "hw/fault_injection.hpp"
#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/trace_sink.hpp"
#include "test_json.hpp"

using namespace orianna;
using orianna::test::parseJson;

namespace {

/** The runtime_server example's odometry chain. */
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
    for (int i = 0; i < 5; ++i)
        truth.emplace_back(
            mat::Vector{0.1 * i, 0.02 * i, 0.05 * i},
            mat::Vector{0.4 * i, 0.04 * i, 0.0});
    return truth;
}

fg::Values
chainInitial(const std::vector<lie::Pose> &truth)
{
    fg::Values initial;
    for (std::size_t i = 0; i < truth.size(); ++i)
        initial.insert(i + 1,
                       truth[i].retract(mat::Vector{0.05, -0.05, 0.05,
                                                    -0.05, 0.05,
                                                    -0.05}));
    return initial;
}

/** A 2-D square pose loop that Gauss-Newton solves in a few steps. */
fg::FactorGraph
squareGraph(fg::Values &initial)
{
    initial.insert(0, lie::Pose(mat::Vector{0.0},
                                mat::Vector{0.0, 0.0}));
    initial.insert(1, lie::Pose(mat::Vector{1.62},
                                mat::Vector{1.1, 0.1}));
    initial.insert(2, lie::Pose(mat::Vector{3.1},
                                mat::Vector{0.9, 1.1}));
    initial.insert(3, lie::Pose(mat::Vector{-1.5},
                                mat::Vector{-0.1, 0.95}));
    fg::FactorGraph graph;
    graph.emplace<fg::PriorFactor>(0, initial.pose(0),
                                   fg::isotropicSigmas(3, 1e-3));
    const lie::Pose edge(mat::Vector{1.5708}, mat::Vector{1.0, 0.0});
    const mat::Vector sigmas =
        fg::isotropicSigmas(3, 0.1);
    graph.emplace<fg::BetweenFactor>(0, 1, edge, sigmas);
    graph.emplace<fg::BetweenFactor>(1, 2, edge, sigmas);
    graph.emplace<fg::BetweenFactor>(2, 3, edge, sigmas);
    graph.emplace<fg::BetweenFactor>(3, 0, edge, sigmas);
    return graph;
}

/** Bitwise equality over every variable of two value sets. */
void
expectIdenticalValues(const fg::Values &a, const fg::Values &b)
{
    for (fg::Key key : a.keys()) {
        if (a.isPose(key)) {
            EXPECT_EQ(mat::maxDifference(a.pose(key).phi(),
                                         b.pose(key).phi()),
                      0.0)
                << "pose rotation of key " << key;
            EXPECT_EQ(mat::maxDifference(a.pose(key).t(),
                                         b.pose(key).t()),
                      0.0)
                << "pose translation of key " << key;
        } else {
            EXPECT_EQ(mat::maxDifference(a.vector(key),
                                         b.vector(key)),
                      0.0)
                << "vector key " << key;
        }
    }
}

/** Flatten a fault schedule for byte-for-byte comparison. */
std::string
serializeSchedule(const std::vector<hw::FaultDecision> &schedule)
{
    std::string out;
    for (const hw::FaultDecision &d : schedule) {
        out += std::to_string(d.extraCycles);
        out += d.corrupt ? ":1" : ":0";
        for (std::uint64_t count : d.fired) {
            out += ':';
            out += std::to_string(count);
        }
        out += ';';
    }
    return out;
}

/** A synthetic per-instruction unit-kind map cycling every kind. */
std::vector<std::uint8_t>
cyclingUnitKinds(std::size_t n)
{
    std::vector<std::uint8_t> kinds(n);
    for (std::size_t g = 0; g < n; ++g)
        kinds[g] = static_cast<std::uint8_t>(g % hw::kUnitKindCount);
    return kinds;
}

// ---------------------------------------------------------------
// Fault plan parsing and schedule determinism
// ---------------------------------------------------------------

TEST(FaultPlan, ParsesCampaignSpecs)
{
    const hw::FaultPlan plan = hw::FaultPlan::parse(
        "42@corrupt:matmul:0.25,stall:qr:0.5:1234,spike:backsub:0.1");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.faults.size(), 3u);
    EXPECT_EQ(plan.faults[0].kind, hw::FaultKind::CorruptOutput);
    EXPECT_EQ(plan.faults[0].unit, hw::UnitKind::MatMul);
    EXPECT_EQ(plan.faults[0].rate, 0.25);
    EXPECT_EQ(plan.faults[1].kind, hw::FaultKind::Stall);
    EXPECT_EQ(plan.faults[1].cycles, 1234u);
    EXPECT_EQ(plan.faults[2].kind, hw::FaultKind::LatencySpike);
    EXPECT_EQ(plan.faults[2].unit, hw::UnitKind::BackSub);

    // "all" expands to one spec per functional-unit kind.
    const hw::FaultPlan all = hw::FaultPlan::parse("corrupt:all:0.1");
    EXPECT_EQ(all.seed, 0u);
    EXPECT_EQ(all.faults.size(), hw::kUnitKindCount);

    EXPECT_THROW(hw::FaultPlan::parse("bogus:all:0.1"),
                 std::invalid_argument);
    EXPECT_THROW(hw::FaultPlan::parse("stall:frobnicator:0.1"),
                 std::invalid_argument);
    EXPECT_THROW(hw::FaultPlan::parse("stall:all"),
                 std::invalid_argument);
    EXPECT_THROW(hw::FaultPlan::parse("stall:all:zero"),
                 std::invalid_argument);
}

TEST(FaultInjection, SameSeedReplaysByteIdenticalSchedule)
{
    const auto kinds = cyclingUnitKinds(96);
    const char *spec = "7@corrupt:all:0.2,stall:qr:0.3:5000,"
                       "spike:matmul:0.4";
    const hw::FaultInjector a(hw::FaultPlan::parse(spec));
    const hw::FaultInjector b(hw::FaultPlan::parse(spec));

    const std::string first = serializeSchedule(a.schedule(3, 0, kinds));
    // Replays are pure functions of (seed, frame, attempt, g, spec):
    // same injector again, and an independently parsed twin.
    EXPECT_EQ(serializeSchedule(a.schedule(3, 0, kinds)), first);
    EXPECT_EQ(serializeSchedule(b.schedule(3, 0, kinds)), first);

    // Any coordinate change rolls a different schedule.
    EXPECT_NE(serializeSchedule(a.schedule(3, 1, kinds)), first);
    EXPECT_NE(serializeSchedule(a.schedule(4, 0, kinds)), first);
    const hw::FaultInjector other(
        hw::FaultPlan::parse(std::string("8@") + (spec + 2)));
    EXPECT_NE(serializeSchedule(other.schedule(3, 0, kinds)), first);
}

TEST(FaultInjection, RateBoundsAreExact)
{
    const auto kinds = cyclingUnitKinds(64);
    const hw::FaultInjector never(
        hw::FaultPlan::parse("corrupt:all:0.0"));
    for (const hw::FaultDecision &d : never.schedule(0, 0, kinds))
        EXPECT_FALSE(d.any());

    const hw::FaultInjector always(
        hw::FaultPlan::parse("corrupt:matmul:1.0"));
    const auto schedule = always.schedule(0, 0, kinds);
    for (std::size_t g = 0; g < kinds.size(); ++g) {
        const bool is_matmul =
            static_cast<hw::UnitKind>(kinds[g]) ==
            hw::UnitKind::MatMul;
        EXPECT_EQ(schedule[g].corrupt, is_matmul) << "g=" << g;
    }
}

// A long-lived context keeps every slot's storage between frames and
// writes QR, GATHER and EXTRACT results into it. Poison every slot
// (NaN) on a QR-only and then an all-units campaign: once disarmed,
// the next frame must overwrite each reused slot before reading it,
// matching a fresh context bit for bit.
TEST(FaultInjection, PoisonedSlotsAreOverwrittenOnReuse)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), fp64);
    const auto program = engine.program(graph, initial);
    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);

    auto anyNonFinite = [](const hw::SimResult &frame) {
        for (const auto &[key, delta] : frame.deltas.at(0))
            for (std::size_t i = 0; i < delta.size(); ++i)
                if (!std::isfinite(delta[i]))
                    return true;
        return false;
    };

    runtime::ExecutionContext reused({{program.get(), &initial}});
    const hw::FaultInjector qr(hw::FaultPlan::parse("corrupt:qr:1.0"));
    const hw::FaultInjector all(hw::FaultPlan::parse("corrupt:all:1.0"));
    for (const hw::FaultInjector *injector : {&qr, &all}) {
        reused.armFaults(injector, 0, 0);
        const hw::SimResult poisoned = reused.run(config);
        EXPECT_GT(poisoned.faultsInjected, 0u);
        EXPECT_TRUE(anyNonFinite(poisoned));
    }
    reused.armFaults(nullptr, 0, 0);
    const hw::SimResult healed = reused.run(config);

    runtime::ExecutionContext fresh({{program.get(), &initial}});
    const hw::SimResult want = fresh.run(config);
    ASSERT_EQ(healed.deltas.at(0).size(), want.deltas.at(0).size());
    for (const auto &[key, delta] : want.deltas.at(0)) {
        const mat::Vector &got = healed.deltas.at(0).at(key);
        ASSERT_EQ(got.size(), delta.size());
        for (std::size_t i = 0; i < delta.size(); ++i)
            EXPECT_EQ(got[i], delta[i]) << "key " << key << " [" << i
                                        << "]";
    }
    EXPECT_EQ(healed.cycles, want.cycles);
}

// ---------------------------------------------------------------
// Session degradation: retry, fallback, counters, health export
// ---------------------------------------------------------------

TEST(Degradation, CorruptFramesFallBackBitIdentical)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    // Clean engine: the ground truth for the degraded results. Both
    // engines pin fp64 — the bit-identity below is the fp64
    // pass-equivalence contract (the fp32 rung has its own test in
    // test_precision.cpp).
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine clean(hw::AcceleratorConfig::minimal(true), fp64);
    runtime::Session clean_session =
        clean.session(graph, initial);
    clean_session.iterate(3);

    // Every instruction of every attempt corrupts, so each frame
    // burns the full retry budget and lands on the reference rung.
    runtime::EngineOptions options = fp64;
    options.faultPlan = hw::FaultPlan::parse("9@corrupt:all:1.0");
    runtime::Engine faulty(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session session = faulty.session(graph, initial);
    ASSERT_TRUE(session.hasFallback());
    session.iterate(3);

    // The fallback frames retract reference-program deltas, which
    // the pass-equivalence contract keeps bit-identical to the
    // optimized program's — so the degraded stream lands on exactly
    // the clean stream's values.
    expectIdenticalValues(clean_session.values(), session.values());

    EXPECT_EQ(session.frames(), 3u);
    EXPECT_EQ(session.fallbacks(), 3u);
    EXPECT_EQ(session.retries(), 3u * 2u);
    EXPECT_EQ(session.faultsDetected(), 3u * 3u);
    EXPECT_TRUE(session.lastFrameDegraded());
    EXPECT_GT(session.totals().faultsInjected, 0u);
    EXPECT_GT(session.totals()
                  .faultsByKind[static_cast<std::size_t>(
                      hw::FaultKind::CorruptOutput)],
              0u);

    const auto &health = faulty.health();
    EXPECT_EQ(health.framesOk.load(), 3u);
    EXPECT_EQ(health.fallbacks.load(), 3u);
    EXPECT_EQ(health.retries.load(), 6u);
    EXPECT_EQ(health.failures.load(), 0u);

    const auto json = parseJson(faulty.healthJson());
    EXPECT_EQ(json->at("status").asString(), "degraded");
    EXPECT_TRUE(json->at("fault_injection").boolean);
    EXPECT_EQ(json->at("frames_ok").asNumber(), 3.0);
    EXPECT_EQ(json->at("fallbacks").asNumber(), 3.0);
    EXPECT_EQ(json->at("retries").asNumber(), 6.0);
    EXPECT_EQ(json->at("failures").asNumber(), 0.0);
    // Optimized + reference artifact, one compile each.
    EXPECT_EQ(json->at("compiles").asNumber(), 2.0);
}

TEST(Degradation, StallTripsFrameDeadline)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    // Measure the healthy frame to place the deadline right at it:
    // any stalled attempt then overshoots.
    runtime::Engine clean(hw::AcceleratorConfig::minimal(true));
    runtime::Session probe = clean.session(graph, initial);
    const std::uint64_t healthy_cycles = probe.step().cycles;

    runtime::EngineOptions options;
    options.faultPlan =
        hw::FaultPlan::parse("11@stall:all:1.0:50000");
    options.degradation.frameTimeoutCycles = healthy_cycles;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session session = engine.session(graph, initial);
    session.step();

    // Every attempt stalls past the deadline; the reference rung
    // (injection disarmed, deadline waived) delivers the frame.
    EXPECT_EQ(session.frameTimeouts(), 3u);
    EXPECT_EQ(session.fallbacks(), 1u);
    EXPECT_TRUE(session.lastFrameDegraded());
    EXPECT_EQ(engine.health().frameTimeouts.load(), 3u);

    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("frame_timeouts").asNumber(), 3.0);
}

/** Collects the unified trace while alive, then clears it. */
struct TraceGate
{
    TraceGate() { runtime::TraceCollector::setEnabled(true); }
    ~TraceGate()
    {
        runtime::TraceCollector::setEnabled(false);
        runtime::TraceCollector::global().clear();
    }
};

// A fault is named by its symptom: in the fault spans of the unified
// trace, and in the exception of a frame no rung could deliver.
TEST(Degradation, FaultSpansAndFailuresNameTheSymptom)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    // The fault-category spans of one traced frame on @p options.
    const auto faultSpans = [&](const runtime::EngineOptions &options) {
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                               options);
        const TraceGate gate;
        engine.session(graph, initial).step();
        std::vector<std::string> names;
        for (const runtime::RuntimeSpan &span :
             runtime::TraceCollector::global().spans())
            if (span.category == "fault")
                names.push_back(span.name);
        return names;
    };

    runtime::Engine clean(hw::AcceleratorConfig::minimal(true));
    runtime::EngineOptions stalls;
    stalls.faultPlan = hw::FaultPlan::parse("11@stall:all:1.0:50000");
    stalls.degradation.frameTimeoutCycles =
        clean.session(graph, initial).step().cycles;
    EXPECT_EQ(faultSpans(stalls), (std::vector<std::string>{
                                      "fault: frame deadline exceeded",
                                      "fault: frame deadline exceeded",
                                      "fault: frame deadline exceeded",
                                      "fallback"}));

    runtime::EngineOptions limited;
    limited.degradation.deltaAbsLimit = 1e-12;
    EXPECT_EQ(faultSpans(limited),
              (std::vector<std::string>{"fault: diverging delta",
                                        "fallback"}));

    runtime::EngineOptions corrupt;
    corrupt.faultPlan = hw::FaultPlan::parse("5@corrupt:all:1.0");
    corrupt.degradation.fallback = false;
    runtime::Engine failing(hw::AcceleratorConfig::minimal(true),
                            corrupt);
    runtime::Session session = failing.session(graph, initial);
    try {
        session.step();
        ADD_FAILURE() << "a corrupted frame without fallback returned";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "Session: frame 0 failed (non-finite "
                                   "delta) after 2 retries");
    }
}

TEST(Degradation, NoFallbackFailsLoudly)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    runtime::EngineOptions options;
    options.faultPlan = hw::FaultPlan::parse("5@corrupt:all:1.0");
    options.degradation.fallback = false;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session session = engine.session(graph, initial);
    ASSERT_FALSE(session.hasFallback());

    // A corrupted frame must raise after the retry budget — never
    // silently retract NaNs (the historical behavior).
    EXPECT_THROW(session.step(), std::runtime_error);
    EXPECT_EQ(session.frames(), 0u);
    EXPECT_EQ(engine.health().failures.load(), 1u);
    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("status").asString(), "failing");

    // The session values were never touched by the failed frame.
    expectIdenticalValues(initial, session.values());
}

TEST(Degradation, FaultFreeEngineIsUnchanged)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    // No fault source: no reference compile, no retries, status ok.
    // Pinned fp64 — an fp32 datapath IS a fault source (DESIGN.md
    // §12) and would provision the fallback this test rules out.
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), fp64);
    runtime::Session session = engine.session(graph, initial);
    session.iterate(2);
    EXPECT_FALSE(session.hasFallback());
    EXPECT_EQ(engine.stats().compiles, 1u);
    EXPECT_EQ(session.faultsDetected(), 0u);
    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("status").asString(), "ok");
    EXPECT_FALSE(json->at("fault_injection").boolean);
    EXPECT_EQ(json->at("frames_ok").asNumber(), 2.0);
}

// A frame whose numerics throw never reaches the ladder's end, but it
// is still a frame that threw: EngineHealth::failures counts it.
TEST(Degradation, FrameThatThrowsCountsAsAFailure)
{
    const auto truth = chainTruth();
    fg::FactorGraph graph;
    // A 1e14 sigma whitens the only factor to ~0: the back
    // substitution meets a singular diagonal and throws.
    graph.emplace<fg::PriorFactor>(1, truth[0],
                                   fg::isotropicSigmas(6, 1e14));
    fg::Values initial;
    initial.insert(1, truth[0]);

    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), fp64);
    runtime::Session session = engine.session(graph, initial);
    EXPECT_THROW(session.step(), std::runtime_error);
    EXPECT_EQ(session.frames(), 0u);
    EXPECT_EQ(engine.health().failures.load(), 1u);
    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("status").asString(), "failing");
    EXPECT_EQ(json->at("failures").asNumber(), 1.0);
}

// The pass verifier runs the program on the session's values while
// the session compiles. On this graph that probe throws, before and
// after every pass alike: the compile must still succeed, and the
// frame is what fails.
TEST(Degradation, VerifiedCompileOfAProgramThatThrowsSucceeds)
{
    const auto truth = chainTruth();
    fg::FactorGraph graph;
    graph.emplace<fg::PriorFactor>(1, truth[0],
                                   fg::isotropicSigmas(6, 1e14));
    fg::Values initial;
    initial.insert(1, truth[0]);

    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    options.verifyPasses = true;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), options);
    std::optional<runtime::Session> session;
    ASSERT_NO_THROW(session.emplace(engine.session(graph, initial)));
    const auto log = engine.compileLog();
    ASSERT_FALSE(log.empty());
    for (const comp::PassStats &stat : log.front().passes)
        EXPECT_TRUE(stat.verified) << stat.pass;
    EXPECT_THROW(session->step(), std::runtime_error);
    EXPECT_EQ(engine.health().failures.load(), 1u);
}

// Session::step forces the trace on while the unified trace collects;
// a frame that throws must hand the caller's setting back, or every
// later frame returns a schedule trace nobody asked for.
TEST(Degradation, FrameThatThrowsRestoresTheTraceFlag)
{
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), fp64);

    std::optional<TraceGate> gate(std::in_place);
    runtime::Session session = engine.session(graph, initial);
    // A variable the program loads goes missing: LOADV throws.
    const lie::Pose missing = session.values().pose(2);
    session.values().erase(2);
    EXPECT_THROW(session.step(), std::exception);
    EXPECT_EQ(engine.health().failures.load(), 1u);

    session.values().insert(2, missing);
    gate.reset();
    const hw::SimResult frame = session.step();
    EXPECT_TRUE(frame.trace.empty());
}

// ---------------------------------------------------------------
// Acceptance: every benchmark app serves through faults on every
// unit kind, and the degraded deltas match the reference executor.
// ---------------------------------------------------------------

TEST(Degradation, BenchmarkAppsCompleteUnderFaultsOnEveryUnit)
{
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildMission(kind, 1);
        bench.app.compile();

        for (std::size_t i = 0; i < bench.app.size(); ++i) {
            const core::Algorithm &alg = bench.app.algorithm(i);

            // corrupt:all covers every functional-unit kind; rate 1
            // forces the full ladder on every frame.
            runtime::EngineOptions options;
            options.faultPlan =
                hw::FaultPlan::parse("13@corrupt:all:1.0");
            runtime::Engine engine(
                hw::AcceleratorConfig::minimal(true), options);
            runtime::Session session = engine.session(
                alg.graph, alg.values, alg.stepScale,
                static_cast<std::uint8_t>(i), alg.name);

            // Mirror the frames on the literal reference executor
            // (the software-semantics interpreter over the
            // cleanup-only program Application::compile kept).
            fg::Values mirror = alg.values;
            for (int frame = 0; frame < 2; ++frame) {
                comp::Executor reference(alg.referenceProgram);
                auto deltas = reference.run(mirror);
                if (alg.stepScale != 1.0)
                    for (auto &[key, delta] : deltas)
                        delta = delta * alg.stepScale;
                mirror.retractAll(deltas);

                session.step();
                EXPECT_TRUE(session.lastFrameDegraded())
                    << appName(kind) << "/" << alg.name;
            }
            EXPECT_EQ(session.fallbacks(), 2u)
                << appName(kind) << "/" << alg.name;
            expectIdenticalValues(mirror, session.values());
        }
    }
}

// ---------------------------------------------------------------
// Adaptive Levenberg-Marquardt termination matrix
// ---------------------------------------------------------------

TEST(AdaptiveLm, ConvergesOnWellPosedGraph)
{
    fg::Values initial;
    const fg::FactorGraph graph = squareGraph(initial);
    const fg::OptimizeResult result = fg::optimize(graph, initial);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.reason, fg::TerminationReason::Converged);
    EXPECT_STREQ(fg::terminationReasonName(result.reason),
                 "converged");
    EXPECT_LT(result.finalError, 1e-3);
    // The seed workloads run the historical undamped path: no step
    // was ever rejected getting there.
    EXPECT_EQ(result.rejectedSteps, 0u);
}

TEST(AdaptiveLm, ReportsMaxIterationsWhenBudgetTooSmall)
{
    fg::Values initial;
    const fg::FactorGraph graph = squareGraph(initial);
    fg::GaussNewtonParams params;
    params.maxIterations = 1;
    const fg::OptimizeResult result =
        fg::optimize(graph, initial, params);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.reason, fg::TerminationReason::MaxIterations);
    EXPECT_EQ(result.iterations, 1u);
}

TEST(AdaptiveLm, NanObjectiveIsNumericalFailureNotConvergence)
{
    fg::Values initial;
    const fg::FactorGraph graph = squareGraph(initial);
    // Poison one pose: the objective is NaN from the first evaluation.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    fg::Values poisoned = initial;
    poisoned.update(2, lie::Pose(mat::Vector{nan},
                                 mat::Vector{0.9, 1.1}));

    const fg::OptimizeResult result = fg::optimize(graph, poisoned);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.reason,
              fg::TerminationReason::NumericalFailure);
    // The historical loop burned every iteration on NaN and reported
    // maxIterations "successfully"; now it stops before the first.
    EXPECT_EQ(result.iterations, 0u);
    EXPECT_TRUE(std::isnan(result.finalError));
}

TEST(AdaptiveLm, OvershootingStepsDivergeInsteadOfConverging)
{
    fg::Values initial;
    const fg::FactorGraph graph = squareGraph(initial);
    // Massive step overscaling makes every Gauss-Newton step increase
    // the error; with the damping ceiling pinned low the optimizer
    // must classify the run as diverged — the historical
    // |decrease| < tol predicate could call this "converged".
    fg::GaussNewtonParams params;
    params.stepScale = 50.0;
    params.lambdaFloor = 1e-4;
    params.lambdaMax = 1e-3;
    const fg::OptimizeResult result =
        fg::optimize(graph, initial, params);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.reason, fg::TerminationReason::Diverged);
    EXPECT_GT(result.rejectedSteps, 0u);
    // Rejected-only run: the entry values were never replaced by a
    // worse candidate.
    EXPECT_EQ(result.iterations, 0u);
}

TEST(AdaptiveLm, DampingTurnsOvershootIntoMonotoneProgress)
{
    fg::Values initial;
    const fg::FactorGraph graph = squareGraph(initial);
    // Same overshooting problem, but with the default lambda ceiling
    // the rejection loop can always damp a step far enough to make
    // progress: the run that diverged above instead descends
    // monotonically (if only linearly, so it spends its budget
    // instead of converging — which is the correct report).
    fg::GaussNewtonParams params;
    params.stepScale = 50.0;
    params.maxIterations = 100;
    const double entry_error = graph.totalError(initial);
    const fg::OptimizeResult result =
        fg::optimize(graph, initial, params);
    EXPECT_NE(result.reason, fg::TerminationReason::Diverged);
    EXPECT_NE(result.reason,
              fg::TerminationReason::NumericalFailure);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_GT(result.rejectedSteps, 0u);
    EXPECT_LT(result.finalError, entry_error);
    // Every accepted step was non-increasing: the historical loop's
    // oscillating error trace cannot happen under adaptive control.
    for (const fg::IterationRecord &it : result.history)
        EXPECT_LE(it.errorAfter, it.errorBefore);
}

// ---------------------------------------------------------------
// Nested ServerPool submission (work-while-wait regression)
// ---------------------------------------------------------------

TEST(ServerPool, NestedSubmissionFromEveryWorkerCompletes)
{
    // Pre-fix, a worker waiting on a nested batch blocked its thread;
    // with every worker nesting at once no thread remained to run
    // the inner tasks and the pool deadlocked. The waiting worker
    // now helps execute pending tasks instead.
    runtime::ServerPool pool(4);
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(6, [&](std::size_t) {
            pool.parallelFor(2, [&](std::size_t) {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(ran.load(), 8 * 6 * 2);

    // Exceptions cross nested batches like flat ones.
    EXPECT_THROW(
        pool.parallelFor(4,
                         [&](std::size_t i) {
                             pool.parallelFor(3, [&](std::size_t j) {
                                 if (i == 1 && j == 2)
                                     throw std::runtime_error("boom");
                             });
                         }),
        std::runtime_error);

    // The pool stays serviceable afterwards.
    std::atomic<int> after{0};
    pool.parallelFor(5, [&](std::size_t) {
        after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), 5);
}

TEST(ServerPool, NestedSessionsServeUnderFaults)
{
    // The serving shape of the deadlock: pool tasks that themselves
    // fan out, here with degradation active so fallback execution
    // also runs on worker threads.
    const auto truth = chainTruth();
    const fg::FactorGraph graph = chainGraph(truth);
    const fg::Values initial = chainInitial(truth);

    runtime::EngineOptions options;
    options.faultPlan = hw::FaultPlan::parse("21@corrupt:all:1.0");
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);

    runtime::ServerPool pool(3);
    std::vector<runtime::Session> sessions;
    for (int c = 0; c < 3; ++c)
        sessions.push_back(engine.session(graph, initial));
    pool.parallelFor(sessions.size(), [&](std::size_t c) {
        // Nested fan-out per client: each frame stepped as a
        // (single-task) nested batch from inside the outer task.
        for (int frame = 0; frame < 2; ++frame)
            pool.parallelFor(1, [&sessions, c](std::size_t) {
                sessions[c].step();
            });
    });

    for (std::size_t c = 1; c < sessions.size(); ++c)
        expectIdenticalValues(sessions[0].values(),
                              sessions[c].values());
    EXPECT_EQ(engine.health().fallbacks.load(), 6u);
    EXPECT_EQ(engine.health().failures.load(), 0u);
}

} // namespace
