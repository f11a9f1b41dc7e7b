// Serving throughput of the parallel runtime, in two sections:
//
// 1. Batch serving: one Engine under a ServerPool's parallelFor, many
//    MobileRobot localization sessions with fingerprint churn.
//    Reports sessions/s and frame latency per thread count and
//    asserts every session's final values are byte-identical to a
//    sequential (no pool) run.
//
// 2. Paced (SLO) serving: the scaling-efficiency section, on the
//    serving path — one shared Engine, sessions run as the indices
//    of one ServerPool::parallelFor. Sessions model a sensor-rate
//    client: one frame per kPacedPeriodUs, the frame's compute a
//    fraction of the period. On this workload throughput must scale
//    with workers (the compute fits the period's budget even on one
//    core), so the bench computes speedup_4t and the 8-thread p99
//    inflation, and `--gate-scaling X` turns them into a CI gate:
//    fail when 4-thread sessions/s < X * single-thread, or when the
//    8-thread step p99 exceeds kP99RatioLimit * the 1-thread p99.
//    Each run times enough steps that the p99 has more than ten
//    beyond it.
//
// Emits BENCH_throughput.json (both sections) for CI trending.
//
// Per-unit utilization is reported once, at the top level, computed
// from the sequential reference run: the simulator's cycle counts are
// fully deterministic and every run serves the identical session set,
// so the per-thread-count maps were always bit-identical by
// construction — repeating them per run only suggested they could
// differ. The registry is still reset at the start of every run
// (serve/servePaced) so the histogram and counter numbers describe
// exactly one run.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "apps/benchmark_apps.hpp"
#include "bench_common.hpp"
#include "compiler/fnv.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/server_pool.hpp"

using namespace orianna;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kDistinctGraphs = 6; //!< Cache churn: distinct seeds.
constexpr std::size_t kSessions = 24;   //!< Sessions per serving run.
constexpr std::size_t kFrames = 4;      //!< Gauss-Newton steps each.

/**
 * Paced section: sensor period and frames per session. The gated p99
 * is a tail only with at least ten steps beyond it: at 6 frames (144
 * steps) it was the second-slowest step, and one step that waited for
 * a CPU on a shared 4-vCPU host (milliseconds of wall time, a tenth of
 * a millisecond of thread CPU time) could fail the gate on its own.
 */
constexpr std::uint64_t kPacedPeriodUs = 5000;
constexpr std::size_t kPacedFrames = 48;
static_assert(kSessions * kPacedFrames >= 1100,
              "the paced p99 needs at least ten steps beyond it");

/** 8-thread p99 must stay within this factor of the 1-thread p99. */
constexpr double kP99RatioLimit = 5.0;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over the raw bit patterns of every variable, in key order. */
std::uint64_t
valuesDigest(const fg::Values &values)
{
    comp::Fnv1a h;
    auto mix = [&h](double d) { h.u64(std::bit_cast<std::uint64_t>(d)); };
    for (fg::Key key : values.keys()) {
        if (values.isPose(key)) {
            const lie::Pose &pose = values.pose(key);
            for (double d : pose.phi().data())
                mix(d);
            for (double d : pose.t().data())
                mix(d);
        } else {
            for (double d : values.vector(key).data())
                mix(d);
        }
    }
    return h.value();
}

/** One mission template: the localization graph of a distinct seed. */
struct Mission
{
    fg::FactorGraph graph;
    fg::Values initial;
};

struct RunOutcome
{
    std::vector<std::uint64_t> digests;  //!< Final values per session.
    std::vector<double> frame_ms;        //!< Every frame's latency.
    double elapsed_s = 0.0;
    runtime::Engine::Stats stats;
    double sim_p50_us = 0.0; //!< Registry frame.simulate_us p50.
    double sim_p99_us = 0.0;
    /** Per-unit utilization (busy share) from the registry. */
    std::vector<std::pair<std::string, double>> utilization;
};

/** Registry-derived per-unit utilization over the finished run. */
std::vector<std::pair<std::string, double>>
registryUtilization()
{
    auto &metrics = runtime::MetricsRegistry::global();
    std::vector<std::pair<std::string, double>> util;
    const std::uint64_t cycles = metrics.counter("hw.cycles").value();
    if (cycles == 0)
        return util;
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        const std::string unit =
            hw::unitName(static_cast<hw::UnitKind>(k));
        const std::uint64_t busy =
            metrics.counter("hw.busy_cycles." + unit).value();
        const std::int64_t instances =
            metrics.gauge("hw.units." + unit).value();
        if (instances <= 0)
            continue;
        util.emplace_back(unit,
                          static_cast<double>(busy) /
                              (static_cast<double>(cycles) *
                               static_cast<double>(instances)));
    }
    return util;
}

void
serveOne(runtime::Engine &engine, const Mission &mission,
         std::uint64_t &digest, double *frame_ms)
{
    runtime::Session session =
        engine.session(mission.graph, mission.initial);
    for (std::size_t f = 0; f < kFrames; ++f) {
        const auto start = Clock::now();
        session.step();
        frame_ms[f] = secondsSince(start) * 1e3;
    }
    digest = valuesDigest(session.values());
}

RunOutcome
serve(const std::vector<Mission> &missions, runtime::ServerPool *pool)
{
    // Fresh registry window per run so the utilization and histogram
    // numbers describe exactly this serving run.
    auto &metrics = runtime::MetricsRegistry::global();
    metrics.reset();

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    RunOutcome out;
    out.digests.assign(kSessions, 0);
    out.frame_ms.assign(kSessions * kFrames, 0.0);

    const auto start = Clock::now();
    if (pool != nullptr) {
        pool->parallelFor(kSessions, [&](std::size_t i) {
            serveOne(engine, missions[i % missions.size()],
                     out.digests[i], &out.frame_ms[i * kFrames]);
        });
    } else {
        for (std::size_t i = 0; i < kSessions; ++i)
            serveOne(engine, missions[i % missions.size()],
                     out.digests[i], &out.frame_ms[i * kFrames]);
    }
    out.elapsed_s = secondsSince(start);
    out.stats = engine.stats();
    out.sim_p50_us =
        metrics.histogram("frame.simulate_us").percentile(0.50);
    out.sim_p99_us =
        metrics.histogram("frame.simulate_us").percentile(0.99);
    out.utilization = registryUtilization();
    return out;
}

/** Section 2 result: one paced serving run. */
struct PacedOutcome
{
    std::vector<std::uint64_t> digests;
    double sessions_per_s = 0.0;
    double step_p50_ms = 0.0; //!< Compute-only step latency.
    double step_p99_ms = 0.0;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/**
 * Paced serving: every session steps once per kPacedPeriodUs (a
 * sensor-rate client), so a worker's capacity is sessions-per-period,
 * not raw compute. Idle workers claim the sessions in order and open
 * them on one shared Engine.
 */
PacedOutcome
servePaced(const std::vector<Mission> &missions, unsigned threads)
{
    runtime::MetricsRegistry::global().reset();
    runtime::ServerPool pool(threads);
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));

    PacedOutcome out;
    out.digests.assign(kSessions, 0);
    std::vector<double> step_ms(kSessions * kPacedFrames, 0.0);

    const auto start = Clock::now();
    pool.parallelFor(kSessions, [&](std::size_t i) {
        const Mission &mission = missions[i % missions.size()];
        runtime::Session session =
            engine.session(mission.graph, mission.initial);
        auto next = Clock::now();
        for (std::size_t f = 0; f < kPacedFrames; ++f) {
            next += std::chrono::microseconds(kPacedPeriodUs);
            const auto t0 = Clock::now();
            session.step();
            step_ms[i * kPacedFrames + f] = secondsSince(t0) * 1e3;
            std::this_thread::sleep_until(next);
        }
        out.digests[i] = valuesDigest(session.values());
    });
    const double elapsed = secondsSince(start);

    out.sessions_per_s = static_cast<double>(kSessions) / elapsed;
    std::sort(step_ms.begin(), step_ms.end());
    out.step_p50_ms = percentile(step_ms, 0.50);
    out.step_p99_ms = percentile(step_ms, 0.99);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double gate_scaling = 0.0; // 0: report only, no gate.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gate-scaling" && i + 1 < argc) {
            gate_scaling = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--gate-scaling MIN_4T_SPEEDUP]\n",
                         argv[0]);
            return 2;
        }
    }

    // Mission templates, one per distinct seed: same factor-graph
    // *shape*, different measurement constants, hence different
    // program-cache fingerprints.
    std::vector<Mission> missions;
    for (unsigned seed = 1; seed <= kDistinctGraphs; ++seed) {
        apps::BenchmarkApp bench =
            apps::buildApp(apps::AppKind::MobileRobot, seed);
        core::Algorithm &loc = bench.app.algorithm(0);
        missions.push_back({std::move(loc.graph), loc.values});
    }

    std::printf("serving run: %zu mobile_robot localization sessions, "
                "%u distinct graphs, %zu frames each\n",
                kSessions, kDistinctGraphs, kFrames);

    // Sequential reference: the byte-exact ground truth every
    // pool-driven run must reproduce.
    const RunOutcome reference = serve(missions, nullptr);

    std::printf("%8s %12s %10s %10s %10s %12s\n", "threads",
                "sessions/s", "p50 ms", "p99 ms", "hit rate",
                "sim p99 us");

    std::ofstream json("BENCH_throughput.json");
    json << "{\n  \"sessions\": " << kSessions
         << ",\n  \"distinct_graphs\": " << kDistinctGraphs
         << ",\n  \"frames_per_session\": " << kFrames
         << ",\n  \"simd\": \""
         << mat::kernels::simdTierName(mat::kernels::activeTier())
         << "\"";
    // Thread-invariant by construction (deterministic simulator,
    // identical session set): reported once, from the sequential
    // reference.
    json << ",\n  \"utilization\": {";
    for (std::size_t u = 0; u < reference.utilization.size(); ++u)
        json << (u == 0 ? "" : ", ") << '"'
             << reference.utilization[u].first
             << "\": " << reference.utilization[u].second;
    json << "},\n  \"runs\": [\n";

    bool first = true;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        runtime::ServerPool pool(threads);
        const RunOutcome run = serve(missions, &pool);

        if (run.digests != reference.digests) {
            std::fprintf(stderr,
                         "FAIL: final values diverge from the "
                         "sequential run at %u threads\n", threads);
            return 1;
        }

        std::vector<double> sorted = run.frame_ms;
        std::sort(sorted.begin(), sorted.end());
        const double sessions_per_s =
            static_cast<double>(kSessions) / run.elapsed_s;
        const double p50 = percentile(sorted, 0.50);
        const double p99 = percentile(sorted, 0.99);
        const double hit_rate =
            static_cast<double>(run.stats.cacheHits) /
            static_cast<double>(run.stats.cacheHits +
                                run.stats.compiles);

        std::printf("%8u %12.1f %10.2f %10.2f %9.0f%% %12.1f\n",
                    threads, sessions_per_s, p50, p99,
                    100.0 * hit_rate, run.sim_p99_us);

        json << (first ? "" : ",\n")
             << "    {\"threads\": " << threads
             << ", \"sessions_per_s\": " << sessions_per_s
             << ", \"p50_frame_ms\": " << p50
             << ", \"p99_frame_ms\": " << p99
             << ", \"cache_hit_rate\": " << hit_rate
             << ", \"sim_p50_us\": " << run.sim_p50_us
             << ", \"sim_p99_us\": " << run.sim_p99_us << "}";
        first = false;
    }
    json << "\n  ],\n";

    // --- Section 2: paced (SLO) serving — the scaling gate ----------
    std::printf("\npaced serving (one frame per %.1f ms, "
                "%zu steps per run):\n%8s %12s %10s %10s\n",
                kPacedPeriodUs / 1000.0, kSessions * kPacedFrames,
                "threads", "sessions/s", "p50 ms", "p99 ms");
    // The paced digests must also match: pacing and the pool may
    // reorder *when* frames run, never what they compute. The
    // reference serves the same missions for kPacedFrames frames.
    std::vector<std::uint64_t> paced_reference(kSessions);
    {
        runtime::MetricsRegistry::global().reset();
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
        for (std::size_t i = 0; i < kSessions; ++i) {
            const Mission &mission = missions[i % missions.size()];
            runtime::Session session =
                engine.session(mission.graph, mission.initial);
            session.iterate(kPacedFrames);
            paced_reference[i] = valuesDigest(session.values());
        }
    }
    json << "  \"paced\": {\n    \"period_us\": " << kPacedPeriodUs
         << ",\n    \"frames_per_session\": " << kPacedFrames
         << ",\n    \"runs\": [\n";
    std::vector<std::pair<unsigned, PacedOutcome>> paced;
    first = true;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        paced.emplace_back(threads, servePaced(missions, threads));
        const PacedOutcome &run = paced.back().second;
        if (run.digests != paced_reference) {
            std::fprintf(stderr,
                         "FAIL: paced values diverge from the "
                         "sequential run at %u threads\n", threads);
            return 1;
        }
        std::printf("%8u %12.1f %10.2f %10.2f\n", threads,
                    run.sessions_per_s, run.step_p50_ms,
                    run.step_p99_ms);
        json << (first ? "" : ",\n")
             << "      {\"threads\": " << threads
             << ", \"sessions_per_s\": " << run.sessions_per_s
             << ", \"step_p50_ms\": " << run.step_p50_ms
             << ", \"step_p99_ms\": " << run.step_p99_ms << "}";
        first = false;
    }
    const auto pacedAt = [&paced](unsigned threads) -> const
        PacedOutcome & {
        for (const auto &[t, run] : paced)
            if (t == threads)
                return run;
        return paced.front().second;
    };
    const double speedup_2t =
        pacedAt(2).sessions_per_s / pacedAt(1).sessions_per_s;
    const double speedup_4t =
        pacedAt(4).sessions_per_s / pacedAt(1).sessions_per_s;
    const double speedup_8t =
        pacedAt(8).sessions_per_s / pacedAt(1).sessions_per_s;
    const double p99_ratio_8t =
        pacedAt(1).step_p99_ms > 0.0
            ? pacedAt(8).step_p99_ms / pacedAt(1).step_p99_ms
            : 0.0;
    json << "\n    ],\n    \"speedup_2t\": " << speedup_2t
         << ",\n    \"speedup_4t\": " << speedup_4t
         << ",\n    \"speedup_8t\": " << speedup_8t
         << ",\n    \"p99_ratio_8t\": " << p99_ratio_8t
         << "\n  }\n}\n";

    std::printf("paced scaling: %.2fx @2t, %.2fx @4t, %.2fx @8t; "
                "8t/1t step p99 ratio %.2f\n",
                speedup_2t, speedup_4t, speedup_8t, p99_ratio_8t);
    std::printf("all sections byte-identical to the sequential run\n"
                "wrote BENCH_throughput.json\n");

    if (gate_scaling > 0.0) {
        if (speedup_4t < gate_scaling) {
            std::fprintf(stderr,
                         "GATE FAIL: paced 4-thread speedup %.2fx < "
                         "required %.2fx\n", speedup_4t, gate_scaling);
            return 1;
        }
        if (p99_ratio_8t > kP99RatioLimit) {
            std::fprintf(stderr,
                         "GATE FAIL: paced 8-thread step p99 is "
                         "%.2fx the 1-thread p99 (limit %.1fx)\n",
                         p99_ratio_8t, kP99RatioLimit);
            return 1;
        }
        std::printf("scaling gate passed (>= %.2fx @4t, p99 ratio "
                    "<= %.1fx)\n", gate_scaling, kP99RatioLimit);
    }
    return 0;
}
