// Paced (SLO) serving throughput of the parallel runtime, on the
// serving path: one shared Engine, many MobileRobot localization
// sessions with fingerprint churn, run as the indices of one
// ServerPool::parallelFor. Sessions model a sensor-rate client: one
// frame per kPacedPeriodUs, the frame's compute a fraction of the
// period. On this workload throughput must scale with workers (the
// compute fits the period's budget even on one core), so the bench
// computes speedup_4t and the 8-thread p99 inflation, and
// `--gate-scaling X` turns them into a CI gate: fail when 4-thread
// sessions/s < X * single-thread, or when the 8-thread step p99
// exceeds kP99RatioLimit * the 1-thread p99. Each run times enough
// steps that the p99 has more than ten beyond it, and every run's
// final values must be byte-identical to a sequential (no pool) run.
//
// Emits BENCH_throughput.json for CI trending.

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
#include "runtime/server_pool.hpp"

using namespace orianna;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kDistinctGraphs = 6; //!< Cache churn: distinct seeds.
constexpr std::size_t kSessions = 24;   //!< Sessions per serving run.

/**
 * Sensor period and frames per session. The gated p99 is a tail only
 * with at least ten steps beyond it: at 6 frames (144 steps) it was
 * the second-slowest step, and one step that waited for a CPU on a
 * shared 4-vCPU host (milliseconds of wall time, a tenth of a
 * millisecond of thread CPU time) could fail the gate on its own.
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

/** One paced serving run. */
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

    std::ofstream json("BENCH_throughput.json");
    json << "{\n  \"sessions\": " << kSessions
         << ",\n  \"distinct_graphs\": " << kDistinctGraphs
         << ",\n  \"simd\": \""
         << mat::kernels::simdTierName(mat::kernels::activeTier())
         << "\",\n";

    std::printf("paced serving: %zu mobile_robot localization sessions, "
                "%u distinct graphs, one frame per %.1f ms, %zu steps "
                "per run:\n%8s %12s %10s %10s\n",
                kSessions, kDistinctGraphs, kPacedPeriodUs / 1000.0,
                kSessions * kPacedFrames, "threads", "sessions/s",
                "p50 ms", "p99 ms");
    // Sequential reference: the byte-exact ground truth every
    // pool-driven run must reproduce. Pacing and the pool may reorder
    // *when* frames run, never what they compute.
    std::vector<std::uint64_t> paced_reference(kSessions);
    {
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
    bool first = true;
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
    std::printf("all runs byte-identical to the sequential run\n"
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
