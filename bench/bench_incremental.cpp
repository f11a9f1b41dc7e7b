// Incremental solving on the accelerator path (DESIGN.md §13):
// modeled per-frame latency of the AcceleratedSmoother streaming a
// pose-graph corpus scenario, against the cost a batch system pays
// re-solving the whole graph every frame.
//
// The incremental run replays the scenario frame by frame: odometry
// frames re-eliminate a short ordering suffix on-device, loop
// closures reach deeper, and periodic relinearize-all frames run the
// batch reference rung. The batch baseline compiles and steps the
// flattened prefix graph at sampled trajectory lengths — the
// per-frame price of not being incremental. Both sides are modeled
// cycles from the same simulated accelerator, reported at 167 MHz.
//
// The gated scenario is the garage world: its fixed-depth closures
// converge to a steady-state suffix shape, so the whole 1200-pose
// replay amortizes onto a few dozen compiled update programs — the
// shape-cache operating point the runtime is built for. Manhattan
// closures reach back a different distance every time (every deep
// frame is a fresh shape, a fresh compile), which is exactly the
// wall-time cliff the shape fingerprint exists to dodge; run it at
// a few hundred poses to see the difference.
//
// Writes BENCH_incremental.json (p50/p99 frame latency split by
// odometry vs loop-closure frames, re-elimination counts, session
// traffic, the sampled batch curve, the median speedup, and a host
// block: the incremental replay's wall seconds and the process's
// peak RSS).
//
// Usage: bench_incremental [--scenario garage|manhattan|sphere]
//                          [--poses N] [--seed S] [--quick]
//                          [--gate-incremental X] [-o out.json]
//
//   --gate-incremental X  CI gate: median batch-resolve frame cycles
//                         over median incremental frame cycles must
//                         reach X. Self-skips (exit 0 with a note)
//                         when the trajectory is under 1000 poses —
//                         short runs under-state the batch cost.
//   --quick               ~200 poses (smoke-test scale).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "apps/pose_graph.hpp"
#include "fg/optimizer.hpp"
#include "runtime/engine.hpp"
#include "runtime/incremental.hpp"

using namespace orianna;

namespace {

constexpr double kClockHz = 167e6;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--scenario garage|manhattan|sphere] "
                 "[--poses N] [--seed S] [--quick] "
                 "[--gate-incremental X] [-o out.json]\n"
                 "  --scenario NAME       corpus scenario (default: "
                 "garage — the shape-amortizing gated run)\n"
                 "  --poses N             trajectory length, N >= 48 "
                 "(default: 1200)\n"
                 "  --seed S              scenario seed (default: 5)\n"
                 "  --quick               ~200 poses\n"
                 "  --gate-incremental X  require batch/incremental "
                 "median frame-cycle ratio >= X (skipped below 1000 "
                 "poses)\n",
                 argv0);
    return 2;
}

apps::PoseGraphScenario
makeScenario(const std::string &kind, std::size_t poses,
             unsigned seed)
{
    if (kind == "garage")
        return apps::makeGarageWorld(
            std::max<std::size_t>(2, poses / 24), 24, seed);
    if (kind == "manhattan")
        return apps::makeManhattanWorld(poses, seed);
    if (kind == "sphere")
        return apps::makeSphereWorld(
            std::max<std::size_t>(2, poses / 20), 20, seed);
    throw std::invalid_argument("unknown scenario \"" + kind + "\"");
}

/** One replayed frame's telemetry. */
struct FrameSample
{
    std::uint64_t cycles = 0;
    std::size_t reeliminated = 0;
    bool loopClosure = false;
    bool relinearized = false;
};

double
percentile(std::vector<std::uint64_t> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(
                                         sorted.size() - 1)));
    return static_cast<double>(sorted[index]);
}

double
cyclesToUs(double cycles)
{
    return cycles / kClockHz * 1e6;
}

void
appendNumber(std::string &json, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    json += buffer;
}

/** p50/p99/mean-reelimination block for one frame class. */
std::string
classJson(const std::vector<FrameSample> &frames, bool closure)
{
    std::vector<std::uint64_t> cycles;
    double reelim = 0.0;
    for (const FrameSample &f : frames) {
        if (f.loopClosure != closure || f.relinearized)
            continue;
        cycles.push_back(f.cycles);
        reelim += static_cast<double>(f.reeliminated);
    }
    std::string json = "{\"frames\": ";
    appendNumber(json, static_cast<double>(cycles.size()));
    json += ", \"p50_us\": ";
    appendNumber(json, cyclesToUs(percentile(cycles, 0.50)));
    json += ", \"p99_us\": ";
    appendNumber(json, cyclesToUs(percentile(cycles, 0.99)));
    json += ", \"mean_reeliminated\": ";
    appendNumber(json, cycles.empty()
                           ? 0.0
                           : reelim / static_cast<double>(
                                          cycles.size()));
    json += "}";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t poses = 1200;
    unsigned seed = 5;
    double gate = 0.0;
    std::string kind = "garage";
    std::string out_path = "BENCH_incremental.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--poses" && i + 1 < argc) {
            const long value = std::atol(argv[++i]);
            if (value < 48)
                return usage(argv[0]);
            poses = static_cast<std::size_t>(value);
        } else if (arg == "--scenario" && i + 1 < argc) {
            kind = argv[++i];
            if (kind != "garage" && kind != "manhattan" &&
                kind != "sphere")
                return usage(argv[0]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--quick") {
            poses = 192;
        } else if (arg == "--gate-incremental" && i + 1 < argc) {
            gate = std::atof(argv[++i]);
            if (gate <= 0.0) {
                std::fprintf(stderr, "error: --gate-incremental "
                                     "needs a ratio > 0\n");
                return 2;
            }
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    const apps::PoseGraphScenario scenario =
        makeScenario(kind, poses, seed);
    poses = scenario.frames.size();
    std::printf("scenario %s: %zu frames, %zu loop-closure frames\n",
                scenario.name.c_str(), scenario.frames.size(),
                scenario.loopClosureFrames());

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));

    // --- Incremental replay -----------------------------------------
    // Periodic relinearize-all (every poses/10 frames) keeps the
    // batch reference rung in the measurement without letting its
    // per-shape compiles dominate wall time; the suffix cap is off so
    // every frame's cycles are modeled on-device.
    runtime::AcceleratedSmootherOptions options;
    options.params.relinearizeInterval = std::max<std::size_t>(
        10, poses / 10);
    options.params.relinearizeThreshold = 1e18;
    options.maxAcceleratedSuffix = 0;
    runtime::AcceleratedSmoother smoother(engine, options);

    std::vector<FrameSample> samples;
    samples.reserve(scenario.frames.size());
    const auto replay_start = std::chrono::steady_clock::now();
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        smoother.addVariable(frame.key,
                             scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        const fg::UpdateStats stats = smoother.update();
        FrameSample sample;
        sample.cycles = smoother.stats().lastCycles;
        sample.reeliminated = stats.eliminatedVariables;
        sample.loopClosure = frame.loopClosure;
        sample.relinearized = stats.relinearized;
        samples.push_back(sample);
    }
    const double replay_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      replay_start)
            .count();

    std::vector<std::uint64_t> incremental_cycles;
    std::size_t relinearize_all = 0;
    for (const FrameSample &sample : samples) {
        incremental_cycles.push_back(sample.cycles);
        relinearize_all += sample.relinearized ? 1 : 0;
    }
    const double inc_p50 = percentile(incremental_cycles, 0.50);
    const double inc_p99 = percentile(incremental_cycles, 0.99);
    const runtime::AcceleratedSmootherStats &stats = smoother.stats();
    // Relinearize-all frames are counted as the JSON counts them.
    // Batch-rung solves are every schedule that starts at position 0,
    // relinearize-all or not.
    std::printf("incremental: p50 %.1f us, p99 %.1f us per frame "
                "(%zu suffix frames, %zu relinearize-all, "
                "%zu batch-rung solves, %zu sessions opened, "
                "%zu reused)\n",
                cyclesToUs(inc_p50), cyclesToUs(inc_p99),
                stats.acceleratedFrames, relinearize_all,
                stats.batchFrames, stats.sessionsOpened,
                stats.sessionReuses);

    // --- Batch baseline ---------------------------------------------
    // The cost of re-solving from scratch, sampled along the
    // trajectory: compile and step the flattened prefix graph of the
    // first k frames. Each sample is what a non-incremental system
    // pays for every frame at that trajectory length.
    const std::size_t sample_count = poses >= 1000 ? 8 : 4;
    std::vector<std::pair<std::size_t, std::uint64_t>> batch_samples;
    for (std::size_t s = 1; s <= sample_count; ++s) {
        const std::size_t k =
            scenario.frames.size() * s / sample_count;
        fg::FactorGraph prefix;
        fg::Values initial;
        for (std::size_t i = 0; i < k; ++i) {
            const apps::PoseGraphFrame &frame = scenario.frames[i];
            initial.insert(frame.key,
                           scenario.initial.pose(frame.key));
            for (const fg::FactorPtr &factor : frame.factors)
                prefix.add(factor);
        }
        auto program = engine.program(prefix, initial, 0,
                                      "batch-" + std::to_string(k));
        runtime::Session session =
            engine.openSession(std::move(program), std::move(initial));
        batch_samples.emplace_back(k, session.step().cycles);
    }
    std::vector<std::uint64_t> batch_cycles;
    for (const auto &[k, cycles] : batch_samples)
        batch_cycles.push_back(cycles);
    const double batch_p50 = percentile(batch_cycles, 0.50);
    const double speedup = batch_p50 / std::max(1.0, inc_p50);
    std::printf("batch re-solve: p50 %.1f us per frame over %zu "
                "sampled lengths -> incremental speedup %.1fx\n",
                cyclesToUs(batch_p50), batch_samples.size(), speedup);

    // Sanity: the incremental answer lands on the batch Gauss-Newton
    // fixed point of the same graph.
    const auto batch_solution =
        fg::optimize(scenario.graph(), smoother.estimate());
    double worst = 0.0;
    const fg::Values estimate = smoother.estimate();
    for (fg::Key key : estimate.keys())
        worst = std::max(worst,
                         (estimate.pose(key).t() -
                          batch_solution.values.pose(key).t())
                             .norm());
    std::printf("final max position delta vs batch GN: %.2e m\n",
                worst);

    // Host clock: the replay above and the whole process's peak RSS
    // (ru_maxrss is in KiB on Linux).
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::printf("host: incremental replay %.2f s wall, peak RSS "
                "%.0f MB\n",
                replay_s, peak_rss_mb);

    // --- JSON artifact ----------------------------------------------
    std::string json = "{\n  \"scenario\": \"" + scenario.name +
                       "\",\n  \"poses\": ";
    appendNumber(json, static_cast<double>(poses));
    json += ",\n  \"loop_closure_frames\": ";
    appendNumber(json,
                 static_cast<double>(scenario.loopClosureFrames()));
    json += ",\n  \"clock_mhz\": ";
    appendNumber(json, kClockHz / 1e6);
    json += ",\n  \"incremental\": {\n    \"p50_us\": ";
    appendNumber(json, cyclesToUs(inc_p50));
    json += ",\n    \"p99_us\": ";
    appendNumber(json, cyclesToUs(inc_p99));
    json += ",\n    \"relinearize_all_frames\": ";
    appendNumber(json, static_cast<double>(relinearize_all));
    json += ",\n    \"odometry\": " + classJson(samples, false);
    json += ",\n    \"loop_closure\": " + classJson(samples, true);
    json += ",\n    \"sessions_opened\": ";
    appendNumber(json, static_cast<double>(stats.sessionsOpened));
    json += ",\n    \"session_reuses\": ";
    appendNumber(json, static_cast<double>(stats.sessionReuses));
    json += ",\n    \"engine_compiles\": ";
    appendNumber(json, static_cast<double>(engine.stats().compiles));
    json += "\n  },\n  \"batch\": {\n    \"p50_us\": ";
    appendNumber(json, cyclesToUs(batch_p50));
    json += ",\n    \"samples\": [";
    bool first = true;
    for (const auto &[k, cycles] : batch_samples) {
        json += first ? "\n" : ",\n";
        first = false;
        json += "      {\"poses\": ";
        appendNumber(json, static_cast<double>(k));
        json += ", \"us\": ";
        appendNumber(json, cyclesToUs(static_cast<double>(cycles)));
        json += "}";
    }
    json += "\n    ]\n  },\n  \"speedup_p50\": ";
    appendNumber(json, speedup);
    json += ",\n  \"final_max_delta_vs_batch_m\": ";
    appendNumber(json, worst);
    json += ",\n  \"host\": {\"incremental_replay_s\": ";
    appendNumber(json, replay_s);
    json += ", \"peak_rss_mb\": ";
    appendNumber(json, peak_rss_mb);
    json += "}\n}\n";

    std::ofstream out(out_path);
    out << json;
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());

    if (gate > 0.0) {
        if (poses < 1000) {
            std::printf("gate: skipped (%zu poses < 1000 — short "
                        "runs under-state the batch cost)\n",
                        poses);
            return 0;
        }
        if (speedup < gate) {
            std::fprintf(stderr,
                         "gate: FAIL: incremental speedup %.2fx "
                         "below the %.2fx floor\n",
                         speedup, gate);
            return 1;
        }
        std::printf("gate: OK (%.1fx >= %.1fx)\n", speedup, gate);
    }
    return 0;
}
