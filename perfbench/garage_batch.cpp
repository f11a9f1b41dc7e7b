// garage_batch: Gauss-Newton frames on the 120-pose parking-garage
// graph through runtime::Engine / Session. Compile-free in the timed
// phase: the graph is compiled in setup, and each episode re-opens a
// session on it (a cache hit) and steps it from the initial values.

#include <cstdio>
#include <memory>
#include <optional>

#include "apps/pose_graph.hpp"
#include "common.hpp"
#include "compiler/executor.hpp"
#include "fg/optimizer.hpp"
#include "hw/cost_model.hpp"
#include "layers.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

namespace apps = orianna::apps;
namespace fg = orianna::fg;
namespace hw = orianna::hw;
namespace runtime = orianna::runtime;

namespace {

// The committed garage_lite scale: 5 laps x 24 poses.
constexpr std::size_t kLaps = 5;
constexpr std::size_t kPerLap = 24;
// Gauss-Newton frames per episode. The graph converges in four, so
// every episode runs the same 9230-instruction frame to a fixed point.
constexpr std::size_t kFramesPerEpisode = 5;
// Episodes per requested second (about 70 ms each on the reference
// core: one session open plus five ~14 ms frames).
constexpr double kEpisodesPerSecond = 20.0;
constexpr int kSetups = 5;

} // namespace

Result
runGarageBatch(const Options &options, HostClock &clock)
{
    Result result;
    Ledger ledger;
    const unsigned world_seed =
        static_cast<unsigned>(mix(options.seed) % 1000000u) + 1u;
    const hw::AcceleratorConfig config = hw::AcceleratorConfig::minimal(true);
    const CompileTotals run_start =
        CompileTotals::fromMetricsJson(runtime::Engine::metricsJson());

    // --- Setup, several times; the last engine is kept -------------
    apps::PoseGraphScenario scenario;
    std::unique_ptr<runtime::Engine> engine;
    std::shared_ptr<const orianna::comp::Program> program;
    std::vector<Span> setups;
    for (int s = 0; s < kSetups; ++s) {
        clock.probe();
        const Clock::time_point start = Clock::now();
        scenario = apps::makeGarageWorld(kLaps, kPerLap, world_seed);
        const fg::FactorGraph graph = scenario.graph();
        const Span build = spanFrom(start);
        engine = makeEngine(config);
        program = engine->program(graph, scenario.initial, 0, "garage");
        runtime::Session warm = engine->session(graph, scenario.initial);
        warm.step();
        warm.step();
        setups.push_back(spanFrom(start));
        clock.probe();
        ledger["apps.build_ms"] = clock.ms(build);
    }
    std::fprintf(stderr, "inputs garage_batch %016llx\n",
                 static_cast<unsigned long long>(
                     valuesDigest(scenario.initial)));

    // --- Timed phase -----------------------------------------------
    const std::size_t episodes =
        workUnits(options, kEpisodesPerSecond, 2);
    std::vector<Span> frames;
    std::vector<Span> submits;
    double cycles = 0.0;
    std::vector<std::uint64_t> digests;
    fg::Values final_values;
    const Clock::time_point phase_start = Clock::now();
    for (std::size_t e = 0; e < episodes; ++e) {
        clock.maybeProbe();
        ++result.attempted;
        std::optional<runtime::Session> session;
        const Clock::time_point start = Clock::now();
        try {
            session.emplace(engine->session(scenario.graph(),
                                            scenario.initial, 1.0, 0,
                                            "garage"));
        } catch (const std::exception &error) {
            result.fail(std::string("submit: ") + error.what());
            continue;
        }
        submits.push_back(spanFrom(start));
        bool ok = true;
        for (std::size_t f = 0; f < kFramesPerEpisode && ok; ++f) {
            clock.maybeProbe();
            ++result.attempted;
            const Clock::time_point frame_start = Clock::now();
            try {
                const hw::SimResult frame = session->step();
                frames.push_back(spanFrom(frame_start));
                cycles += static_cast<double>(frame.cycles);
            } catch (const std::exception &error) {
                result.fail(std::string("frame: ") + error.what());
                ok = false;
            }
        }
        if (ok) {
            digests.push_back(valuesDigest(session->values()));
            final_values = session->values();
        }
    }
    const Clock::time_point phase_end = Clock::now();
    clock.probe();
    const double peak_rss = peakRssMb();

    // --- Checks ----------------------------------------------------
    // The fp64 contract: a session's values are bit-identical to a
    // comp::applyProgramStep replay of the same frames.
    fg::Values replay = scenario.initial;
    for (std::size_t f = 0; f < kFramesPerEpisode; ++f)
        replay = orianna::comp::applyProgramStep(*program, replay);
    const std::uint64_t expected = valuesDigest(replay);
    for (std::uint64_t digest : digests)
        if (digest != expected)
            result.fail("episode values differ from the "
                        "applyProgramStep replay");
    const fg::OptimizeResult reference =
        fg::optimize(scenario.graph(), scenario.initial);
    const double pos_err = final_values.size() > 0
                               ? positionErrorM(final_values,
                                                reference.values)
                               : 1.0;

    std::vector<double> setup_s;
    for (const Span &s : setups)
        setup_s.push_back(clock.seconds(s));
    std::vector<double> frame_ms;
    for (const Span &s : frames)
        frame_ms.push_back(clock.ms(s));
    std::vector<double> submit_ms;
    for (const Span &s : submits)
        submit_ms.push_back(clock.ms(s));
    clock.printSpans("setup", setups);
    clock.printSpans("frame", frames);
    clock.printSpans("submit", submits);
    std::fprintf(stderr, "host frames/s: %.2f (raw %.2f)\n",
                 frames.size() / clock.phaseSeconds(phase_start, phase_end),
                 frames.size() /
                     clock.phaseSeconds(phase_start, phase_end, true));

    if (!options.trace) {
        result.set("setup_s", quantile(setup_s, 0.5), "s");
        result.set("frames_per_s",
                   static_cast<double>(frames.size()) /
                       clock.phaseSeconds(phase_start, phase_end),
                   "1/s");
        result.set("frame_p50_ms", quantile(frame_ms, 0.5), "ms");
        result.set("frame_p90_ms", quantile(frame_ms, 0.9), "ms");
        result.set("submit_p50_ms", quantile(submit_ms, 0.5), "ms");
        result.set("submit_p90_ms", quantile(submit_ms, 0.9), "ms");
        result.set("modeled_us_per_frame",
                   cycles / static_cast<double>(frames.size()) /
                       hw::CostModel::frequencyHz * 1e6,
                   "modeled-us");
        result.set("peak_rss_mb", peak_rss, "MB");
        result.set("pos_err_m", pos_err, "m");
        return result;
    }

    // --- Traced phase ----------------------------------------------
    FrameLayers traced;
    for (std::size_t e = 0; e < episodes; ++e) {
        const FrameLayers layers =
            traceFrames(*program, scenario.initial, 1.0, config,
                        kFramesPerEpisode, clock);
        addFrameLayers(ledger, layers, 1.0 / episodes);
        traced.frameMs += layers.frameMs / episodes;
    }
    const CompileTotals totals =
        CompileTotals::fromMetricsJson(runtime::Engine::metricsJson()) -
        run_start;
    addCompileLayers(ledger, totals, clock.slowdown(),
                     engine->compileLog());
    ledger["session.open_ms"] = mean(submit_ms);
    ledger["trace.overhead_pct"] =
        100.0 * (traced.frameMs / mean(frame_ms) - 1.0);
    ledger["host.slowdown"] = clock.slowdown();
    ledger.emit(result);
    return result;
}

} // namespace perfbench
