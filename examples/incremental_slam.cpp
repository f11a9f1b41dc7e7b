// Incremental (iSAM-style) smoothing on the accelerator path
// (DESIGN.md §13): a manhattan-world pose graph streamed frame by
// frame through the AcceleratedSmoother. Each odometry frame
// re-eliminates only the short ordering suffix the new measurements
// touch, compiled to an update program and served through the
// runtime Engine; loop closures reach deeper and relinearize-all
// frames fall back to the batch reference rung. Watch the session
// cache amortize compiles across frames that share a suffix shape.

#include <cstdio>

#include "apps/pose_graph.hpp"
#include "fg/incremental.hpp"
#include "fg/optimizer.hpp"
#include "runtime/engine.hpp"
#include "runtime/incremental.hpp"

using namespace orianna;

int
main()
{
    const apps::PoseGraphScenario scenario =
        apps::makeManhattanWorld(120, /*seed=*/5);
    std::printf("scenario %s: %zu frames, %zu loop closures\n",
                scenario.name.c_str(), scenario.frames.size(),
                scenario.loopClosureFrames());

    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    runtime::AcceleratedSmoother smoother(engine);

    std::uint64_t total_cycles = 0;
    for (std::size_t i = 0; i < scenario.frames.size(); ++i) {
        const apps::PoseGraphFrame &frame = scenario.frames[i];
        smoother.addVariable(frame.key,
                             scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        const fg::UpdateStats stats = smoother.update();
        total_cycles += smoother.stats().lastCycles;
        if (i % 20 == 0 || frame.loopClosure || stats.relinearized)
            std::printf("frame %3zu: suffix %3zu of %3zu%s%s, "
                        "%llu cycles\n",
                        i, smoother.stats().lastSuffix,
                        stats.totalVariables,
                        frame.loopClosure ? " [loop closure]" : "",
                        stats.relinearized ? " [relinearized]" : "",
                        static_cast<unsigned long long>(
                            smoother.stats().lastCycles));
    }

    const runtime::AcceleratedSmootherStats &stats = smoother.stats();
    const runtime::Engine::Stats engine_stats = engine.stats();
    std::printf("\n%zu accelerated suffix frames, %zu batch-rung "
                "frames, %zu CPU frames\n",
                stats.acceleratedFrames, stats.batchFrames,
                stats.cpuFrames);
    std::printf("sessions: %zu opened, %zu reused; engine: "
                "%zu compile(s), %zu cache hit(s)\n",
                stats.sessionsOpened, stats.sessionReuses,
                engine_stats.compiles, engine_stats.cacheHits);
    std::printf("total %llu simulated cycles (%.1f us @167MHz)\n",
                static_cast<unsigned long long>(total_cycles),
                static_cast<double>(total_cycles) / 167.0);

    // The incremental answer lands on the batch Gauss-Newton solution
    // of the same graph.
    const auto batch =
        fg::optimize(scenario.graph(), smoother.estimate());
    double worst = 0.0;
    const fg::Values estimate = smoother.estimate();
    for (fg::Key key : estimate.keys())
        worst = std::max(worst, (estimate.pose(key).t() -
                                 batch.values.pose(key).t())
                                    .norm());
    std::printf("max position delta vs batch re-solve: %.2e m\n",
                worst);
    return 0;
}
