#include "hw/frame_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"

namespace orianna::hw {

namespace {

/** One released frame of one stream. */
struct Frame
{
    std::size_t stream;
    std::uint64_t releaseCycle;
    std::uint64_t firstIssue = UINT64_MAX;
    std::uint64_t finish = 0;
};

} // namespace

FramePipeline::FramePipeline(std::vector<PeriodicStream> streams,
                             AcceleratorConfig config)
    : streams_(std::move(streams)), config_(std::move(config))
{
    if (streams_.empty())
        throw std::invalid_argument("FramePipeline: empty workload");
    for (const PeriodicStream &stream : streams_) {
        if (!std::isfinite(stream.rateHz) || stream.rateHz <= 0.0)
            throw std::invalid_argument(
                "FramePipeline: rate must be finite and positive");
        if (!std::isfinite(stream.offsetS) || stream.offsetS < 0.0)
            throw std::invalid_argument(
                "FramePipeline: offset must be finite and non-negative");
    }
}

PipelineResult
FramePipeline::run(double horizon_s) const
{
    if (!std::isfinite(horizon_s) || horizon_s <= 0.0)
        throw std::invalid_argument(
            "FramePipeline: horizon must be finite and positive");

    const double f = CostModel::frequencyHz;

    // Release all frames inside the horizon, in release order (stream
    // order on ties).
    std::vector<Frame> frames;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const PeriodicStream &stream = streams_[s];
        const double period = 1.0 / stream.rateHz;
        for (std::size_t k = 0;; ++k) {
            const double t =
                stream.offsetS + static_cast<double>(k) * period;
            if (t >= horizon_s)
                break;
            frames.push_back(
                {s, static_cast<std::uint64_t>(std::llround(t * f))});
        }
    }
    std::stable_sort(frames.begin(), frames.end(),
                     [](const Frame &a, const Frame &b) {
                         return a.releaseCycle < b.releaseCycle;
                     });

    // Schedule every frame as one work item; each waits for the
    // previous frame of its stream.
    std::vector<const comp::Program *> programs;
    std::vector<runtime::Release> releases;
    std::vector<std::size_t> base{0};
    std::vector<std::uint32_t> last(streams_.size(),
                                    runtime::Release::kNone);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const comp::Program *program = streams_[frames[i].stream].program;
        programs.push_back(program);
        releases.push_back(
            {frames[i].releaseCycle, last[frames[i].stream]});
        last[frames[i].stream] = static_cast<std::uint32_t>(i);
        base.push_back(base.back() + program->instructions.size());
    }
    const auto plan =
        runtime::ExecutionContext::schedule(programs, config_, releases);

    for (const runtime::FramePlan::Issue &issue : plan->issues) {
        const std::size_t i = static_cast<std::size_t>(
            std::upper_bound(base.begin(), base.end(), issue.g) -
            base.begin() - 1);
        const comp::Program &program = *programs[i];
        Frame &frame = frames[i];
        frame.firstIssue = std::min(frame.firstIssue, issue.start);
        frame.finish = std::max(
            frame.finish,
            issue.start +
                CostModel::latency(program.instructions[issue.g - base[i]],
                                   program.precision));
    }

    PipelineResult result;
    result.cycles = plan->totals.cycles;
    result.streams.resize(streams_.size());
    const bool metrics_on = runtime::MetricsRegistry::enabled();
    for (Frame &frame : frames) {
        if (frame.firstIssue == UINT64_MAX) // An empty program.
            frame.firstIssue = frame.finish = frame.releaseCycle;
        StreamStats &stats = result.streams[frame.stream];
        const double latency =
            static_cast<double>(frame.finish - frame.releaseCycle) / f;
        const double wait =
            static_cast<double>(frame.firstIssue - frame.releaseCycle) /
            f;
        ++stats.frames;
        stats.meanLatencyS += latency;
        stats.meanWaitS += wait;
        stats.maxLatencyS = std::max(stats.maxLatencyS, latency);
        const bool missed =
            latency > 1.0 / streams_[frame.stream].rateHz;
        if (missed)
            ++stats.deadlineMisses;
        if (metrics_on) {
            // Model-time frame latency/wait: the per-stage visibility
            // of the rate-aware pipeline (p50/p99 via the registry).
            auto &metrics = runtime::MetricsRegistry::global();
            metrics.histogram("pipeline.frame_latency_us")
                .observe(static_cast<std::uint64_t>(latency * 1e6));
            metrics.histogram("pipeline.frame_wait_us")
                .observe(static_cast<std::uint64_t>(wait * 1e6));
            metrics.counter("pipeline.frames").add();
            if (missed)
                metrics.counter("pipeline.deadline_misses").add();
        }
    }
    // The busiest unit's share: busy cycles of a kind over the cycles
    // all of its instances had.
    if (result.cycles > 0)
        for (std::size_t k = 0; k < kUnitKindCount; ++k)
            result.utilization = std::max(
                result.utilization,
                static_cast<double>(plan->totals.unitBusyCycles[k]) /
                    (static_cast<double>(result.cycles) *
                     static_cast<double>(config_.units[k])));
    for (StreamStats &stats : result.streams) {
        if (stats.frames > 0) {
            stats.meanLatencyS /= static_cast<double>(stats.frames);
            stats.meanWaitS /= static_cast<double>(stats.frames);
        }
    }
    return result;
}

} // namespace orianna::hw
