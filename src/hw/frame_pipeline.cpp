#include "hw/frame_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "runtime/metrics.hpp"

namespace orianna::hw {

namespace {

/** One released frame of one stream. */
struct Frame
{
    std::size_t stream;
    std::size_t index;         //!< Frame number within the stream.
    std::uint64_t releaseCycle;
    std::size_t firstInstr;    //!< Global id of its first instruction.
    std::size_t instrCount;
    std::uint64_t firstIssue = 0;
    std::uint64_t finish = 0;
    std::size_t remaining = 0; //!< Unfinished instructions.
    bool started = false;      //!< First instruction has issued.
};

} // namespace

FramePipeline::FramePipeline(std::vector<PeriodicStream> streams,
                             AcceleratorConfig config)
    : streams_(std::move(streams)), config_(std::move(config))
{
    if (streams_.empty())
        throw std::invalid_argument("FramePipeline: empty workload");
    for (unsigned count : config_.units)
        if (count == 0)
            throw std::invalid_argument(
                "FramePipeline: zero-count unit kind");
    for (const PeriodicStream &stream : streams_)
        if (stream.rateHz <= 0.0)
            throw std::invalid_argument(
                "FramePipeline: rate must be positive");

    // The dependence adjacency shared by all of a stream's frames,
    // from the dependences the srcs imply.
    dependents_.resize(streams_.size());
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const comp::Program &program = *streams_[s].program;
        const std::vector<std::uint32_t> producers = program.producers();
        const auto &instrs = program.instructions;
        dependents_[s].resize(instrs.size());
        for (std::size_t j = 0; j < instrs.size(); ++j)
            comp::forEachDep(instrs[j], producers, [&](std::uint32_t dep) {
                dependents_[s][dep].push_back(
                    static_cast<std::uint32_t>(j));
            });
    }
}

PipelineResult
FramePipeline::run(double horizon_s)
{
    if (horizon_s <= 0.0)
        throw std::invalid_argument(
            "FramePipeline: horizon must be positive");

    const double f = CostModel::frequencyHz;

    // Release all frames inside the horizon.
    std::vector<Frame> frames;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const PeriodicStream &stream = streams_[s];
        const double period = 1.0 / stream.rateHz;
        for (std::size_t k = 0;; ++k) {
            const double t =
                stream.offsetS + static_cast<double>(k) * period;
            if (t >= horizon_s)
                break;
            Frame frame;
            frame.stream = s;
            frame.index = k;
            frame.releaseCycle =
                static_cast<std::uint64_t>(std::llround(t * f));
            frame.instrCount =
                stream.program->instructions.size();
            frames.push_back(frame);
        }
    }
    std::sort(frames.begin(), frames.end(),
              [](const Frame &a, const Frame &b) {
                  if (a.releaseCycle != b.releaseCycle)
                      return a.releaseCycle < b.releaseCycle;
                  return a.stream < b.stream;
              });

    // Global instruction instances.
    std::size_t total = 0;
    for (Frame &frame : frames) {
        frame.firstInstr = total;
        frame.remaining = frame.instrCount;
        total += frame.instrCount;
    }

    auto frameOf = [&](std::size_t g) -> std::size_t {
        // Frames are laid out contiguously; binary search the owner.
        std::size_t lo = 0;
        std::size_t hi = frames.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi + 1) / 2;
            if (frames[mid].firstInstr <= g)
                lo = mid;
            else
                hi = mid - 1;
        }
        return lo;
    };
    auto instruction = [&](std::size_t g) -> const comp::Instruction & {
        const Frame &frame = frames[frameOf(g)];
        return streams_[frame.stream]
            .program->instructions[g - frame.firstInstr];
    };

    std::vector<std::uint32_t> pending(total, 0);
    std::vector<bool> issued(total, false);
    for (const Frame &frame : frames)
        for (const auto &users : dependents_[frame.stream])
            for (std::uint32_t j : users)
                ++pending[frame.firstInstr + j];

    // Gate: a frame may start only after the previous frame of the
    // same stream completed.
    std::vector<std::size_t> prevFrame(frames.size(), SIZE_MAX);
    {
        std::vector<std::size_t> last(streams_.size(), SIZE_MAX);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            prevFrame[i] = last[frames[i].stream];
            last[frames[i].stream] = i;
        }
    }

    std::array<unsigned, kUnitKindCount> freeUnits = config_.units;
    using Event = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> done;

    std::array<std::uint64_t, kUnitKindCount> busy{};
    std::uint64_t now = 0;
    std::size_t issuedCount = 0;
    std::size_t frameCursor = 0; //!< First frame not yet fully done.

    auto frameEligible = [&](std::size_t fi) {
        const Frame &frame = frames[fi];
        if (frame.releaseCycle > now)
            return false;
        if (prevFrame[fi] != SIZE_MAX &&
            frames[prevFrame[fi]].remaining > 0)
            return false;
        if (!config_.outOfOrder) {
            // Blocking in-order controller: drain frames strictly in
            // release order.
            for (std::size_t e = frameCursor; e < fi; ++e)
                if (frames[e].remaining > 0)
                    return false;
        }
        return true;
    };

    auto tryIssue = [&](std::size_t g) -> bool {
        if (issued[g] || pending[g] != 0)
            return false;
        const std::size_t fi = frameOf(g);
        if (!frameEligible(fi))
            return false;
        const comp::Instruction &inst = instruction(g);
        const UnitKind kind = unitFor(inst.op);
        if (freeUnits[static_cast<std::size_t>(kind)] == 0)
            return false;
        if (!config_.outOfOrder) {
            // Within a frame: blocking sequential issue.
            const std::size_t local = g - frames[fi].firstInstr;
            if (local > 0 && frames[fi].remaining !=
                                 frames[fi].instrCount - local)
                return false;
        }
        --freeUnits[static_cast<std::size_t>(kind)];
        issued[g] = true;
        ++issuedCount;
        Frame &frame = frames[fi];
        if (!frame.started) {
            frame.started = true;
            frame.firstIssue = now;
        }
        const std::uint64_t latency = CostModel::latency(
            inst, streams_[frame.stream].program->precision);
        busy[static_cast<std::size_t>(kind)] += latency;
        done.emplace(now + latency, g);
        return true;
    };

    while (issuedCount < total || !done.empty()) {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            // Scan unissued instructions of eligible frames,
            // oldest-first. (Frames are release-sorted.)
            for (std::size_t fi = frameCursor; fi < frames.size();
                 ++fi) {
                Frame &frame = frames[fi];
                if (frame.remaining == 0)
                    continue;
                if (frame.releaseCycle > now)
                    break; // Later frames release even later.
                for (std::size_t j = 0; j < frame.instrCount; ++j) {
                    const std::size_t g = frame.firstInstr + j;
                    if (!issued[g] && tryIssue(g))
                        progressed = true;
                }
                if (!config_.outOfOrder)
                    break; // One frame at a time.
            }
        }

        if (done.empty()) {
            // Advance to the next frame release.
            std::uint64_t next = UINT64_MAX;
            for (std::size_t fi = frameCursor; fi < frames.size();
                 ++fi)
                if (frames[fi].remaining > 0)
                    next = std::min(next, frames[fi].releaseCycle);
            if (next == UINT64_MAX)
                break;
            now = std::max(now, next);
            continue;
        }

        const auto [when, g] = done.top();
        done.pop();
        now = std::max(now, when);
        ++freeUnits[static_cast<std::size_t>(
            unitFor(instruction(g).op))];
        Frame &frame = frames[frameOf(g)];
        if (--frame.remaining == 0)
            frame.finish = when;
        const std::size_t local = g - frame.firstInstr;
        for (std::uint32_t user : dependents_[frame.stream][local])
            --pending[frame.firstInstr + user];
        while (frameCursor < frames.size() &&
               frames[frameCursor].remaining == 0)
            ++frameCursor;
    }

    PipelineResult result;
    result.cycles = now;
    result.streams.resize(streams_.size());
    const bool metrics_on = runtime::MetricsRegistry::enabled();
    for (const Frame &frame : frames) {
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
    std::uint64_t hottest = 0;
    for (std::uint64_t b : busy)
        hottest = std::max(hottest, b);
    result.utilization =
        now == 0 ? 0.0
                 : static_cast<double>(hottest) /
                       static_cast<double>(now);
    for (StreamStats &stats : result.streams) {
        if (stats.frames > 0) {
            stats.meanLatencyS /= static_cast<double>(stats.frames);
            stats.meanWaitS /= static_cast<double>(stats.frames);
        }
    }
    return result;
}

} // namespace orianna::hw
