#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hw/trace.hpp"

namespace orianna::runtime {

/** One runtime-side span on a session track (session/frame/stage). */
struct RuntimeSpan
{
    std::string name;     //!< "session", "frame 3", "simulate", ...
    std::string category; //!< Span level: session / frame / stage.
    std::uint64_t track = 0; //!< Session track the span belongs to.
    std::uint64_t startUs = 0;
    std::uint64_t durUs = 0;
};

/**
 * Unified trace sink of the serving stack: collects runtime spans
 * (session -> frame -> stage, on wall-clock microseconds) and the
 * per-unit hardware schedules of individual frames (cycle-accurate,
 * anchored at the wall-clock start of their frame's simulate stage),
 * and writes them as one Chrome/Perfetto JSON. Each session becomes
 * one thread track in a "runtime" process with its frames and stages
 * nested by time inclusion, and each session additionally owns a
 * hardware process whose rows are the functional-unit instances — so
 * a served frame is visible from the API call down to systolic-array
 * occupancy in a single timeline.
 *
 * Collection is off by default (setEnabled), cheap to leave compiled
 * in: every producer checks enabled() — one relaxed load — before
 * building any span. Producers push under a mutex; frames are
 * millisecond-scale, so the sink is nowhere near the hot path.
 */
class TraceCollector
{
  public:
    static TraceCollector &global();

    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop every collected span and hardware frame. */
    void clear();

    /** Open a session track; @p label names its timeline row. */
    std::uint64_t openTrack(const std::string &label);

    void addSpan(std::uint64_t track, std::string name,
                 std::string category, std::uint64_t start_us,
                 std::uint64_t dur_us);

    /**
     * Attach one frame's hardware schedule to @p track, anchored at
     * wall-clock @p anchor_us (the frame's simulate-stage start);
     * @p units sizes the instance rows.
     */
    void addHwFrame(std::uint64_t track, std::uint64_t anchor_us,
                    std::vector<hw::TraceEvent> events,
                    const std::array<unsigned, hw::kUnitKindCount>
                        &units);

    /** Snapshot of the runtime spans (tests, exporters). */
    std::vector<RuntimeSpan> spans() const;

    /** Total hardware events attached so far. */
    std::size_t hwEventCount() const;

    /**
     * Write everything collected so far as Chrome trace JSON
     * (load in https://ui.perfetto.dev).
     *
     * @throws std::runtime_error when the file cannot be written.
     */
    void write(const std::string &path,
               double frequency_hz = hw::CostModel::frequencyHz) const;

  private:
    struct HwFrame
    {
        std::uint64_t track = 0;
        std::uint64_t anchorUs = 0;
        std::array<unsigned, hw::kUnitKindCount> units{};
        std::vector<hw::TraceEvent> events;
    };

    mutable std::mutex mutex_;
    std::vector<std::string> trackLabels_;
    std::vector<RuntimeSpan> spans_;
    std::vector<HwFrame> hwFrames_;

    static std::atomic<bool> enabled_;
};

} // namespace orianna::runtime
