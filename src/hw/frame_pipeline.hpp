#pragma once

#include <vector>

#include "hw/accelerator.hpp"

namespace orianna::hw {

/**
 * One periodic algorithm stream feeding the accelerator: a compiled
 * program re-executed at a fixed rate (the localization / planning /
 * control frequencies of Sec. 6.3, e.g. control at 100 Hz but
 * planning at 2 Hz in an industrial manipulator).
 */
struct PeriodicStream
{
    const comp::Program *program;
    double rateHz = 10.0;
    /** Phase offset of the first frame release, in seconds. */
    double offsetS = 0.0;
};

/** Latency statistics of one stream over a pipeline run. */
struct StreamStats
{
    std::size_t frames = 0;
    double meanLatencyS = 0.0;
    double maxLatencyS = 0.0;  //!< The long-tail metric of Sec. 6.2.
    double meanWaitS = 0.0;    //!< Queueing before first issue.
    std::size_t deadlineMisses = 0; //!< Latency beyond the period.
};

/** Outcome of a pipeline simulation. */
struct PipelineResult
{
    std::vector<StreamStats> streams; //!< One per input stream.
    std::uint64_t cycles = 0;         //!< Total simulated horizon.
    /**
     * Busy-cycle share of the busiest unit: the largest
     * busy_k / (cycles * units_k) over unit kinds k.
     */
    double utilization = 0.0;
};

/**
 * Rate-aware multi-frame simulation: release frames of every stream
 * periodically over a horizon and schedule them all on one
 * accelerator. A frame's instructions only become eligible at its
 * release time; out-of-order configurations interleave frames of
 * different algorithms (coarse-grained OoO), in-order configurations
 * drain frames strictly in release order.
 *
 * The pipeline models timing only: it computes no values. run()
 * schedules the released frames as the work items of one frame
 * through runtime::ExecutionContext::schedule, the issue loop every
 * other figure uses, with one runtime::Release per frame: its release
 * cycle, and the previous frame of its stream, which it waits for.
 * Each frame's latency is read back from the returned plan.
 *
 * This is the experiment behind the paper's claim that one shared
 * ORIANNA accelerator sustains an application whose algorithms run at
 * very different frequencies, with frame latencies comparable to
 * dedicated per-algorithm hardware (Sec. 6.3).
 */
class FramePipeline
{
  public:
    /**
     * Throws std::invalid_argument on an empty workload, a rate that
     * is not finite and positive, or an offset that is not finite and
     * non-negative.
     */
    FramePipeline(std::vector<PeriodicStream> streams,
                  AcceleratorConfig config);

    /**
     * Simulate @p horizon_s seconds (finite, positive) of periodic
     * frame releases.
     */
    PipelineResult run(double horizon_s) const;

  private:
    std::vector<PeriodicStream> streams_;
    AcceleratorConfig config_;
};

} // namespace orianna::hw
