#pragma once

#include <string>
#include <vector>

#include "hw/accelerator.hpp"

namespace orianna::hwgen {

using hw::AcceleratorConfig;
using hw::Resources;
using hw::SimResult;
using hw::UnitKind;
using hw::WorkItem;

/** What the constraint-driven generator optimizes (Sec. 6.2). */
enum class Objective : std::uint8_t {
    AvgLatency, //!< Mean frame latency across the work items.
    MaxLatency, //!< Worst-case (long-tail) frame latency.
    Energy,     //!< Total frame energy.
};

/** One explored design point, for the Fig. 19/20 sweeps. */
struct DesignPoint
{
    AcceleratorConfig config;
    SimResult result;
    Resources resources;
};

/** Outcome of generate(). */
struct GenerationResult
{
    AcceleratorConfig config;   //!< The selected design.
    SimResult result;           //!< Its simulated frame.
    std::vector<DesignPoint> trajectory; //!< Greedy steps taken.
    /**
     * Aggregated opcode histogram (indexed by IsaOp, length
     * comp::kIsaOpCount) of the instruction streams the design was
     * sized against. Since the generator sees post-pipeline programs,
     * fused opcodes (GSCALE, MVSUB) show up here — the histogram
     * records exactly the instruction mix the unit counts answer to.
     */
    std::vector<std::size_t> opHistogram;
};

/**
 * Constraint-based hardware optimization (Equ. 5): starting from one
 * instance of every unit template, greedily replicate the unit that
 * best improves the objective on the *simulated critical path*, while
 * the resource bound R* holds. After every addition the workload is
 * re-simulated, which re-evaluates the critical path exactly as
 * Sec. 6.2 describes.
 *
 * Each candidate is evaluated by scheduling one frame of the work on
 * it (runtime::ExecutionContext::schedule: the issue loop, no
 * numerics), so the results carry the frame totals but no deltas.
 * Candidates are evaluated in unit-kind order, which is also the
 * tie-break among equally good ones.
 *
 * @param work      the application's compiled programs (all
 *                  algorithms) bound to representative values.
 * @param budget    maximum on-chip resources R*.
 * @param objective what to minimize.
 */
GenerationResult generate(const std::vector<WorkItem> &work,
                          const Resources &budget,
                          Objective objective = Objective::AvgLatency,
                          bool out_of_order = true);

/**
 * A fixed manual design point, used as the hand-tuned comparison in
 * Fig. 19/20: resources are split evenly across unit kinds (the
 * "stack hardware until the budget is gone, without workload
 * feedback" strategy).
 */
AcceleratorConfig manualDesign(const Resources &budget,
                               bool out_of_order = true);

/** Objective value of a simulated frame. */
double objectiveValue(const SimResult &result, Objective objective);

} // namespace orianna::hwgen
