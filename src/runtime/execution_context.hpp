#pragma once

#include <array>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "hw/accelerator.hpp"
#include "hw/fault_injection.hpp"
#include "runtime/scheduler.hpp"

namespace orianna::runtime {

/**
 * Reusable per-frame execution state for a fixed set of compiled
 * programs (the work items of one accelerator frame).
 *
 * The context is the long-lived half of the engine/session split: it
 * is built once per program set and then drives any number of frames
 * without re-deriving schedule inputs. Construction precomputes
 * everything that depends only on the programs —
 *
 *   - the flattened global instruction order and per-work-item bases,
 *   - the dependence graph (static producer counts plus a CSR
 *     dependents adjacency),
 *   - per-instruction unit kinds, latencies, compute energies and
 *     word counts from the cost model,
 *   - one comp::Executor per work item with its slot arena sized to
 *     the program's value table;
 *
 * while run() only touches preallocated scratch vectors (pending
 * counts, issue/done flags, unit pools, the per-kind issue queues,
 * the completion-event heap), so the steady-state frame loop performs
 * no per-frame rebuild of any of this. Executor slot arenas are kept
 * warm between frames: compiled programs write every slot before
 * reading it (producers precede consumers in the dependence graph),
 * so stale values from the previous frame are never observed, and
 * matrix results are written into the slot's existing storage.
 *
 * The issue queues hold every data-ready, unissued instruction of one
 * functional-unit kind, oldest first. Only queue heads are marked
 * ready to the scheduling policy (scheduler.hpp, protocol step 2),
 * and run() throws std::logic_error on a pick that is not a head.
 *
 * Values are rebound per frame (bindValues), which is what lets one
 * context serve successive Gauss-Newton iterations and successive
 * frames of a client stream.
 */
class ExecutionContext
{
  public:
    /** Bind programs and initial values from accelerator work items. */
    explicit ExecutionContext(const std::vector<hw::WorkItem> &work);

    /** Bind programs only; call bindValues before run(). */
    explicit ExecutionContext(
        std::vector<const comp::Program *> programs);

    std::size_t workCount() const { return programs_.size(); }

    /** Total instructions across all bound programs. */
    std::size_t instructionCount() const { return orderWork_.size(); }

    /** Rebind the values of work item @p item for subsequent frames. */
    void bindValues(std::size_t item, const fg::Values *values);

    /**
     * Arm the hardware fault-injection harness for subsequent run()
     * calls: @p injector (borrowed, may be nullptr to disarm) decides
     * per issued instruction, keyed by @p frame / @p attempt so a
     * retry of the same frame rolls fresh fault outcomes. The injected
     * faults land in SimResult::faultsInjected / faultsByKind.
     */
    void armFaults(const hw::FaultInjector *injector,
                   std::uint64_t frame, std::uint64_t attempt);

    /**
     * Run one frame (every program executed once) under @p config with
     * the context's built-in scheduler for the config's dispatch mode.
     */
    hw::SimResult run(const hw::AcceleratorConfig &config);

    /** Same, with a caller-supplied scheduling policy. */
    hw::SimResult run(const hw::AcceleratorConfig &config,
                      Scheduler &scheduler);

  private:
    struct IssueView;

    void buildStatic();

    // --- Immutable after construction (per program set) -------------
    std::vector<const comp::Program *> programs_;
    std::vector<const fg::Values *> values_;
    /** Global index -> (work item, local instruction index). */
    std::vector<std::uint32_t> orderWork_;
    std::vector<std::uint32_t> orderIndex_;
    std::vector<std::size_t> base_; //!< First global index per item.
    std::vector<std::uint32_t> depCount_; //!< Static producer counts.
    /** CSR dependents adjacency over global indices. */
    std::vector<std::uint32_t> dependentsBegin_;
    std::vector<std::uint32_t> dependents_;
    std::vector<std::uint8_t> unitKind_;
    std::vector<std::uint64_t> latency_;
    std::vector<double> dynamicNj_;
    std::vector<std::uint64_t> words_;
    /** Per-work-item memory-energy scale (0.5 for fp32 programs). */
    std::vector<double> wordEnergyScale_;
    /**
     * One interpreter per work item, instantiated at the precision the
     * program is tagged with (DESIGN.md §12): fp64 programs run the
     * double interpreter, fp32 programs the float one.
     */
    std::vector<std::variant<comp::Executor, comp::Executor32>>
        executors_;
    std::unique_ptr<Scheduler> outOfOrder_;
    std::unique_ptr<Scheduler> inOrder_;

    // --- Fault-injection arming (rebound per frame attempt) ----------
    const hw::FaultInjector *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
    std::uint64_t faultAttempt_ = 0;

    // --- Per-frame scratch, reset in place by run() ------------------
    std::vector<std::uint32_t> pending_;
    std::vector<std::uint64_t> finishCycle_;
    std::vector<std::uint8_t> issued_;
    std::vector<std::uint8_t> done_;
    std::vector<unsigned> assignedInstance_;
    /** Data-ready, unissued instructions per kind (min-heaps by age). */
    std::array<std::vector<std::uint32_t>, hw::kUnitKindCount>
        readyByKind_;
    /** Already passed to Scheduler::markReady this frame. */
    std::vector<std::uint8_t> marked_;
    std::array<std::vector<unsigned>, hw::kUnitKindCount> freeInstances_;
    /** Per-(kind, instance) busy cycles, flushed to metrics. */
    std::array<std::vector<std::uint64_t>, hw::kUnitKindCount>
        instanceBusy_;
    /** Min-heap of (finish cycle, global index) completions. */
    std::vector<std::pair<std::uint64_t, std::size_t>> events_;
};

} // namespace orianna::runtime
