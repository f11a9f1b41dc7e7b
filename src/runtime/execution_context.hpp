#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "hw/accelerator.hpp"
#include "hw/fault_injection.hpp"
#include "runtime/scheduler.hpp"

namespace orianna::runtime {

/**
 * The schedule of one frame, separated from its numerics: which
 * instruction issued when, on which unit instance, and everything the
 * frame reports that does not depend on values. For one program set
 * and one accelerator configuration the scheduler picks the same
 * order every clean frame (only an armed fault injector changes it),
 * so one plan serves every clean frame of every context over those
 * programs. A plan is immutable once built and shared read-only
 * between threads.
 */
struct FramePlan
{
    /** One issued instruction, in issue order (16 bytes). */
    struct Issue
    {
        std::uint32_t g;        //!< Global instruction index.
        std::uint32_t instance; //!< Unit instance it issued to.
        std::uint64_t start;    //!< Issue cycle.
    };

    /** An injected fault on one issue (fault-armed frames only). */
    struct Fault
    {
        std::uint32_t position;    //!< Index into issues.
        std::uint32_t victim;      //!< Slot poisoned when corrupt.
        bool corrupt;              //!< Poison victim after the step.
        std::uint64_t extraCycles; //!< Stall/spike latency added.
    };

    /** Configuration the schedule holds for (recordTrace aside). */
    std::array<unsigned, hw::kUnitKindCount> units{};
    bool outOfOrder = true;

    std::vector<Issue> issues;
    std::vector<Fault> faults; //!< Ascending position.

    /** Frame totals: every SimResult field but deltas and trace. */
    hw::SimResult totals;

    bool
    matches(const hw::AcceleratorConfig &config) const
    {
        return units == config.units && outOfOrder == config.outOfOrder;
    }
};

/**
 * When one work item of a scheduled frame may start: it issues
 * nothing before @c cycle, nor before the earlier work item @c after
 * has finished. Work items without a release start at cycle 0.
 */
struct Release
{
    static constexpr std::uint32_t kNone = UINT32_MAX;

    std::uint64_t cycle = 0;
    std::uint32_t after = kNone;
};

/**
 * Reusable per-frame execution state for a fixed set of compiled
 * programs (the work items of one accelerator frame).
 *
 * A frame runs in two steps. The *schedule* step is the Sec. 6.3
 * issue loop — scheduling policy, per-kind issue queues, completion
 * heap, fault decisions — with no numerics; it yields a FramePlan.
 * It is the one such loop: hw::FramePipeline schedules its released
 * frames through it as the work items of one frame (Release).
 * The *numerics* step then runs comp::Executor::step over the plan's
 * issue order and poisons each corrupt-fault victim right after its
 * instruction. Programs are SSA, so any dependence-respecting order
 * computes the same values; running the recorded order keeps live
 * and replayed frames on the identical step sequence.
 *
 * A frame replays a plan (numerics only) when no fault injector is
 * armed, no caller-supplied Scheduler is passed, and the context
 * holds a plan matching the config. It holds one after its first
 * clean frame, or from construction when handed a shared plan
 * (Engine::plan). Otherwise the frame runs live: the schedule step
 * builds its static tables on first use — per-instruction unit
 * kinds, latencies, energies, word counts and the CSR dependents
 * adjacency — and reuses its scratch between live frames.
 *
 * The issue queues hold every data-ready, unissued instruction of one
 * functional-unit kind, oldest first. Only queue heads are marked
 * ready to the scheduling policy (scheduler.hpp, protocol step 2),
 * and run() throws std::logic_error on a pick that is not a head.
 *
 * Executor slot arenas are sized at construction and kept warm
 * between frames: compiled programs write every slot before reading
 * it, so stale values from the previous frame are never observed.
 * Values are rebound per frame (bindValues), which is what lets one
 * context serve successive Gauss-Newton iterations and successive
 * frames of a client stream.
 */
class ExecutionContext
{
  public:
    /**
     * Bind programs and initial values from accelerator work items.
     * @p plan (may be null) is a shared plan over the same programs.
     */
    explicit ExecutionContext(
        const std::vector<hw::WorkItem> &work,
        std::shared_ptr<const FramePlan> plan = nullptr);

    /** Bind programs only; call bindValues before run(). */
    explicit ExecutionContext(
        std::vector<const comp::Program *> programs,
        std::shared_ptr<const FramePlan> plan = nullptr);

    ~ExecutionContext();
    ExecutionContext(ExecutionContext &&) noexcept;
    ExecutionContext &operator=(ExecutionContext &&) noexcept;

    /** Total instructions across all bound programs. */
    std::size_t instructionCount() const { return base_.back(); }

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
     * the context's built-in scheduler for the config's dispatch mode,
     * replaying the context's plan when it can.
     */
    hw::SimResult run(const hw::AcceleratorConfig &config);

    /** Same, always live, with a caller-supplied scheduling policy. */
    hw::SimResult run(const hw::AcceleratorConfig &config,
                      Scheduler &scheduler);

    /** The plan clean frames replay, or null before there is one. */
    const std::shared_ptr<const FramePlan> &plan() const
    {
        return plan_;
    }

    /**
     * Schedule one clean frame of @p programs under @p config with
     * the built-in scheduler, without numerics or values. @p releases
     * is empty or holds one Release per program; it throws
     * std::invalid_argument on any other size or on an @c after that
     * is not an earlier work item.
     */
    static std::shared_ptr<const FramePlan>
    schedule(std::vector<const comp::Program *> programs,
             const hw::AcceleratorConfig &config,
             const std::vector<Release> &releases = {});

  private:
    struct Live;

    hw::SimResult frame(const hw::AcceleratorConfig &config,
                        Scheduler *scheduler);
    Live &live();
    void numerics(const FramePlan &plan);
    std::vector<hw::TraceEvent> traceEvents(const FramePlan &plan) const;
    hw::SimResult finish(const FramePlan &plan,
                         const hw::AcceleratorConfig &config,
                         bool replayed) const;

    std::vector<const comp::Program *> programs_;
    std::vector<const fg::Values *> values_;
    /** First global index per work item, plus the total at the end. */
    std::vector<std::size_t> base_;
    /**
     * One interpreter per work item, instantiated at the precision the
     * program is tagged with (DESIGN.md §12): fp64 programs run the
     * double interpreter, fp32 programs the float one.
     */
    std::vector<std::variant<comp::Executor, comp::Executor32>>
        executors_;

    std::shared_ptr<const FramePlan> plan_;
    /** Static tables and scratch of the schedule step (lazy). */
    std::unique_ptr<Live> live_;
    /** Per-frame plan of fault-armed and caller-scheduled frames. */
    FramePlan scratch_;

    // --- Fault-injection arming (rebound per frame attempt) ----------
    const hw::FaultInjector *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
    std::uint64_t faultAttempt_ = 0;
};

} // namespace orianna::runtime
