#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace orianna::runtime {

/** Returned by Scheduler::pick when nothing can issue this cycle. */
constexpr std::size_t kNoInstruction = static_cast<std::size_t>(-1);

/**
 * Engine-side facts a scheduling policy consults while picking
 * instructions. Instructions are identified by their global index in
 * the flattened (work-item-concatenated) program order; lower index
 * means older in program order.
 */
class IssueContext
{
  public:
    virtual ~IssueContext() = default;

    /** Number of instructions in the frame. */
    virtual std::size_t total() const = 0;

    /** All producers of @p g have completed. */
    virtual bool dataReady(std::size_t g) const = 0;

    /** A free instance of @p g's functional-unit kind exists. */
    virtual bool unitFree(std::size_t g) const = 0;

    /** @p g has finished executing. */
    virtual bool completed(std::size_t g) const = 0;
};

/**
 * Issue policy of the accelerator controller (Sec. 6.3), extracted
 * from the cycle-level simulation loop so it is pluggable and
 * unit-testable in isolation from the numerics and the cost model.
 *
 * Protocol, driven by the execution engine each frame:
 *   1. reset(total) once at frame start;
 *   2. markReady(g) when g becomes the oldest data-ready, unissued
 *      instruction of its functional-unit kind — the head of that
 *      kind's issue queue. The engine keeps one age-ordered queue
 *      per kind (the hardware's per-unit arbitration) and marks the
 *      next instruction in a queue once its head issues. A head
 *      displaced by an older arrival stays marked, and nothing is
 *      marked twice;
 *   3. pick(ctx) repeatedly at each cycle until it returns
 *      kNoInstruction; every returned instruction is issued
 *      unconditionally, so a policy must only return a marked g with
 *      ctx.dataReady(g) && ctx.unitFree(g) that is still its kind's
 *      oldest ready instruction (the engine throws std::logic_error
 *      otherwise). Instances of one kind share a pool, so the oldest
 *      issuable instruction is always such a head;
 *   4. markCompleted(g) when an instruction retires.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string_view name() const = 0;

    virtual void reset(std::size_t total) = 0;

    virtual void markReady(std::size_t g) = 0;

    virtual void markCompleted(std::size_t g) = 0;

    virtual std::size_t pick(const IssueContext &ctx) = 0;
};

/**
 * Age-ordered scoreboard (ORIANNA-OoO): any data-ready instruction may
 * issue to any free unit of the right kind, oldest first — fine-grained
 * OoO inside an algorithm and coarse-grained OoO across work items.
 */
class OutOfOrderScheduler final : public Scheduler
{
  public:
    std::string_view name() const override { return "out-of-order"; }
    void reset(std::size_t total) override;
    void markReady(std::size_t g) override;
    void markCompleted(std::size_t /*g*/) override {}
    std::size_t pick(const IssueContext &ctx) override;

  private:
    /** Data-ready, unissued instructions, kept sorted by age. */
    std::vector<std::size_t> ready_;
};

/**
 * Blocking sequential controller (ORIANNA-IO): the next instruction in
 * program order issues only after the previous one has *completed* —
 * no dispatch window at all.
 */
class InOrderScheduler final : public Scheduler
{
  public:
    std::string_view name() const override { return "in-order"; }
    void reset(std::size_t total) override;
    void markReady(std::size_t /*g*/) override {}
    void markCompleted(std::size_t /*g*/) override {}
    std::size_t pick(const IssueContext &ctx) override;

  private:
    std::size_t next_ = 0;
};

/** Policy for an accelerator config's dispatch mode. */
std::unique_ptr<Scheduler> makeScheduler(bool out_of_order);

} // namespace orianna::runtime
