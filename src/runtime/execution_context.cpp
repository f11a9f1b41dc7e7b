#include "runtime/execution_context.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "runtime/metrics.hpp"

namespace orianna::runtime {

using comp::Instruction;
using hw::CostModel;
using hw::UnitKind;

/** Adapter exposing engine state to the scheduling policy. */
struct ExecutionContext::IssueView final : IssueContext
{
    const ExecutionContext *ctx;
    std::size_t count;

    IssueView(const ExecutionContext *c, std::size_t n)
        : ctx(c), count(n)
    {
    }

    std::size_t total() const override { return count; }

    bool
    dataReady(std::size_t g) const override
    {
        return ctx->pending_[g] == 0 && ctx->issued_[g] == 0;
    }

    bool
    unitFree(std::size_t g) const override
    {
        return !ctx->freeInstances_[ctx->unitKind_[g]].empty();
    }

    bool
    completed(std::size_t g) const override
    {
        return ctx->done_[g] != 0;
    }
};

ExecutionContext::ExecutionContext(const std::vector<hw::WorkItem> &work)
{
    programs_.reserve(work.size());
    values_.reserve(work.size());
    for (const hw::WorkItem &item : work) {
        programs_.push_back(item.program);
        values_.push_back(item.values);
    }
    buildStatic();
}

ExecutionContext::ExecutionContext(
    std::vector<const comp::Program *> programs)
    : programs_(std::move(programs)), values_(programs_.size(), nullptr)
{
    buildStatic();
}

void
ExecutionContext::bindValues(std::size_t item, const fg::Values *values)
{
    values_.at(item) = values;
}

void
ExecutionContext::armFaults(const hw::FaultInjector *injector,
                            std::uint64_t frame, std::uint64_t attempt)
{
    faults_ = injector != nullptr && !injector->plan().empty()
                  ? injector
                  : nullptr;
    faultFrame_ = frame;
    faultAttempt_ = attempt;
}

void
ExecutionContext::buildStatic()
{
    for (const comp::Program *program : programs_)
        if (program == nullptr)
            throw std::invalid_argument(
                "ExecutionContext: null program");

    base_.resize(programs_.size());
    std::size_t total = 0;
    for (std::size_t w = 0; w < programs_.size(); ++w) {
        base_[w] = total;
        total += programs_[w]->instructions.size();
    }

    orderWork_.resize(total);
    orderIndex_.resize(total);
    depCount_.resize(total);
    unitKind_.resize(total);
    latency_.resize(total);
    dynamicNj_.resize(total);
    words_.resize(total);
    wordEnergyScale_.resize(programs_.size());
    for (std::size_t w = 0; w < programs_.size(); ++w) {
        const comp::Precision precision = programs_[w]->precision;
        wordEnergyScale_[w] = CostModel::wordEnergyScale(precision);
        const auto &instrs = programs_[w]->instructions;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const std::size_t g = base_[w] + i;
            const Instruction &inst = instrs[i];
            orderWork_[g] = static_cast<std::uint32_t>(w);
            orderIndex_[g] = static_cast<std::uint32_t>(i);
            depCount_[g] = static_cast<std::uint32_t>(inst.deps.size());
            unitKind_[g] =
                static_cast<std::uint8_t>(hw::unitFor(inst.op));
            latency_[g] = CostModel::latency(inst, precision);
            dynamicNj_[g] = CostModel::dynamicEnergyNj(inst, precision);
            words_[g] = hw::instructionWords(inst);
        }
    }

    // Dependents adjacency in CSR form (deps are intra-program).
    dependentsBegin_.assign(total + 1, 0);
    for (std::size_t g = 0; g < total; ++g) {
        const Instruction &inst =
            programs_[orderWork_[g]]->instructions[orderIndex_[g]];
        for (std::uint32_t dep : inst.deps)
            ++dependentsBegin_[base_[orderWork_[g]] + dep + 1];
    }
    for (std::size_t g = 0; g < total; ++g)
        dependentsBegin_[g + 1] += dependentsBegin_[g];
    dependents_.resize(dependentsBegin_[total]);
    {
        std::vector<std::uint32_t> fill(dependentsBegin_.begin(),
                                        dependentsBegin_.end() - 1);
        for (std::size_t g = 0; g < total; ++g) {
            const Instruction &inst =
                programs_[orderWork_[g]]->instructions[orderIndex_[g]];
            for (std::uint32_t dep : inst.deps) {
                const std::size_t producer =
                    base_[orderWork_[g]] + dep;
                dependents_[fill[producer]++] =
                    static_cast<std::uint32_t>(g);
            }
        }
    }

    executors_.reserve(programs_.size());
    for (const comp::Program *program : programs_) {
        if (program->precision == comp::Precision::Fp32)
            executors_.emplace_back(
                std::in_place_type<comp::Executor32>, *program);
        else
            executors_.emplace_back(
                std::in_place_type<comp::Executor>, *program);
    }

    outOfOrder_ = makeScheduler(true);
    inOrder_ = makeScheduler(false);
}

hw::SimResult
ExecutionContext::run(const hw::AcceleratorConfig &config)
{
    return run(config, config.outOfOrder ? *outOfOrder_ : *inOrder_);
}

hw::SimResult
ExecutionContext::run(const hw::AcceleratorConfig &config,
                      Scheduler &scheduler)
{
    for (unsigned count : config.units)
        if (count == 0)
            throw std::invalid_argument(
                "runtime: every unit kind needs at least one instance");
    for (const fg::Values *values : values_)
        if (values == nullptr)
            throw std::logic_error(
                "ExecutionContext: bindValues before run");

    const std::size_t total = orderWork_.size();

    // Reset per-frame scratch in place: every container below keeps
    // its heap allocation from the previous frame.
    pending_.assign(depCount_.begin(), depCount_.end());
    finishCycle_.assign(total, 0);
    issued_.assign(total, 0);
    done_.assign(total, 0);
    assignedInstance_.assign(total, 0);
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        freeInstances_[k].clear();
        for (unsigned u = 0; u < config.units[k]; ++u)
            freeInstances_[k].push_back(config.units[k] - 1 - u);
    }
    events_.clear();
    for (auto &queue : readyByKind_)
        queue.clear();
    marked_.assign(total, 0);

    hw::SimResult result;
    result.deltas.resize(programs_.size());
    if (config.recordTrace)
        result.trace.reserve(total);

    // Per-kind issue queues (scheduler.hpp, protocol step 2): only a
    // queue head is marked to the policy. A head displaced by an
    // older arrival stays marked; marked_ keeps it from being marked
    // twice when it becomes the head again.
    auto markHead = [&](const std::vector<std::uint32_t> &queue) {
        if (!queue.empty() && marked_[queue.front()] == 0) {
            marked_[queue.front()] = 1;
            scheduler.markReady(queue.front());
        }
    };
    auto enqueue = [&](std::size_t g) {
        auto &queue = readyByKind_[unitKind_[g]];
        queue.push_back(static_cast<std::uint32_t>(g));
        std::push_heap(queue.begin(), queue.end(), std::greater<>{});
        markHead(queue);
    };

    scheduler.reset(total);
    for (std::size_t g = 0; g < total; ++g)
        if (pending_[g] == 0)
            enqueue(g);

    IssueView view(this, total);
    std::uint64_t now = 0;
    std::size_t issuedCount = 0;
    const double dram = CostModel::dramEnergyPerWordNj * 1e-9;
    const double buffer = CostModel::bufferEnergyPerWordNj * 1e-9;

    auto issue = [&](std::size_t g) {
        auto &pool = freeInstances_[unitKind_[g]];
        if (issued_[g] != 0 || pending_[g] != 0 || pool.empty())
            throw std::logic_error(
                "runtime: scheduler picked an unissuable instruction");
        auto &queue = readyByKind_[unitKind_[g]];
        if (queue.front() != g)
            throw std::logic_error(
                "runtime: scheduler picked an instruction younger "
                "than its kind's oldest ready one");
        std::pop_heap(queue.begin(), queue.end(), std::greater<>{});
        queue.pop_back();
        markHead(queue);
        assignedInstance_[g] = pool.back();
        pool.pop_back();
        issued_[g] = 1;
        ++issuedCount;

        // Functional execution happens at issue: operands are final
        // because all producers completed.
        const std::uint32_t w = orderWork_[g];
        std::visit(
            [&](auto &executor) {
                executor.step(orderIndex_[g], *values_[w]);
            },
            executors_[w]);

        const Instruction &inst =
            programs_[w]->instructions[orderIndex_[g]];
        std::uint64_t latency = latency_[g];
        if (faults_ != nullptr) {
            const hw::FaultDecision fault = faults_->decide(
                faultFrame_, faultAttempt_, g,
                static_cast<UnitKind>(unitKind_[g]));
            if (fault.any()) {
                latency += fault.extraCycles;
                if (fault.corrupt) {
                    // A STORE writes no slot — a corrupted store
                    // garbles what the host reads back, its source.
                    const std::uint32_t victim =
                        inst.op == comp::IsaOp::STORE &&
                                !inst.srcs.empty()
                            ? inst.srcs[0]
                            : inst.dst;
                    std::visit(
                        [&](auto &executor) {
                            executor.corruptSlot(victim);
                        },
                        executors_[w]);
                }
                for (std::size_t k = 0;
                     k < result.faultsByKind.size(); ++k) {
                    result.faultsByKind[k] += fault.fired[k];
                    result.faultsInjected += fault.fired[k];
                }
            }
        }
        finishCycle_[g] = now + latency;
        events_.emplace_back(finishCycle_[g], g);
        std::push_heap(events_.begin(), events_.end(),
                       std::greater<>{});

        if (config.recordTrace) {
            hw::TraceEvent event;
            event.name = std::string(comp::isaOpName(inst.op)) + " " +
                         std::to_string(inst.rows) + "x" +
                         std::to_string(inst.cols);
            event.unit = static_cast<UnitKind>(unitKind_[g]);
            event.instance = assignedInstance_[g];
            event.startCycle = now;
            event.endCycle = finishCycle_[g];
            event.algorithm = inst.algorithm;
            event.phase = inst.phase;
            result.trace.push_back(std::move(event));
        }

        result.unitBusyCycles[unitKind_[g]] += latency;
        result.phaseBusyCycles[std::min<std::size_t>(inst.phase, 2)] +=
            latency;
        result.dynamicEnergyJ += dynamicNj_[g] * 1e-9;

        // Memory energy. The OoO scoreboard captures every operand in
        // the on-chip buffer. The in-order controller forwards only
        // within a short program window (local register file); any
        // operand produced farther back is re-read from DRAM, and the
        // result of an instruction with such a distant consumer is
        // written back - the "data stored on-chip and reused" effect
        // of Sec. 7.3. Host DMA is off-chip in either mode.
        // fp32 work items move half the bytes per word
        // (wordEnergyScale_); deps are intra-program, so the
        // producer's scale is the same item's.
        result.memoryEnergyJ +=
            wordEnergyScale_[w] * static_cast<double>(words_[g]) *
            (static_cast<UnitKind>(unitKind_[g]) == UnitKind::Dma
                 ? dram
                 : buffer);
        for (std::uint32_t dep : inst.deps) {
            const std::size_t producer = base_[w] + dep;
            const bool spilled =
                !config.outOfOrder &&
                g - producer > CostModel::inOrderForwardWindow;
            result.memoryEnergyJ +=
                wordEnergyScale_[w] *
                static_cast<double>(words_[producer]) *
                (spilled ? 2.0 * dram : buffer);
        }
    };

    auto complete = [&](std::size_t g) {
        done_[g] = 1;
        freeInstances_[unitKind_[g]].push_back(assignedInstance_[g]);
        for (std::uint32_t e = dependentsBegin_[g];
             e < dependentsBegin_[g + 1]; ++e) {
            const std::uint32_t user = dependents_[e];
            if (--pending_[user] == 0)
                enqueue(user);
        }
        scheduler.markCompleted(g);
    };

    auto popEvent = [&]() {
        std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
        const auto event = events_.back();
        events_.pop_back();
        return event;
    };

    while (issuedCount < total || !events_.empty()) {
        // Issue as much as the policy allows at the current cycle.
        for (std::size_t g = scheduler.pick(view); g != kNoInstruction;
             g = scheduler.pick(view))
            issue(g);

        if (events_.empty()) {
            if (issuedCount < total)
                throw std::logic_error(
                    "runtime: deadlock (circular dependences?)");
            break;
        }

        // Advance to the next completion and drain every completion
        // at that same cycle.
        const auto [when, first] = popEvent();
        now = std::max(now, when);
        complete(first);
        while (!events_.empty() && events_.front().first == when)
            complete(popEvent().second);
    }

    result.cycles = now;
    for (std::size_t g = 0; g < total; ++g) {
        const Instruction &inst =
            programs_[orderWork_[g]]->instructions[orderIndex_[g]];
        auto &finish = result.algorithmFinishCycle[inst.algorithm];
        finish = std::max(finish, finishCycle_[g]);
    }
    result.staticEnergyJ = CostModel::staticPowerW * result.seconds();

    // Flush simulator-side observability off the hot path: the issue
    // loop above records nothing, everything here is reconstructed
    // from the per-instruction scratch arrays once per frame, and
    // only when metrics are enabled (one relaxed load otherwise).
    if (MetricsRegistry::enabled()) {
        auto &metrics = MetricsRegistry::global();
        metrics.counter("hw.frames").add();
        metrics.counter("hw.cycles").add(result.cycles);
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            instanceBusy_[k].assign(config.units[k], 0);
        }
        for (std::size_t g = 0; g < total; ++g)
            instanceBusy_[unitKind_[g]][assignedInstance_[g]] +=
                latency_[g];
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            if (config.units[k] == 0)
                continue;
            const std::string unit =
                hw::unitName(static_cast<UnitKind>(k));
            metrics.counter("hw.busy_cycles." + unit)
                .add(result.unitBusyCycles[k]);
            metrics.gauge("hw.units." + unit).set(config.units[k]);
            for (unsigned u = 0; u < config.units[k]; ++u)
                metrics
                    .counter("hw.busy_cycles." + unit + "." +
                             std::to_string(u))
                    .add(instanceBusy_[k][u]);
        }
    }

    // Read back the deltas (widened to double for fp32 work items).
    for (std::size_t w = 0; w < programs_.size(); ++w)
        for (const comp::DeltaBinding &binding : programs_[w]->deltas)
            result.deltas[w].emplace(
                binding.key,
                std::visit(
                    [&](const auto &executor) {
                        return executor.deltaAt(binding.slot);
                    },
                    executors_[w]));
    return result;
}

} // namespace orianna::runtime
