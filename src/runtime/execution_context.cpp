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

namespace {

void
checkUnits(const hw::AcceleratorConfig &config)
{
    for (unsigned count : config.units)
        if (count == 0)
            throw std::invalid_argument(
                "runtime: every unit kind needs at least one instance");
}

/** First global index per program, plus the total at the end. */
std::vector<std::size_t>
globalBases(const std::vector<const comp::Program *> &programs)
{
    std::vector<std::size_t> base{0};
    for (const comp::Program *program : programs) {
        if (program == nullptr)
            throw std::invalid_argument(
                "ExecutionContext: null program");
        base.push_back(base.back() + program->instructions.size());
    }
    return base;
}

/** The hw.* instruments, looked up once per process. */
struct HwInstruments
{
    MetricsRegistry &registry = MetricsRegistry::global();
    Counter &frames = registry.counter("hw.frames");
    Counter &framesReplayed = registry.counter("hw.frames_replayed");
    Counter &cycles = registry.counter("hw.cycles");
    /** Indexed by hw::UnitKind. */
    std::array<Counter *, hw::kUnitKindCount> busyCycles{};
    std::array<Gauge *, hw::kUnitKindCount> units{};

    HwInstruments()
    {
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            const std::string unit =
                hw::unitName(static_cast<UnitKind>(k));
            busyCycles[k] = &registry.counter("hw.busy_cycles." + unit);
            units[k] = &registry.gauge("hw.units." + unit);
        }
    }
};

} // namespace

/**
 * The schedule step: the static tables of a program set plus the
 * issue loop's scratch, reset in place every live frame.
 */
struct ExecutionContext::Live
{
    struct View;

    Live(std::vector<const comp::Program *> programs,
         std::vector<std::size_t> base);

    Scheduler &
    builtIn(bool out_of_order)
    {
        return out_of_order ? *outOfOrder : *inOrder;
    }

    /**
     * Run the issue loop under @p config and @p scheduler, rolling
     * @p faults (may be null) per issue and gating work items by
     * @p releases (empty, or one per program), and write the frame's
     * schedule into @p plan (its storage is reused).
     */
    void schedule(const hw::AcceleratorConfig &config,
                  Scheduler &scheduler, const hw::FaultInjector *faults,
                  std::uint64_t frame, std::uint64_t attempt,
                  const std::vector<Release> &releases, FramePlan &plan);

    // --- Static tables (per program set) -----------------------------
    std::vector<const comp::Program *> programs;
    std::vector<std::size_t> base;
    /** Global index -> (work item, local instruction index). */
    std::vector<std::uint32_t> orderWork;
    std::vector<std::uint32_t> orderIndex;
    /** Program::producers() of each work item. */
    std::vector<std::vector<std::uint32_t>> producers;
    std::vector<std::uint32_t> depCount; //!< Static producer counts.
    /** CSR dependents adjacency over global indices. */
    std::vector<std::uint32_t> dependentsBegin;
    std::vector<std::uint32_t> dependents;
    std::vector<std::uint8_t> unitKind;
    std::vector<std::uint64_t> latency;
    std::vector<double> dynamicNj;
    std::vector<std::uint64_t> words;
    /** Per-work-item memory-energy scale (0.5 for fp32 programs). */
    std::vector<double> wordEnergyScale;
    std::unique_ptr<Scheduler> outOfOrder = makeScheduler(true);
    std::unique_ptr<Scheduler> inOrder = makeScheduler(false);

    // --- Per-frame scratch, reset in place by schedule() -------------
    std::vector<std::uint32_t> pending;
    std::vector<std::uint64_t> finishCycle;
    std::vector<std::uint8_t> issued;
    std::vector<std::uint8_t> done;
    std::vector<unsigned> assignedInstance;
    /** Data-ready, unissued instructions per kind (min-heaps by age). */
    std::array<std::vector<std::uint32_t>, hw::kUnitKindCount>
        readyByKind;
    /** Already passed to Scheduler::markReady this frame. */
    std::vector<std::uint8_t> marked;
    std::array<std::vector<unsigned>, hw::kUnitKindCount> freeInstances;
    /**
     * Min-heap of (finish cycle, global index) completions, and of
     * (release cycle, total + work item) releases.
     */
    std::vector<std::pair<std::uint64_t, std::size_t>> events;
};

/** Adapter exposing schedule-step state to the scheduling policy. */
struct ExecutionContext::Live::View final : IssueContext
{
    const Live *live;

    explicit View(const Live *l) : live(l) {}

    std::size_t total() const override { return live->base.back(); }

    bool
    dataReady(std::size_t g) const override
    {
        return live->pending[g] == 0 && live->issued[g] == 0;
    }

    bool
    unitFree(std::size_t g) const override
    {
        return !live->freeInstances[live->unitKind[g]].empty();
    }

    bool
    completed(std::size_t g) const override
    {
        return live->done[g] != 0;
    }
};

ExecutionContext::Live::Live(std::vector<const comp::Program *> programs_in,
                             std::vector<std::size_t> base_in)
    : programs(std::move(programs_in)), base(std::move(base_in))
{
    const std::size_t total = base.back();
    orderWork.resize(total);
    orderIndex.resize(total);
    depCount.resize(total);
    unitKind.resize(total);
    latency.resize(total);
    dynamicNj.resize(total);
    words.resize(total);
    wordEnergyScale.resize(programs.size());
    producers.resize(programs.size());
    // Dependents adjacency in CSR form, from the dependences the
    // srcs imply (they are intra-program): counts first.
    dependentsBegin.assign(total + 1, 0);
    for (std::size_t w = 0; w < programs.size(); ++w) {
        const comp::Precision precision = programs[w]->precision;
        wordEnergyScale[w] = CostModel::wordEnergyScale(precision);
        producers[w] = programs[w]->producers();
        const auto &instrs = programs[w]->instructions;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const std::size_t g = base[w] + i;
            const Instruction &inst = instrs[i];
            orderWork[g] = static_cast<std::uint32_t>(w);
            orderIndex[g] = static_cast<std::uint32_t>(i);
            comp::forEachDep(inst, producers[w], [&](std::uint32_t dep) {
                ++depCount[g];
                ++dependentsBegin[base[w] + dep + 1];
            });
            unitKind[g] = static_cast<std::uint8_t>(hw::unitFor(inst.op));
            latency[g] = CostModel::latency(inst, precision);
            dynamicNj[g] = CostModel::dynamicEnergyNj(inst, precision);
            words[g] = hw::instructionWords(inst);
        }
    }
    for (std::size_t g = 0; g < total; ++g)
        dependentsBegin[g + 1] += dependentsBegin[g];
    dependents.resize(dependentsBegin[total]);
    std::vector<std::uint32_t> fill(dependentsBegin.begin(),
                                    dependentsBegin.end() - 1);
    for (std::size_t g = 0; g < total; ++g) {
        const std::size_t w = orderWork[g];
        comp::forEachDep(programs[w]->instructions[orderIndex[g]],
                         producers[w], [&](std::uint32_t dep) {
                             dependents[fill[base[w] + dep]++] =
                                 static_cast<std::uint32_t>(g);
                         });
    }
}

void
ExecutionContext::Live::schedule(const hw::AcceleratorConfig &config,
                                 Scheduler &scheduler,
                                 const hw::FaultInjector *faults,
                                 std::uint64_t frame,
                                 std::uint64_t attempt,
                                 const std::vector<Release> &releases,
                                 FramePlan &plan)
{
    const std::size_t total = base.back();

    // Reset per-frame scratch in place: every container below keeps
    // its heap allocation from the previous frame.
    pending.assign(depCount.begin(), depCount.end());
    finishCycle.assign(total, 0);
    issued.assign(total, 0);
    done.assign(total, 0);
    assignedInstance.assign(total, 0);
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        freeInstances[k].clear();
        for (unsigned u = 0; u < config.units[k]; ++u)
            freeInstances[k].push_back(config.units[k] - 1 - u);
    }
    events.clear();
    for (auto &queue : readyByKind)
        queue.clear();
    marked.assign(total, 0);

    plan.units = config.units;
    plan.outOfOrder = config.outOfOrder;
    plan.issues.clear();
    plan.issues.reserve(total);
    plan.faults.clear();
    plan.totals = hw::SimResult();
    hw::SimResult &result = plan.totals;

    // Per-kind issue queues (scheduler.hpp, protocol step 2): only a
    // queue head is marked to the policy. A head displaced by an
    // older arrival stays marked; marked keeps it from being marked
    // twice when it becomes the head again.
    auto markHead = [&](const std::vector<std::uint32_t> &queue) {
        if (!queue.empty() && marked[queue.front()] == 0) {
            marked[queue.front()] = 1;
            scheduler.markReady(queue.front());
        }
    };
    auto enqueue = [&](std::size_t g) {
        auto &queue = readyByKind[unitKind[g]];
        queue.push_back(static_cast<std::uint32_t>(g));
        std::push_heap(queue.begin(), queue.end(), std::greater<>{});
        markHead(queue);
    };

    // Released work items: each root (depCount 0) of a gated item
    // holds one extra pending count per closed gate, its release cycle
    // and its unfinished predecessor. Every other instruction depends
    // on a root, so the whole item waits. A release enters the event
    // heap as total + w, so the drain below handles the releases and
    // completions of one cycle together.
    std::vector<std::size_t> unfinished(releases.size(), 0);
    std::vector<std::uint32_t> firstWaiter(releases.size(),
                                           Release::kNone);
    std::vector<std::uint32_t> nextWaiter(releases.size(),
                                          Release::kNone);
    for (std::size_t w = 0; w < releases.size(); ++w) {
        const Release &release = releases[w];
        unfinished[w] = base[w + 1] - base[w];
        std::uint32_t gates = 0;
        if (release.cycle > 0) {
            ++gates;
            events.emplace_back(release.cycle, total + w);
            std::push_heap(events.begin(), events.end(),
                           std::greater<>{});
        }
        // An empty predecessor has nothing to finish.
        if (release.after != Release::kNone &&
            unfinished[release.after] > 0) {
            ++gates;
            nextWaiter[w] = firstWaiter[release.after];
            firstWaiter[release.after] = static_cast<std::uint32_t>(w);
        }
        for (std::size_t g = base[w]; g < base[w + 1]; ++g)
            if (depCount[g] == 0)
                pending[g] += gates;
    }
    auto openGate = [&](std::size_t w) {
        for (std::size_t g = base[w]; g < base[w + 1]; ++g)
            if (depCount[g] == 0 && --pending[g] == 0)
                enqueue(g);
    };

    scheduler.reset(total);
    for (std::size_t g = 0; g < total; ++g)
        if (pending[g] == 0)
            enqueue(g);

    View view(this);
    std::uint64_t now = 0;
    std::size_t issuedCount = 0;
    const double dram = CostModel::dramEnergyPerWordNj * 1e-9;
    const double buffer = CostModel::bufferEnergyPerWordNj * 1e-9;

    auto issue = [&](std::size_t g) {
        auto &pool = freeInstances[unitKind[g]];
        if (issued[g] != 0 || pending[g] != 0 || pool.empty())
            throw std::logic_error(
                "runtime: scheduler picked an unissuable instruction");
        auto &queue = readyByKind[unitKind[g]];
        if (queue.front() != g)
            throw std::logic_error(
                "runtime: scheduler picked an instruction younger "
                "than its kind's oldest ready one");
        std::pop_heap(queue.begin(), queue.end(), std::greater<>{});
        queue.pop_back();
        markHead(queue);
        assignedInstance[g] = pool.back();
        pool.pop_back();
        issued[g] = 1;
        ++issuedCount;
        plan.issues.push_back({static_cast<std::uint32_t>(g),
                               assignedInstance[g], now});

        const std::uint32_t w = orderWork[g];
        const Instruction &inst =
            programs[w]->instructions[orderIndex[g]];
        std::uint64_t cycles = latency[g];
        if (faults != nullptr) {
            const hw::FaultDecision fault = faults->decide(
                frame, attempt, g, static_cast<UnitKind>(unitKind[g]));
            if (fault.any()) {
                cycles += fault.extraCycles;
                // A STORE writes no slot — a corrupted store garbles
                // what the host reads back, its source.
                const std::uint32_t victim =
                    inst.op == comp::IsaOp::STORE && !inst.srcs.empty()
                        ? inst.srcs[0]
                        : inst.dst;
                plan.faults.push_back(
                    {static_cast<std::uint32_t>(plan.issues.size() - 1),
                     victim, fault.corrupt, fault.extraCycles});
                for (std::size_t k = 0; k < result.faultsByKind.size();
                     ++k) {
                    result.faultsByKind[k] += fault.fired[k];
                    result.faultsInjected += fault.fired[k];
                }
            }
        }
        finishCycle[g] = now + cycles;
        events.emplace_back(finishCycle[g], g);
        std::push_heap(events.begin(), events.end(), std::greater<>{});

        result.unitBusyCycles[unitKind[g]] += cycles;
        result.phaseBusyCycles[std::min<std::size_t>(inst.phase, 2)] +=
            cycles;
        result.dynamicEnergyJ += dynamicNj[g] * 1e-9;

        // Memory energy. The OoO scoreboard captures every operand in
        // the on-chip buffer. The in-order controller forwards only
        // within a short program window (local register file); any
        // operand produced farther back is re-read from DRAM, and the
        // result of an instruction with such a distant consumer is
        // written back - the "data stored on-chip and reused" effect
        // of Sec. 7.3. Host DMA is off-chip in either mode.
        // fp32 work items move half the bytes per word
        // (wordEnergyScale); deps are intra-program, so the
        // producer's scale is the same item's.
        result.memoryEnergyJ +=
            wordEnergyScale[w] * static_cast<double>(words[g]) *
            (static_cast<UnitKind>(unitKind[g]) == UnitKind::Dma
                 ? dram
                 : buffer);
        comp::forEachDep(inst, producers[w], [&](std::uint32_t dep) {
            const std::size_t producer = base[w] + dep;
            const bool spilled =
                !config.outOfOrder &&
                g - producer > CostModel::inOrderForwardWindow;
            result.memoryEnergyJ +=
                wordEnergyScale[w] *
                static_cast<double>(words[producer]) *
                (spilled ? 2.0 * dram : buffer);
        });
    };

    auto complete = [&](std::size_t g) {
        done[g] = 1;
        freeInstances[unitKind[g]].push_back(assignedInstance[g]);
        for (std::uint32_t e = dependentsBegin[g];
             e < dependentsBegin[g + 1]; ++e) {
            const std::uint32_t user = dependents[e];
            if (--pending[user] == 0)
                enqueue(user);
        }
        if (!releases.empty() && --unfinished[orderWork[g]] == 0)
            for (std::uint32_t w = firstWaiter[orderWork[g]];
                 w != Release::kNone; w = nextWaiter[w])
                openGate(w);
        scheduler.markCompleted(g);
    };
    auto retire = [&](std::size_t event) {
        if (event < total)
            complete(event);
        else
            openGate(event - total);
    };

    auto popEvent = [&]() {
        std::pop_heap(events.begin(), events.end(), std::greater<>{});
        const auto event = events.back();
        events.pop_back();
        return event;
    };

    while (issuedCount < total || !events.empty()) {
        // Issue as much as the policy allows at the current cycle.
        for (std::size_t g = scheduler.pick(view); g != kNoInstruction;
             g = scheduler.pick(view))
            issue(g);

        if (events.empty()) {
            if (issuedCount < total)
                throw std::logic_error(
                    "runtime: deadlock (circular dependences?)");
            break;
        }

        // Advance to the next event and drain every completion and
        // release at that same cycle.
        const auto [when, first] = popEvent();
        now = std::max(now, when);
        retire(first);
        while (!events.empty() && events.front().first == when)
            retire(popEvent().second);
    }

    result.cycles = now;
    for (std::size_t g = 0; g < total; ++g) {
        const Instruction &inst =
            programs[orderWork[g]]->instructions[orderIndex[g]];
        auto &finish = result.algorithmFinishCycle[inst.algorithm];
        finish = std::max(finish, finishCycle[g]);
    }
    result.staticEnergyJ = CostModel::staticPowerW * result.seconds();
}

ExecutionContext::ExecutionContext(const std::vector<hw::WorkItem> &work,
                                   std::shared_ptr<const FramePlan> plan)
    : ExecutionContext(
          [&work] {
              std::vector<const comp::Program *> programs;
              for (const hw::WorkItem &item : work)
                  programs.push_back(item.program);
              return programs;
          }(),
          std::move(plan))
{
    for (std::size_t w = 0; w < work.size(); ++w)
        values_[w] = work[w].values;
}

ExecutionContext::ExecutionContext(
    std::vector<const comp::Program *> programs,
    std::shared_ptr<const FramePlan> plan)
    : programs_(std::move(programs)), values_(programs_.size(), nullptr),
      base_(globalBases(programs_)), plan_(std::move(plan))
{
    if (plan_ != nullptr && plan_->issues.size() != instructionCount())
        throw std::invalid_argument(
            "ExecutionContext: plan is for another program set");
    executors_.reserve(programs_.size());
    for (const comp::Program *program : programs_) {
        if (program->precision == comp::Precision::Fp32)
            executors_.emplace_back(
                std::in_place_type<comp::Executor32>, *program);
        else
            executors_.emplace_back(
                std::in_place_type<comp::Executor>, *program);
    }
}

ExecutionContext::~ExecutionContext() = default;
ExecutionContext::ExecutionContext(ExecutionContext &&) noexcept = default;
ExecutionContext &
ExecutionContext::operator=(ExecutionContext &&) noexcept = default;

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

ExecutionContext::Live &
ExecutionContext::live()
{
    if (live_ == nullptr)
        live_ = std::make_unique<Live>(programs_, base_);
    return *live_;
}

std::shared_ptr<const FramePlan>
ExecutionContext::schedule(std::vector<const comp::Program *> programs,
                           const hw::AcceleratorConfig &config,
                           const std::vector<Release> &releases)
{
    checkUnits(config);
    if (!releases.empty() && releases.size() != programs.size())
        throw std::invalid_argument(
            "ExecutionContext: one release per program");
    for (std::size_t w = 0; w < releases.size(); ++w)
        if (releases[w].after != Release::kNone && releases[w].after >= w)
            throw std::invalid_argument(
                "ExecutionContext: a release must wait on an earlier "
                "work item");
    std::vector<std::size_t> base = globalBases(programs);
    Live state(std::move(programs), std::move(base));
    auto plan = std::make_shared<FramePlan>();
    state.schedule(config, state.builtIn(config.outOfOrder), nullptr, 0,
                   0, releases, *plan);
    return plan;
}

hw::SimResult
ExecutionContext::run(const hw::AcceleratorConfig &config)
{
    return frame(config, nullptr);
}

hw::SimResult
ExecutionContext::run(const hw::AcceleratorConfig &config,
                      Scheduler &scheduler)
{
    return frame(config, &scheduler);
}

hw::SimResult
ExecutionContext::frame(const hw::AcceleratorConfig &config,
                        Scheduler *scheduler)
{
    checkUnits(config);
    for (const fg::Values *values : values_)
        if (values == nullptr)
            throw std::logic_error(
                "ExecutionContext: bindValues before run");

    // A clean frame under the built-in scheduler replays the plan.
    const bool clean = scheduler == nullptr && faults_ == nullptr;
    if (clean && plan_ != nullptr && plan_->matches(config)) {
        numerics(*plan_);
        return finish(*plan_, config, /*replayed=*/true);
    }

    Live &state = live();
    state.schedule(config,
                   scheduler != nullptr ? *scheduler
                                        : state.builtIn(config.outOfOrder),
                   faults_, faultFrame_, faultAttempt_, {}, scratch_);
    if (!clean) {
        numerics(scratch_);
        return finish(scratch_, config, /*replayed=*/false);
    }
    // The schedule holds for every later clean frame under this config.
    plan_ = std::make_shared<const FramePlan>(std::move(scratch_));
    numerics(*plan_);
    return finish(*plan_, config, /*replayed=*/false);
}

void
ExecutionContext::numerics(const FramePlan &plan)
{
    const FramePlan::Issue *issues = plan.issues.data();
    const std::size_t count = plan.issues.size();
    auto fault = plan.faults.begin();
    std::size_t p = 0;
    while (p < count) {
        // Run the stretch of consecutive issues of one work item
        // through that item's interpreter.
        std::size_t w = 0;
        while (issues[p].g >= base_[w + 1])
            ++w;
        const std::size_t lo = base_[w];
        const std::size_t hi = base_[w + 1];
        const fg::Values &values = *values_[w];
        std::visit(
            [&](auto &executor) {
                for (; p < count && issues[p].g >= lo && issues[p].g < hi;
                     ++p) {
                    executor.step(issues[p].g - lo, values);
                    if (fault != plan.faults.end() &&
                        fault->position == p) {
                        if (fault->corrupt)
                            executor.corruptSlot(fault->victim);
                        ++fault;
                    }
                }
            },
            executors_[w]);
    }
}

std::vector<hw::TraceEvent>
ExecutionContext::traceEvents(const FramePlan &plan) const
{
    std::vector<hw::TraceEvent> trace;
    trace.reserve(plan.issues.size());
    auto fault = plan.faults.begin();
    for (std::size_t p = 0; p < plan.issues.size(); ++p) {
        const FramePlan::Issue &issue = plan.issues[p];
        std::size_t w = 0;
        while (issue.g >= base_[w + 1])
            ++w;
        const comp::Program &program = *programs_[w];
        const Instruction &inst = program.instructions[issue.g - base_[w]];
        std::uint64_t latency = CostModel::latency(inst, program.precision);
        if (fault != plan.faults.end() && fault->position == p) {
            latency += fault->extraCycles;
            ++fault;
        }
        hw::TraceEvent event;
        event.name = std::string(comp::isaOpName(inst.op)) + " " +
                     std::to_string(inst.rows) + "x" +
                     std::to_string(inst.cols);
        event.unit = hw::unitFor(inst.op);
        event.instance = issue.instance;
        event.startCycle = issue.start;
        event.endCycle = issue.start + latency;
        event.algorithm = inst.algorithm;
        event.phase = inst.phase;
        trace.push_back(std::move(event));
    }
    return trace;
}

hw::SimResult
ExecutionContext::finish(const FramePlan &plan,
                         const hw::AcceleratorConfig &config,
                         bool replayed) const
{
    hw::SimResult result = plan.totals;
    if (config.recordTrace)
        result.trace = traceEvents(plan);

    // Flush simulator-side observability from the plan's frame totals,
    // only when metrics are enabled (one relaxed load otherwise).
    if (MetricsRegistry::enabled()) {
        static const HwInstruments instruments;
        instruments.frames.add();
        instruments.framesReplayed.add(replayed ? 1 : 0);
        instruments.cycles.add(result.cycles);
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            instruments.busyCycles[k]->add(result.unitBusyCycles[k]);
            instruments.units[k]->set(config.units[k]);
        }
    }

    // Read back the deltas (widened to double for fp32 work items).
    result.deltas.resize(programs_.size());
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
