#include "layers.hpp"

#include "compiler/executor.hpp"
#include "hw/cost_model.hpp"
#include "matrix/simd.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/json.hpp"

namespace perfbench {

namespace runtime = orianna::runtime;
namespace hw = orianna::hw;

namespace {

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const char *const kPasses[] = {"dedup", "dce", "cse", "fuse"};

/**
 * Counts every IssueContext query a scheduling policy makes: the
 * probes the out-of-order scan spends per issued instruction.
 */
class CountingIssueContext final : public runtime::IssueContext
{
  public:
    CountingIssueContext(const runtime::IssueContext &inner,
                         std::uint64_t &probes)
        : inner_(inner), probes_(probes)
    {
    }

    std::size_t total() const override
    {
        ++probes_;
        return inner_.total();
    }
    bool dataReady(std::size_t g) const override
    {
        ++probes_;
        return inner_.dataReady(g);
    }
    bool unitFree(std::size_t g) const override
    {
        ++probes_;
        return inner_.unitFree(g);
    }
    bool completed(std::size_t g) const override
    {
        ++probes_;
        return inner_.completed(g);
    }

  private:
    const runtime::IssueContext &inner_;
    std::uint64_t &probes_;
};

} // namespace

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList =
        [] {
            std::vector<std::pair<std::string, std::string>> list;
            auto add = [&list](std::string name, std::string unit) {
                list.emplace_back(std::move(name), std::move(unit));
            };
            add("apps.build_ms", "ms");
            add("compiler.codegen_ms", "ms");
            for (const char *pass : kPasses)
                add(std::string("compiler.pass_ms.") + pass, "ms");
            add("compiler.instr_pre", "instr");
            add("compiler.instr_post", "instr");
            add("engine.compiles", "count");
            add("engine.cache_hits", "count");
            add("engine.cache_hit_rate", "ratio");
            add("engine.compile_ms", "ms");
            add("session.open_ms", "ms");
            add("scheduler.ms_per_frame", "ms");
            add("scheduler.picks_per_issue", "count");
            add("scheduler.probes_per_issue", "count");
            add("executor.ms_per_frame", "ms");
            add("kernels.calls_per_frame", "count");
            add("hw.cycles_per_frame", "cycles");
            add("hw.instr_per_frame", "instr");
            for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
                add(std::string("hw.util.") +
                        hw::unitName(static_cast<hw::UnitKind>(k)),
                    "ratio");
            add("incremental.solve_ms", "ms");
            add("incremental.bookkeeping_ms", "ms");
            add("incremental.shape_miss_share", "ratio");
            add("incremental.cpu_frame_share", "ratio");
            add("incremental.relin_frame_share", "ratio");
            add("incremental.session_reuse_rate", "ratio");
            add("incremental.reelim_per_frame", "count");
            add("protocol.submit_other_ms", "ms");
            add("protocol.step_overhead_ms", "ms");
            add("protocol.values_ms", "ms");
            add("protocol.close_ms", "ms");
            add("trace.overhead_pct", "%");
            add("host.slowdown", "ratio");
            return list;
        }();
    return kList;
}

void
Ledger::emit(Result &out) const
{
    for (const auto &[name, unit] : layerMetrics()) {
        const auto it = values.find(name);
        out.set(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

void
TimingScheduler::reset(std::size_t total)
{
    const Clock::time_point start = Clock::now();
    inner_->reset(total);
    seconds += since(start);
}

void
TimingScheduler::markReady(std::size_t g)
{
    const Clock::time_point start = Clock::now();
    inner_->markReady(g);
    seconds += since(start);
}

void
TimingScheduler::markCompleted(std::size_t g)
{
    const Clock::time_point start = Clock::now();
    inner_->markCompleted(g);
    seconds += since(start);
}

std::size_t
TimingScheduler::pick(const runtime::IssueContext &ctx)
{
    const Clock::time_point start = Clock::now();
    const CountingIssueContext counting(ctx, probes);
    const std::size_t g = inner_->pick(counting);
    seconds += since(start);
    ++picks;
    if (g != runtime::kNoInstruction)
        ++issues;
    return g;
}

orianna::fg::SuffixSolution
TimingSuffixSolver::solve(
    const orianna::fg::SuffixSchedule &schedule,
    const std::vector<const orianna::fg::LinearRow *> &rows)
{
    const Clock::time_point start = Clock::now();
    orianna::fg::SuffixSolution solution = inner_.solve(schedule, rows);
    seconds += since(start);
    return solution;
}

std::uint64_t
kernelCallsTotal()
{
    namespace k = orianna::mat::kernels;
    std::uint64_t total = 0;
    for (std::size_t op = 0; op < k::kKernelOpCount; ++op)
        total += k::kernelCallCount(static_cast<k::KernelOp>(op));
    return total;
}

FrameLayers
traceFrames(const orianna::comp::Program &program,
            orianna::fg::Values values, double step_scale,
            const hw::AcceleratorConfig &config, std::size_t frames,
            HostClock &clock)
{
    runtime::ExecutionContext context(
        std::vector<const orianna::comp::Program *>{&program});
    TimingScheduler scheduler(config.outOfOrder);
    orianna::comp::Executor executor(program);

    struct Sample
    {
        Span frame;
        double schedulerRaw;
        Span executor;
    };
    std::vector<Sample> samples;
    FrameLayers out;
    std::array<double, hw::kUnitKindCount> busy{};
    double cycles = 0.0;
    std::uint64_t kernels = 0;
    for (std::size_t f = 0; f < frames; ++f) {
        clock.maybeProbe();
        context.bindValues(0, &values);
        const double scheduler_before = scheduler.seconds;
        const std::uint64_t kernels_before = kernelCallsTotal();
        const Clock::time_point start = Clock::now();
        hw::SimResult result = context.run(config, scheduler);
        const Span frame = spanFrom(start);
        kernels += kernelCallsTotal() - kernels_before;

        const Clock::time_point exec_start = Clock::now();
        executor.run(values);
        samples.push_back({frame, scheduler.seconds - scheduler_before,
                           spanFrom(exec_start)});

        if (step_scale != 1.0)
            for (auto &[key, delta] : result.deltas[0])
                delta = delta * step_scale;
        values.retractAll(result.deltas[0]);
        cycles += static_cast<double>(result.cycles);
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
            busy[k] += static_cast<double>(result.unitBusyCycles[k]);
    }
    clock.probe();

    // The scheduler's share of each frame takes that frame's
    // interference correction.
    for (const Sample &s : samples) {
        const double raw =
            std::chrono::duration<double>(s.frame.end - s.frame.begin)
                .count();
        const double corrected = clock.seconds(s.frame);
        out.frameMs += 1e3 * corrected;
        out.schedulerMs += 1e3 * s.schedulerRaw * corrected / raw;
        out.executorMs += clock.ms(s.executor);
    }
    const double n = static_cast<double>(frames);
    out.frameMs /= n;
    out.schedulerMs /= n;
    out.executorMs /= n;
    out.picksPerIssue = static_cast<double>(scheduler.picks) /
                        static_cast<double>(scheduler.issues);
    out.probesPerIssue = static_cast<double>(scheduler.probes) /
                         static_cast<double>(scheduler.issues);
    out.kernelCalls = static_cast<double>(kernels) / n;
    out.cycles = cycles / n;
    out.instructions = static_cast<double>(context.instructionCount());
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        out.util[k] = busy[k] / (cycles * config.units[k]);
    return out;
}

void
addFrameLayers(Ledger &ledger, const FrameLayers &layers, double weight)
{
    ledger["scheduler.ms_per_frame"] += weight * layers.schedulerMs;
    ledger["scheduler.picks_per_issue"] += weight * layers.picksPerIssue;
    ledger["scheduler.probes_per_issue"] +=
        weight * layers.probesPerIssue;
    ledger["executor.ms_per_frame"] += weight * layers.executorMs;
    ledger["kernels.calls_per_frame"] += weight * layers.kernelCalls;
    ledger["hw.cycles_per_frame"] += weight * layers.cycles;
    ledger["hw.instr_per_frame"] += weight * layers.instructions;
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        ledger[std::string("hw.util.") +
               hw::unitName(static_cast<hw::UnitKind>(k))] +=
            weight * layers.util[k];
}

CompileTotals
CompileTotals::fromMetricsJson(const std::string &text)
{
    namespace json = runtime::json;
    const json::ValuePtr doc = json::parse(text);
    const json::Value *registry = doc->field("metrics");
    if (registry == nullptr)
        registry = doc.get();
    const json::Value *counters = registry->field("counters");
    const json::Value *histograms = registry->field("histograms");
    auto counter = [&](const std::string &name) {
        const json::Value *v =
            counters != nullptr ? counters->field(name) : nullptr;
        return v != nullptr ? v->number : 0.0;
    };
    auto histogram = [&](const std::string &name, const char *what) {
        const json::Value *h =
            histograms != nullptr ? histograms->field(name) : nullptr;
        const json::Value *v = h != nullptr ? h->field(what) : nullptr;
        return v != nullptr ? v->number : 0.0;
    };

    CompileTotals t;
    t.compiles = counter("engine.compiles");
    t.cacheHits = counter("engine.cache_hits");
    t.compileUs = histogram("engine.compile_us", "sum_us");
    for (const char *pass : kPasses)
        t.passUs[pass] =
            histogram(std::string("pass.") + pass + ".us", "sum_us");
    t.frames = histogram("frame.total_us", "count");
    t.frameTotalUs = histogram("frame.total_us", "sum_us");
    t.hwCycles = counter("hw.cycles");
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        t.busy[k] = counter(std::string("hw.busy_cycles.") +
                            hw::unitName(static_cast<hw::UnitKind>(k)));
    return t;
}

CompileTotals
CompileTotals::operator-(const CompileTotals &before) const
{
    CompileTotals d = *this;
    d.compiles -= before.compiles;
    d.cacheHits -= before.cacheHits;
    d.compileUs -= before.compileUs;
    for (auto &[pass, us] : d.passUs)
        us -= before.passUs.at(pass);
    d.frames -= before.frames;
    d.frameTotalUs -= before.frameTotalUs;
    d.hwCycles -= before.hwCycles;
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        d.busy[k] -= before.busy[k];
    return d;
}

void
addCompileLayers(Ledger &ledger, const CompileTotals &totals,
                 double slowdown,
                 const std::vector<runtime::Engine::CompileRecord> &log)
{
    ledger["engine.compiles"] = totals.compiles;
    ledger["engine.cache_hits"] = totals.cacheHits;
    const double lookups = totals.compiles + totals.cacheHits;
    ledger["engine.cache_hit_rate"] =
        lookups > 0.0 ? totals.cacheHits / lookups : 0.0;
    if (totals.compiles > 0.0) {
        const double per = 1e-3 / (totals.compiles * slowdown);
        const double compile_ms = totals.compileUs * per;
        double passes_ms = 0.0;
        for (const auto &[pass, us] : totals.passUs) {
            ledger["compiler.pass_ms." + pass] = us * per;
            passes_ms += us * per;
        }
        ledger["engine.compile_ms"] = compile_ms;
        ledger["compiler.codegen_ms"] = compile_ms - passes_ms;
    }
    double pre = 0.0;
    double post = 0.0;
    for (const runtime::Engine::CompileRecord &record : log) {
        pre += record.passes.empty()
                   ? static_cast<double>(record.instructions)
                   : static_cast<double>(record.passes.front().before);
        post += static_cast<double>(record.instructions);
    }
    if (!log.empty()) {
        ledger["compiler.instr_pre"] = pre / log.size();
        ledger["compiler.instr_post"] = post / log.size();
    }
}

} // namespace perfbench
