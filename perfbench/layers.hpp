#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common.hpp"
#include "compiler/isa.hpp"
#include "fg/incremental.hpp"
#include "hw/accelerator.hpp"
#include "runtime/engine.hpp"
#include "runtime/incremental.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

/**
 * The per-layer ledger of a traced run (--trace 1). Every name in
 * layerMetrics() is printed on every workload; a layer a workload does
 * not exercise, or that the benchmark cannot time from outside the
 * program on it, reads 0 (the README lists which is which).
 */
struct Ledger
{
    std::map<std::string, double> values;

    double &operator[](const std::string &name) { return values[name]; }

    /** Append every ledger metric, in canonical order, to @p out. */
    void emit(Result &out) const;
};

/** (name, unit) of every per-layer metric, in print order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Times and counts every call into the wrapped scheduling policy. */
class TimingScheduler final : public orianna::runtime::Scheduler
{
  public:
    explicit TimingScheduler(bool out_of_order)
        : inner_(orianna::runtime::makeScheduler(out_of_order))
    {
    }

    std::string_view name() const override { return inner_->name(); }
    void reset(std::size_t total) override;
    void markReady(std::size_t g) override;
    void markCompleted(std::size_t g) override;
    std::size_t pick(const orianna::runtime::IssueContext &ctx) override;

    double seconds = 0.0; //!< Raw host time inside the policy.
    std::uint64_t picks = 0;
    std::uint64_t issues = 0;
    std::uint64_t probes = 0;

  private:
    std::unique_ptr<orianna::runtime::Scheduler> inner_;
};

/** Times the suffix solves an IncrementalSmoother hands to @p inner. */
class TimingSuffixSolver final : public orianna::fg::SuffixSolver
{
  public:
    explicit TimingSuffixSolver(orianna::runtime::AcceleratedSmoother &inner)
        : inner_(inner)
    {
    }

    orianna::fg::SuffixSolution
    solve(const orianna::fg::SuffixSchedule &schedule,
          const std::vector<const orianna::fg::LinearRow *> &rows) override;

    double seconds = 0.0; //!< Raw host time of all solves so far.

  private:
    orianna::runtime::AcceleratedSmoother &inner_;
};

/** Per-frame layer totals of traceFrames(), already per frame. */
struct FrameLayers
{
    double frameMs = 0.0;     //!< Whole ExecutionContext::run.
    double schedulerMs = 0.0; //!< Inside the scheduling policy.
    double executorMs = 0.0;  //!< comp::Executor::run alone.
    double picksPerIssue = 0.0;
    double probesPerIssue = 0.0;
    double kernelCalls = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    std::array<double, orianna::hw::kUnitKindCount> util{};
};

/**
 * Step @p program from @p values for @p frames Gauss-Newton frames
 * through ExecutionContext::run with a TimingScheduler, retracting
 * like Session::step, and time comp::Executor::run on the same
 * program and values beside each frame.
 */
FrameLayers traceFrames(const orianna::comp::Program &program,
                        orianna::fg::Values values, double step_scale,
                        const orianna::hw::AcceleratorConfig &config,
                        std::size_t frames, HostClock &clock);

/** Add @p layers, weighted by @p weight, into the ledger. */
void addFrameLayers(Ledger &ledger, const FrameLayers &layers,
                    double weight);

/** Total dispatched kernel calls (all ops) so far. */
std::uint64_t kernelCallsTotal();

/**
 * Compile-side totals: counts and raw microsecond sums of the
 * engine and pass instruments, read from a metrics-registry JSON
 * document (Engine::metricsJson() or the protocol "metrics" op).
 */
struct CompileTotals
{
    double compiles = 0.0;
    double cacheHits = 0.0;
    double compileUs = 0.0;
    std::map<std::string, double> passUs;
    double frames = 0.0;
    double frameTotalUs = 0.0;
    double hwCycles = 0.0;
    std::array<double, orianna::hw::kUnitKindCount> busy{};

    static CompileTotals fromMetricsJson(const std::string &json);
    CompileTotals operator-(const CompileTotals &before) const;
};

/**
 * Fill the compiler and engine-cache rows of the ledger from
 * @p totals (times corrected by @p slowdown) and the pre/post pass
 * instruction counts of @p log.
 */
void addCompileLayers(
    Ledger &ledger, const CompileTotals &totals, double slowdown,
    const std::vector<orianna::runtime::Engine::CompileRecord> &log);

} // namespace perfbench
