#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compiler/codegen.hpp"
#include "compiler/pass_manager.hpp"
#include "hw/accelerator.hpp"

namespace orianna::core {

/**
 * One optimization-based algorithm inside a robotic application:
 * a factor graph, its initial values, its execution rate, and (after
 * Application::compile) its instruction stream.
 */
struct Algorithm
{
    std::string name;
    fg::FactorGraph graph;
    fg::Values values;
    double rateHz = 10.0;
    /**
     * Gauss-Newton step scaling for this algorithm (1.0 = full
     * steps). Planning graphs with hinge factors use damped steps;
     * applied identically on the software and accelerator paths.
     */
    double stepScale = 1.0;
    comp::Program program;      //!< Filled by Application::compile().
    comp::Program denseProgram; //!< VANILLA-HLS variant of the same.
    /**
     * The stream after the historical cleanup pair (dedup, dce) but
     * before the optimizing passes (cse, fuse). The CPU/GPU platform
     * models run this one: the software baselines they represent do
     * not get ORIANNA's accelerator-IR optimization pipeline.
     */
    comp::Program referenceProgram;
    /** What each pipeline pass did when compiling this algorithm. */
    std::vector<comp::PassStats> passStats;
};

/**
 * The top-level ORIANNA programming model (Sec. 3): a robotic
 * application is a set of optimization-based algorithms (localization,
 * planning, control, ...), each expressed as a factor graph. The
 * application compiles every algorithm into an instruction stream and
 * can execute them on the software reference path or on a simulated
 * generated accelerator.
 */
class Application
{
  public:
    explicit Application(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /**
     * Register an algorithm. @p rate_hz is its frame rate in the
     * robot pipeline (used by coarse-grained scheduling analyses).
     */
    void add(std::string algorithm_name, fg::FactorGraph graph,
             fg::Values initial, double rate_hz);

    std::size_t size() const { return algorithms_.size(); }

    Algorithm &algorithm(std::size_t i) { return *algorithms_[i]; }
    const Algorithm &algorithm(std::size_t i) const
    {
        return *algorithms_[i];
    }

    /** Find an algorithm by name; nullptr when absent. */
    const Algorithm *find(const std::string &algorithm_name) const;
    Algorithm *find(const std::string &algorithm_name);

    /**
     * Compile every algorithm with the ORIANNA compiler (tagging each
     * with its index for coarse-grained OoO) and with the VANILLA-HLS
     * dense compiler for the baseline comparisons. @p precision
     * selects the accelerator datapath width stamped on the programs
     * (DESIGN.md §12); the referenceProgram stays fp64 regardless —
     * it is the platform-model / fallback ground truth.
     */
    void compile(comp::Precision precision = comp::Precision::Fp64);

    /**
     * One frame of work: every algorithm's compiled program bound to
     * its current values. Valid until the application is modified.
     */
    std::vector<hw::WorkItem> frameWork() const;

    /** Same, but the dense (VANILLA-HLS) programs. */
    std::vector<hw::WorkItem> denseFrameWork() const;

    /**
     * Same, but the pre-optimization reference streams (cleanup
     * passes only) — what the CPU/GPU platform models consume.
     */
    std::vector<hw::WorkItem> referenceFrameWork() const;

    /**
     * Software reference: optimize every algorithm with Gauss-Newton.
     * Returns the optimized values per algorithm (in registration
     * order) and leaves the application state untouched.
     */
    std::vector<fg::Values>
    solveSoftware(std::size_t max_iterations = 15) const;

    /**
     * Accelerator path: iterate every algorithm's compiled program on
     * the simulated accelerator. Returns the optimized values per
     * algorithm; @p total accumulates cycles and energy when provided.
     */
    std::vector<fg::Values>
    solveAccelerated(const hw::AcceleratorConfig &config,
                     std::size_t iterations = 15,
                     hw::SimResult *total = nullptr) const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Algorithm>> algorithms_;
    bool compiled_ = false;
};

} // namespace orianna::core
