#pragma once

#include <optional>
#include <vector>

#include "fg/eliminate.hpp"
#include "fg/graph.hpp"

namespace orianna::fg {

/** Why optimize() stopped iterating. */
enum class TerminationReason : std::uint8_t {
    Converged,        //!< Error or update stalled after an accepted step.
    Diverged,         //!< Damping exhausted without an acceptable step.
    MaxIterations,    //!< Iteration budget spent before convergence.
    NumericalFailure, //!< NaN/Inf in the error or the update.
};

/** Display name of a termination reason. */
const char *terminationReasonName(TerminationReason reason);

/** Knobs of the Gauss-Newton / Levenberg-Marquardt loop (Fig. 3). */
struct GaussNewtonParams
{
    std::size_t maxIterations = 25;
    double relativeErrorTol = 1e-8; //!< On the error decrease.
    double absoluteErrorTol = 1e-10;
    double deltaTol = 1e-9;         //!< On the update magnitude.
    /** Elimination ordering; natural order when not set. */
    std::optional<std::vector<Key>> ordering;
    /**
     * Initial Levenberg-Marquardt damping, added to the system as
     * sqrt(lambda) * I prior rows. Zero starts as plain Gauss-Newton;
     * the loop still escalates damping when a step is rejected.
     */
    double lambda = 0.0;
    /**
     * Fixed step scaling applied to every update (0 < scale <= 1).
     * Scales below 1 damp the period-2 oscillation that one-sided
     * (hinge) factors can induce in plain Gauss-Newton.
     */
    double stepScale = 1.0;

    // --- Adaptive trust-region control -------------------------------
    // A step that does not decrease the error is rolled back and
    // retried with 10x the damping (classic LM); an accepted step
    // relaxes it to a tenth.
    /** First non-zero damping tried when lambda is still zero. */
    double lambdaFloor = 1e-4;
    /**
     * Divergence bound: when damping must grow beyond this without
     * producing an acceptable step, the solve reports Diverged.
     */
    double lambdaMax = 1e8;
};

/** One optimizer iteration, for convergence inspection and plots. */
struct IterationRecord
{
    double errorBefore = 0.0;
    double errorAfter = 0.0;
    double deltaNorm = 0.0;
    double lambda = 0.0;   //!< Damping used by the accepted step.
    std::size_t rejects = 0; //!< Attempts rolled back this iteration.
};

/** Outcome of optimize(). */
struct OptimizeResult
{
    Values values;
    bool converged = false; //!< reason == Converged.
    TerminationReason reason = TerminationReason::MaxIterations;
    std::size_t iterations = 0;    //!< Accepted steps.
    std::size_t rejectedSteps = 0; //!< Rolled-back attempts, total.
    double finalError = 0.0;
    double finalLambda = 0.0; //!< Damping after the last step.
    std::vector<IterationRecord> history;
    EliminationStats stats; //!< Accumulated over all iterations.
};

/**
 * Adaptive Levenberg-Marquardt with factor-graph elimination
 * (Sec. 2.1-2.2): starting from @p initial, repeatedly linearize,
 * eliminate, back-substitute and retract. Each step is accepted only
 * when it decreases the error; rejected steps are rolled back and
 * retried with grown damping, and the result carries a typed
 * TerminationReason — an error increase is never reported as
 * convergence, and NaN/Inf in the error or update terminates
 * immediately instead of silently burning the iteration budget.
 */
OptimizeResult optimize(const FactorGraph &graph, Values initial,
                        const GaussNewtonParams &params = {});

} // namespace orianna::fg
