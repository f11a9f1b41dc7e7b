#include "fg/optimizer.hpp"

#include <cmath>

namespace orianna::fg {

namespace {

/** Damping growth factor on a rejected step. */
constexpr double kLambdaGrow = 10.0;
/** Damping shrink factor on an accepted step. */
constexpr double kLambdaShrink = 0.1;

/** Append damping rows sqrt(lambda) * I for every variable. */
void
addDamping(LinearSystem &system, double lambda)
{
    if (lambda <= 0.0)
        return;
    const double scale = std::sqrt(lambda);
    for (const auto &[key, dof] : system.dofs) {
        LinearRow row;
        row.blocks.emplace(key, Matrix::identity(dof) * scale);
        row.rhs = Vector(dof);
        system.rows.push_back(std::move(row));
    }
}

/** Every entry of every update is finite. */
bool
allFinite(const std::map<Key, Vector> &delta)
{
    for (const auto &[key, d] : delta)
        for (std::size_t i = 0; i < d.size(); ++i)
            if (!std::isfinite(d[i]))
                return false;
    return true;
}

/**
 * Escalate damping after a rejected step. Returns false once the
 * growth would exceed the divergence bound.
 */
bool
growLambda(double &lambda, const GaussNewtonParams &params)
{
    lambda = lambda <= 0.0 ? params.lambdaFloor : lambda * kLambdaGrow;
    return lambda <= params.lambdaMax;
}

} // namespace

const char *
terminationReasonName(TerminationReason reason)
{
    switch (reason) {
      case TerminationReason::Converged: return "converged";
      case TerminationReason::Diverged: return "diverged";
      case TerminationReason::MaxIterations: return "max-iterations";
      case TerminationReason::NumericalFailure:
        return "numerical-failure";
    }
    return "?";
}

OptimizeResult
optimize(const FactorGraph &graph, Values initial,
         const GaussNewtonParams &params)
{
    OptimizeResult result;
    result.values = std::move(initial);
    result.reason = TerminationReason::MaxIterations;

    double error = graph.totalError(result.values);
    double lambda = params.lambda;
    if (!std::isfinite(error)) {
        // A NaN/Inf objective at entry can never produce a meaningful
        // decrease; report it instead of burning the whole budget.
        result.reason = TerminationReason::NumericalFailure;
        result.finalError = error;
        result.finalLambda = lambda;
        return result;
    }

    const std::vector<Key> order =
        params.ordering ? *params.ordering : graph.allKeys();

    for (std::size_t iter = 0;
         iter < params.maxIterations &&
         result.reason == TerminationReason::MaxIterations;
         ++iter) {
        // One linearization per outer iteration; damping retries below
        // reuse it (only the damping rows change).
        const LinearSystem system = graph.linearize(result.values);

        std::size_t rejects = 0;
        bool stepped = false;
        while (!stepped) {
            std::map<Key, Vector> delta;
            if (lambda <= 0.0) {
                delta = solveLinearSystem(system, order,
                                          &result.stats);
            } else {
                LinearSystem damped = system;
                addDamping(damped, lambda);
                delta = solveLinearSystem(damped, order,
                                          &result.stats);
            }
            if (params.stepScale != 1.0)
                for (auto &[key, d] : delta)
                    d = d * params.stepScale;

            if (!allFinite(delta)) {
                // The linear solve itself broke down; damping
                // regularizes the system, so escalate like a rejected
                // step before giving up.
                ++rejects;
                if (!growLambda(lambda, params)) {
                    result.reason =
                        TerminationReason::NumericalFailure;
                    break;
                }
                continue;
            }

            double delta_norm = 0.0;
            for (const auto &[key, d] : delta)
                delta_norm = std::max(delta_norm, d.maxAbs());

            Values candidate = result.values;
            candidate.retractAll(delta);
            const double new_error = graph.totalError(candidate);

            const bool acceptable =
                std::isfinite(new_error) && new_error <= error;
            if (!acceptable) {
                ++rejects;
                if (!growLambda(lambda, params)) {
                    result.reason =
                        std::isfinite(new_error)
                            ? TerminationReason::Diverged
                            : TerminationReason::NumericalFailure;
                    break;
                }
                continue;
            }
            // Step taken: the error did not increase.
            result.values = std::move(candidate);
            result.history.push_back(
                {error, new_error, delta_norm, lambda, rejects});
            ++result.iterations;
            const double decrease = error - new_error;
            error = new_error;
            stepped = true;

            // Convergence is only ever declared on a non-increasing
            // step: the historical |decrease| predicate marked a small
            // error *increase* as converged.
            if (delta_norm < params.deltaTol ||
                (decrease >= 0.0 &&
                 (decrease < params.absoluteErrorTol ||
                  (error > 0.0 && decrease / error <
                                      params.relativeErrorTol)))) {
                result.reason = TerminationReason::Converged;
            } else {
                // Reward an accepted step with lighter damping.
                lambda *= kLambdaShrink;
            }
        }
        result.rejectedSteps += rejects;
    }

    result.converged = result.reason == TerminationReason::Converged;
    result.finalError = error;
    result.finalLambda = lambda;
    return result;
}

} // namespace orianna::fg
