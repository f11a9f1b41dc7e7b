#pragma once

#include <map>
#include <vector>

#include "fg/graph.hpp"

namespace orianna::fg {

/**
 * Shape record of one dense matrix operation performed during factor
 * graph inference. These records are the measured data behind
 * Fig. 17 (operation size) and Fig. 18 (operation density).
 */
struct OpShape
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    double density = 0.0;
};

/** Per-inference statistics collected by eliminate(). */
struct EliminationStats
{
    std::vector<OpShape> qrOps;      //!< One per variable elimination.
    std::vector<OpShape> backSubOps; //!< One per back-substitution.
};

/**
 * One row of the resulting upper-triangular system: the conditional
 * of variable @p key on its parents (Fig. 6). delta_key is recovered
 * as R_self^-1 (rhs - sum_parents R_parent delta_parent).
 */
struct Conditional
{
    Key key;
    Matrix rSelf;                    //!< dof x dof upper triangular.
    std::map<Key, Matrix> rParents;  //!< dof x dof(parent) blocks.
    Vector rhs;                      //!< dof entries of Q^T b.
};

/**
 * The eliminated (upper-triangular) system: conditionals in
 * elimination order. Equivalent to the updated graph of Fig. 6.
 */
class BayesNet
{
  public:
    void push(Conditional conditional);

    const std::vector<Conditional> &conditionals() const
    {
        return conditionals_;
    }

    /**
     * Back-substitution from the last conditional to the first,
     * yielding the tangent update delta per variable. Appends one
     * OpShape per substitution to @p stats when provided.
     */
    std::map<Key, Vector> solve(EliminationStats *stats = nullptr) const;

  private:
    std::vector<Conditional> conditionals_;
};

/** What the elimination walk needs to know about one factor row. */
struct RowShape
{
    std::vector<Key> keys; //!< Variables the row has blocks for.
    std::size_t dim = 0;   //!< Scalar rows.
};

/** The shape of @p row: its block keys (ascending) and row count. */
RowShape shapeOf(const LinearRow &row);

/**
 * The structure of one elimination (Fig. 5): which rows feed it, and
 * the exact per-step gather/QR shapes. The schedule is the single
 * source of truth shared by the software solve (eliminate), the
 * incremental smoother with any plugged-in SuffixSolver, and the
 * compiler — each follows it literally (same row order, same column
 * order), which is what keeps their results and program shapes
 * identical without re-deriving the walk.
 *
 * Rows are identified by reference index: values below the input
 * row count index the row array handed to the solver; values at or
 * above it name carry rows produced by earlier steps of this same
 * elimination, in creation order. The smoother hands its rows over
 * in canonical order — marginal priors, then original factor rows by
 * factor index, then surviving carries by creation step — the order
 * a batch elimination uses, which is what makes incremental results
 * bit-identical to batch at the same linearization point.
 */
struct SuffixSchedule
{
    /** Absolute ordering position the re-elimination starts at. */
    std::size_t start = 0;
    /** Variables, in elimination order. */
    std::vector<Key> variables;
    /** Tangent dimension of each variable. */
    std::vector<std::size_t> dofs;
    /** Smoother-internal ids of the input rows (opaque to solvers). */
    std::vector<std::size_t> inputRows;

    struct Step
    {
        /** Rows gathered into this step's [A|b], in gather order. */
        std::vector<std::size_t> rowRefs;
        /** Column layout: eliminated variable first, parents sorted. */
        std::vector<Key> columns;
        std::size_t nrows = 0;
        std::size_t ncols = 0;
        /**
         * Separator rows carried forward (0 = no carry row). R is
         * upper trapezoidal, so rows at or below the column count are
         * structurally zero: the count depends only on shapes, never
         * on values, which keeps the structure identical between the
         * software path and the compiled accelerator program.
         */
        std::size_t kept = 0;
    };
    std::vector<Step> steps;
};

/**
 * The Fig. 5 walk, symbolically: eliminate @p variables one by one
 * over the (key set, row count) images of the input rows. Each step
 * gathers the unconsumed rows touching its variable in reference
 * order, lays the columns out as the variable followed by its
 * parents ascending, and keeps min(nrows, ncols) - dof separator
 * rows as a new carry row. Returns the schedule with its variables,
 * dofs and steps filled (start 0, no inputRows).
 *
 * @param rows      key set and row count of each input row.
 * @param variables the variables to eliminate, in order.
 * @param dofs      tangent dimension of every variable a row touches.
 * @throws std::runtime_error when a variable has no adjacent row or
 * fewer rows than its dof (underdetermined).
 */
SuffixSchedule scheduleElimination(std::vector<RowShape> rows,
                                   std::vector<Key> variables,
                                   const std::map<Key, std::size_t> &dofs);

/** What a schedule's numeric solve produces, step by step. */
struct SuffixSolution
{
    /** One conditional per schedule step, in step order. */
    std::vector<Conditional> conditionals;
    /** Carry rows of the steps with kept > 0, in creation order. */
    std::vector<LinearRow> carries;
    /**
     * Optional: tangent solution of the suffix variables when the
     * solver also ran back-substitution (the accelerator path does).
     * Empty means the smoother back-substitutes on the host.
     */
    std::map<Key, Vector> deltas;
};

/**
 * The CPU reference solve of a schedule: dense per-step gather +
 * Householder QR (Fig. 5 steps 2-4), following the schedule
 * literally. Appends one OpShape per step to @p stats when provided.
 */
SuffixSolution solveSuffixOnCpu(const SuffixSchedule &schedule,
                                const std::vector<const LinearRow *> &rows,
                                EliminationStats *stats = nullptr);

/**
 * Factor-graph inference, phase 1 (Fig. 5): eliminate the variables
 * of @p ordering one by one. For each variable the adjacent factor
 * rows are gathered into a small dense matrix, a (partial) QR
 * triangularizes it, the top rows become the variable's conditional
 * and the remainder re-enters the graph as a new factor. This is
 * scheduleElimination() followed by solveSuffixOnCpu().
 *
 * @param system   the linearized factor rows.
 * @param ordering every variable of the system exactly once.
 * @param stats    optional shape/density collection.
 * @throws std::invalid_argument when the ordering is incomplete.
 * @throws std::runtime_error when a variable is underdetermined.
 */
BayesNet eliminate(const LinearSystem &system,
                   const std::vector<Key> &ordering,
                   EliminationStats *stats = nullptr);

/**
 * Convenience: full linear solve (eliminate + back substitution) in
 * the given ordering.
 */
std::map<Key, Vector> solveLinearSystem(const LinearSystem &system,
                                        const std::vector<Key> &ordering,
                                        EliminationStats *stats = nullptr);

} // namespace orianna::fg
