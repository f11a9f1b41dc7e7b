#pragma once

#include <optional>

#include "fg/eliminate.hpp"
#include "fg/graph.hpp"

namespace orianna::fg {

/** Knobs of the incremental smoother. */
struct IncrementalParams
{
    /**
     * Full relinearization (batch) every this many updates. Between
     * batches the linearization point is fixed and only the tangent
     * solution moves, as in iSAM.
     */
    std::size_t relinearizeInterval = 10;

    /** Also relinearize when any |delta| exceeds this threshold. */
    double relinearizeThreshold = 0.25;

    /** Elimination ordering for new variables: append in key order. */
};

/** What one update() did, for tests and telemetry. */
struct UpdateStats
{
    std::size_t eliminatedVariables = 0; //!< Re-eliminated this update.
    std::size_t totalVariables = 0;
    bool relinearized = false;
};

/**
 * Structural description of one suffix re-elimination: which rows
 * feed it, and the exact per-step gather/QR shapes. The schedule is
 * the single source of truth shared by the CPU reference path and
 * any plugged-in SuffixSolver — a solver must follow it literally
 * (same row order, same column order) so its results drop back into
 * the smoother's bookkeeping without re-deriving the walk.
 *
 * Rows are identified by reference index: values below
 * `inputRows.size()` index the row array handed to the solver (in
 * canonical order: marginal priors, then original factor rows by
 * factor index, then surviving carries by creation step — the order
 * a batch elimination uses, which is what makes incremental results
 * bit-identical to batch at the same linearization point); values at
 * or above it name carry rows produced by earlier steps of this same
 * suffix, in creation order.
 */
struct SuffixSchedule
{
    /** Absolute ordering position the re-elimination starts at. */
    std::size_t start = 0;
    /** Suffix variables, in elimination order. */
    std::vector<Key> variables;
    /** Tangent dimension of each suffix variable. */
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
        /** Separator rows carried forward (0 = no carry row). */
        std::size_t kept = 0;
    };
    std::vector<Step> steps;
};

/** What a suffix solve produces, mirroring the schedule's shapes. */
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
 * Pluggable executor of a suffix re-elimination. The smoother builds
 * the schedule and owns all bookkeeping; the solver only does the
 * numeric work. The runtime layer implements this against the
 * accelerator engine (runtime::AcceleratedSmoother).
 */
class SuffixSolver
{
  public:
    virtual ~SuffixSolver() = default;
    virtual SuffixSolution
    solve(const SuffixSchedule &schedule,
          const std::vector<const LinearRow *> &rows) = 0;
};

/**
 * The CPU reference suffix solve: dense per-step gather + Householder
 * QR, following the schedule literally. Used when no solver is
 * plugged in, and by solvers as their oversize/fallback path.
 */
SuffixSolution
solveSuffixOnCpu(const SuffixSchedule &schedule,
                 const std::vector<const LinearRow *> &rows);

/**
 * Incremental smoothing in the square-root-SAM / iSAM tradition the
 * paper builds on ([10][11]): the estimation problem grows frame by
 * frame (new poses, new measurements), and each update re-eliminates
 * only the ordering suffix affected by the new factors instead of
 * solving from scratch.
 *
 * Between relinearizations the linearization point is fixed; the
 * current estimate is linPoint retract delta. The prefix of the
 * elimination (conditionals of unaffected variables and the factor
 * rows they consumed) is reused exactly, so an incremental update
 * produces bit-identical results to a batch elimination at the same
 * linearization point — a property the tests check.
 */
class IncrementalSmoother
{
  public:
    explicit IncrementalSmoother(IncrementalParams params = {})
        : params_(params)
    {}

    /** Insert a new pose variable with its initial estimate. */
    void addVariable(Key key, lie::Pose initial);

    /** Insert a new vector variable with its initial estimate. */
    void addVariable(Key key, Vector initial);

    /** Queue a factor; it takes effect at the next update(). */
    void addFactor(FactorPtr factor);

    /**
     * Incorporate the queued factors: linearize them at the current
     * linearization point, re-eliminate the affected ordering suffix,
     * and refresh the tangent solution.
     */
    UpdateStats update();

    /** Current estimate: linearization point retract delta. */
    Values estimate() const;

    /** Number of updates performed so far. */
    std::size_t updates() const { return updates_; }

    /** All factors incorporated so far (for inspection / batch). */
    const FactorGraph &graph() const { return graph_; }

    /**
     * Fixed-lag smoothing: marginalize out the first @p count
     * variables of the elimination ordering (the oldest states). The
     * information they carried is preserved exactly as linear prior
     * rows on the remaining variables (taken at the linearization
     * point in effect when they were eliminated, and re-expressed at
     * each later one by relinearization), and factors fully absorbed
     * into the marginal become inactive for future relinearization -
     * the standard fixed-lag trade-off.
     *
     * @throws std::invalid_argument when count is zero or would
     * remove every variable, or when factors are still pending.
     */
    void marginalizeLeading(std::size_t count);

    /**
     * Plug in a suffix solver (non-owning; nullptr restores the CPU
     * reference path). The solver must outlive the smoother or be
     * reset before it is destroyed.
     */
    void setSuffixSolver(SuffixSolver *solver) { solver_ = solver; }

    /** Elimination ordering (oldest first), for solvers and tests. */
    const std::vector<Key> &ordering() const { return ordering_; }

  private:
    /** A linearized row with its incremental lifetime. */
    struct RowRecord
    {
        LinearRow row;
        /** Elimination step that produced it; SIZE_MAX = original. */
        std::size_t createdStep = SIZE_MAX;
        /** Elimination step that consumed it; SIZE_MAX = alive. */
        std::size_t consumedStep = SIZE_MAX;
        /** Fixed marginal-prior row (not tied to a factor). */
        bool isPrior = false;
    };

    void relinearizeAll();
    SuffixSchedule buildSchedule(std::size_t start) const;
    void eliminateFrom(std::size_t start);
    void refreshDelta();
    std::size_t orderingPosition(Key key) const;

    IncrementalParams params_;
    FactorGraph graph_;
    std::vector<FactorPtr> pendingFactors_;

    Values linPoint_;                 //!< Fixed between batches.
    std::map<Key, Vector> delta_;     //!< Current tangent solution.
    std::vector<Key> ordering_;       //!< Elimination order.
    std::map<Key, std::size_t> position_;
    std::map<Key, std::size_t> dofs_;

    std::vector<RowRecord> rows_;
    std::vector<Conditional> conditionals_; //!< One per ordering slot.
    /** Fixed linear prior rows from marginalized-out variables. */
    std::vector<LinearRow> marginalPriors_;
    /** Per-factor: still relinearizable (not absorbed into priors). */
    std::vector<bool> factorActive_;

    SuffixSolver *solver_ = nullptr;
    /** Suffix deltas from the last solve, when the solver back-
     *  substituted on-device; consumed by refreshDelta(). */
    std::map<Key, Vector> deviceDeltas_;

    std::size_t updates_ = 0;
};

} // namespace orianna::fg
