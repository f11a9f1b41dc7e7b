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
 * Pluggable executor of a suffix re-elimination. The smoother builds
 * the schedule (scheduleElimination) and owns all bookkeeping; the
 * solver only does the numeric work, following the schedule
 * literally so its results drop back into the smoother without
 * re-deriving the walk. solveSuffixOnCpu is the path when no solver
 * is plugged in, and a solver's oversize/fallback path. The runtime
 * layer implements this against the accelerator engine
 * (runtime::AcceleratedSmoother).
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
    void eliminateAll();
    SuffixSchedule buildSchedule(std::size_t start) const;
    void eliminateFrom(std::size_t start);
    void refreshDelta();

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
