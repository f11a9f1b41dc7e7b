#include "fg/incremental.hpp"

#include <algorithm>
#include <stdexcept>

#include "matrix/qr.hpp"

namespace orianna::fg {

void
IncrementalSmoother::addVariable(Key key, lie::Pose initial)
{
    linPoint_.insert(key, std::move(initial));
}

void
IncrementalSmoother::addVariable(Key key, Vector initial)
{
    linPoint_.insert(key, std::move(initial));
}

void
IncrementalSmoother::addFactor(FactorPtr factor)
{
    if (!factor)
        throw std::invalid_argument(
            "IncrementalSmoother::addFactor: null factor");
    pendingFactors_.push_back(std::move(factor));
}

UpdateStats
IncrementalSmoother::update()
{
    // Decide whether this update relinearizes everything. An
    // interval of 0 means "never relinearize on interval"
    // (threshold-only, the iSAM fixed-point regime). The interval
    // trigger only fires when there is new information to fold in;
    // the threshold trigger fires regardless, so a factor-less
    // update() can still fold a large tangent solution into the
    // linearization point.
    bool relinearize =
        updates_ == 0 || (params_.relinearizeInterval > 0 &&
                          updates_ % params_.relinearizeInterval == 0);
    if (pendingFactors_.empty() && updates_ > 0)
        relinearize = false;
    for (const auto &[key, d] : delta_)
        if (d.maxAbs() > params_.relinearizeThreshold)
            relinearize = true;

    if (pendingFactors_.empty() && updates_ > 0 && !relinearize)
        return {0, ordering_.size(), false};

    // Incorporate the queued factors.
    std::size_t affected_start = ordering_.size();
    for (FactorPtr &factor : pendingFactors_) {
        for (Key key : factor->keys()) {
            if (!linPoint_.exists(key))
                throw std::runtime_error(
                    "IncrementalSmoother: factor references unknown "
                    "variable " +
                    std::to_string(key));
            if (position_.count(key) == 0) {
                // New variable: append to the ordering.
                position_[key] = ordering_.size();
                ordering_.push_back(key);
                dofs_[key] = linPoint_.dof(key);
            } else {
                affected_start =
                    std::min(affected_start, position_[key]);
            }
        }
        graph_.add(std::move(factor));
        factorActive_.push_back(true);
    }
    const std::size_t n_new = pendingFactors_.size();
    pendingFactors_.clear();

    UpdateStats stats;
    stats.totalVariables = ordering_.size();
    stats.relinearized = relinearize;

    if (relinearize) {
        relinearizeAll();
        stats.eliminatedVariables = ordering_.size();
    } else {
        // Linearize only the new factors at the fixed point; the
        // prefix of the elimination stays valid.
        for (std::size_t i = graph_.size() - n_new; i < graph_.size();
             ++i)
            rows_.push_back(
                {linearizeFactor(graph_.factor(i), i, linPoint_)});
        // Roll back the affected suffix: revive rows consumed at or
        // after the restart point and drop rows created there.
        std::vector<RowRecord> kept;
        kept.reserve(rows_.size());
        for (RowRecord &record : rows_) {
            if (record.createdStep != SIZE_MAX &&
                record.createdStep >= affected_start)
                continue; // Product of a discarded elimination step.
            if (record.consumedStep != SIZE_MAX &&
                record.consumedStep >= affected_start)
                record.consumedStep = SIZE_MAX;
            kept.push_back(std::move(record));
        }
        rows_ = std::move(kept);
        conditionals_.resize(
            std::min(conditionals_.size(), affected_start));
        eliminateFrom(affected_start);
        stats.eliminatedVariables = ordering_.size() - affected_start;
    }

    refreshDelta();
    ++updates_;
    return stats;
}

void
IncrementalSmoother::relinearizeAll()
{
    // Move the linearization point to the current estimate.
    if (!delta_.empty()) {
        // A marginal prior row J delta = r was taken at the old point;
        // at the new one, delta' = delta - delta_ gives
        // J delta' = r - sum_k J_k delta_k.
        for (LinearRow &prior : marginalPriors_)
            for (const auto &[key, block] : prior.blocks) {
                const auto it = delta_.find(key);
                if (it != delta_.end())
                    prior.rhs = prior.rhs - block * it->second;
            }
        Values moved = estimate();
        linPoint_ = std::move(moved);
        delta_.clear();
    }
    eliminateAll();
}

void
IncrementalSmoother::eliminateAll()
{
    // Rows in canonical order (see buildSchedule): marginal priors,
    // then the active factors linearized at the current point.
    rows_.clear();
    conditionals_.clear();
    for (const LinearRow &prior : marginalPriors_)
        rows_.push_back({prior, SIZE_MAX, SIZE_MAX, /*isPrior=*/true});
    for (std::size_t i = 0; i < graph_.size(); ++i)
        if (factorActive_[i])
            rows_.push_back(
                {linearizeFactor(graph_.factor(i), i, linPoint_)});
    eliminateFrom(0);
}

SuffixSchedule
IncrementalSmoother::buildSchedule(std::size_t start) const
{
    // Alive rows in canonical order: marginal priors first (in their
    // stored order), then original factor rows by factor index, then
    // carries by the step that created them. eliminateAll() builds
    // rows_ in exactly this order, so a batch elimination gathers
    // rows the same way — that shared order is what makes an
    // incremental update bit-identical to a batch solve at the same
    // linearization point. After an incremental rollback the freshly
    // linearized factor rows sit behind older carries in rows_, and
    // the sort restores the batch order.
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < rows_.size(); ++i)
        if (rows_[i].consumedStep == SIZE_MAX)
            alive.push_back(i);
    auto rank = [this](std::size_t i) {
        const RowRecord &r = rows_[i];
        if (r.isPrior)
            return std::pair<int, std::size_t>(0, i);
        if (r.createdStep == SIZE_MAX)
            return std::pair<int, std::size_t>(1, r.row.factorIndex);
        return std::pair<int, std::size_t>(2, r.createdStep);
    };
    std::stable_sort(alive.begin(), alive.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank(a) < rank(b);
                     });

    std::vector<RowShape> shapes;
    shapes.reserve(alive.size());
    for (std::size_t i : alive)
        shapes.push_back(shapeOf(rows_[i].row));
    SuffixSchedule sched = scheduleElimination(
        std::move(shapes),
        std::vector<Key>(ordering_.begin() +
                             static_cast<std::ptrdiff_t>(start),
                         ordering_.end()),
        dofs_);
    sched.start = start;
    sched.inputRows = std::move(alive);
    return sched;
}

void
IncrementalSmoother::eliminateFrom(std::size_t start)
{
    deviceDeltas_.clear();
    if (start >= ordering_.size())
        return;

    SuffixSchedule schedule = buildSchedule(start);
    std::vector<const LinearRow *> inputs;
    inputs.reserve(schedule.inputRows.size());
    for (std::size_t i : schedule.inputRows)
        inputs.push_back(&rows_[i].row);
    SuffixSolution solution = solver_
                                  ? solver_->solve(schedule, inputs)
                                  : solveSuffixOnCpu(schedule, inputs);

    std::size_t carry_count = 0;
    for (const SuffixSchedule::Step &plan : schedule.steps)
        carry_count += plan.kept > 0 ? 1 : 0;
    if (solution.conditionals.size() != schedule.steps.size() ||
        solution.carries.size() != carry_count)
        throw std::runtime_error(
            "IncrementalSmoother: suffix solver returned a solution "
            "that does not match the schedule");

    // Integrate: stamp row lifetimes, store conditionals at their
    // absolute ordering slots, append carry rows.
    std::vector<std::size_t> carry_created;
    std::vector<std::size_t> carry_consumed(carry_count, SIZE_MAX);
    for (std::size_t si = 0; si < schedule.steps.size(); ++si) {
        const SuffixSchedule::Step &plan = schedule.steps[si];
        const std::size_t abs_step = schedule.start + si;
        for (std::size_t ref : plan.rowRefs) {
            if (ref < schedule.inputRows.size())
                rows_[schedule.inputRows[ref]].consumedStep = abs_step;
            else
                carry_consumed[ref - schedule.inputRows.size()] =
                    abs_step;
        }
        if (conditionals_.size() <= abs_step)
            conditionals_.resize(abs_step + 1);
        conditionals_[abs_step] = std::move(solution.conditionals[si]);
        if (plan.kept > 0)
            carry_created.push_back(abs_step);
    }
    for (std::size_t c = 0; c < solution.carries.size(); ++c) {
        RowRecord record;
        record.row = std::move(solution.carries[c]);
        record.createdStep = carry_created[c];
        record.consumedStep = carry_consumed[c];
        rows_.push_back(std::move(record));
    }
    deviceDeltas_ = std::move(solution.deltas);
}

void
IncrementalSmoother::marginalizeLeading(std::size_t count)
{
    if (count == 0 || count >= ordering_.size())
        throw std::invalid_argument(
            "marginalizeLeading: bad variable count");
    if (!pendingFactors_.empty())
        throw std::invalid_argument(
            "marginalizeLeading: update() pending factors first");

    // Move the linearization point to the current estimate so the
    // marginal prior is taken at the best available point, then
    // perform one clean batch to get fresh bookkeeping.
    relinearizeAll();

    // Rows alive at the marginalization boundary involve only the
    // surviving variables (any row touching a dropped variable was
    // consumed at or before that variable's elimination step). Fresh
    // rows created by the prefix eliminations carry the marginal
    // information and become fixed prior rows; original rows consumed
    // in the suffix stay attached to their (still active) factors.
    std::vector<LinearRow> new_priors;
    for (const RowRecord &record : rows_) {
        const bool alive_at_boundary =
            record.consumedStep == SIZE_MAX ||
            record.consumedStep >= count;
        if (!alive_at_boundary) {
            // Consumed by the prefix: if it was an original factor
            // row, the factor is now absorbed into the marginal.
            if (record.createdStep == SIZE_MAX && !record.isPrior &&
                record.row.factorIndex < factorActive_.size())
                factorActive_[record.row.factorIndex] = false;
            continue;
        }
        if (record.createdStep != SIZE_MAX &&
            record.createdStep < count) {
            // Product of a prefix elimination: fixed marginal prior.
            new_priors.push_back(record.row);
        }
        // Original rows and suffix products are regenerated below.
    }
    // Also retire original rows consumed exactly inside the prefix
    // via their factors (handled above); prior rows from previous
    // marginalizations that were consumed in the prefix are simply
    // replaced by the new boundary rows.
    marginalPriors_ = std::move(new_priors);

    // Drop the leading variables.
    for (std::size_t i = 0; i < count; ++i) {
        const Key key = ordering_[i];
        linPoint_.erase(key);
        delta_.erase(key);
        position_.erase(key);
        dofs_.erase(key);
    }
    ordering_.erase(ordering_.begin(),
                    ordering_.begin() +
                        static_cast<std::ptrdiff_t>(count));
    position_.clear();
    for (std::size_t i = 0; i < ordering_.size(); ++i)
        position_[ordering_[i]] = i;

    // Rebase: fresh elimination of priors + active factors over the
    // shortened ordering.
    eliminateAll();
    refreshDelta();
}

void
IncrementalSmoother::refreshDelta()
{
    delta_.clear();
    for (std::size_t i = conditionals_.size(); i-- > 0;) {
        const Conditional &cond = conditionals_[i];
        // Suffix variables the solver already back-substituted (the
        // accelerator runs the same parent-subtract / triangular-
        // solve sequence on-device, so the values are interchangeable
        // with the host computation below).
        auto device = deviceDeltas_.find(cond.key);
        if (device != deviceDeltas_.end()) {
            delta_.emplace(cond.key, device->second);
            continue;
        }
        Vector rhs = cond.rhs;
        for (const auto &[parent, block] : cond.rParents)
            rhs -= block * delta_.at(parent);
        delta_.emplace(cond.key, mat::backSubstitute(cond.rSelf, rhs));
    }
}

Values
IncrementalSmoother::estimate() const
{
    Values out = linPoint_;
    for (const auto &[key, d] : delta_)
        out.retract(key, d);
    return out;
}

} // namespace orianna::fg
