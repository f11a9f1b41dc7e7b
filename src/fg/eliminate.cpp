#include "fg/eliminate.hpp"

#include <algorithm>
#include <stdexcept>

#include "matrix/qr.hpp"

namespace orianna::fg {

void
BayesNet::push(Conditional conditional)
{
    conditionals_.push_back(std::move(conditional));
}

std::map<Key, Vector>
BayesNet::solve(EliminationStats *stats) const
{
    std::map<Key, Vector> solution;
    for (std::size_t i = conditionals_.size(); i-- > 0;) {
        const Conditional &c = conditionals_[i];
        Vector rhs = c.rhs;
        for (const auto &[parent, block] : c.rParents)
            rhs -= block * solution.at(parent);
        Vector delta = mat::backSubstitute(c.rSelf, rhs);
        if (stats != nullptr) {
            stats->backSubOps.push_back({c.rSelf.rows(), c.rSelf.cols(),
                                         c.rSelf.density()});
        }
        solution.emplace(c.key, std::move(delta));
    }
    return solution;
}

RowShape
shapeOf(const LinearRow &row)
{
    RowShape shape;
    shape.keys.reserve(row.blocks.size());
    for (const auto &[key, block] : row.blocks)
        shape.keys.push_back(key);
    shape.dim = row.rhs.size();
    return shape;
}

SuffixSchedule
scheduleElimination(std::vector<RowShape> rows,
                    std::vector<Key> variables,
                    const std::map<Key, std::size_t> &dofs)
{
    SuffixSchedule sched;
    sched.variables = std::move(variables);
    sched.dofs.reserve(sched.variables.size());
    sched.steps.reserve(sched.variables.size());
    std::vector<bool> consumed(rows.size(), false);
    for (Key v : sched.variables) {
        // Gather the rows adjacent to v (Fig. 5 step 1).
        SuffixSchedule::Step plan;
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (!consumed[i] &&
                std::find(rows[i].keys.begin(), rows[i].keys.end(), v) !=
                    rows[i].keys.end())
                plan.rowRefs.push_back(i);
        if (plan.rowRefs.empty())
            throw std::runtime_error(
                "elimination: variable " + std::to_string(v) +
                " has no adjacent factors (underdetermined)");

        // Involved columns: v first, then the other keys ascending.
        plan.columns.push_back(v);
        for (std::size_t i : plan.rowRefs)
            for (Key key : rows[i].keys)
                if (key != v &&
                    std::find(plan.columns.begin(), plan.columns.end(),
                              key) == plan.columns.end())
                    plan.columns.push_back(key);
        std::sort(plan.columns.begin() + 1, plan.columns.end());

        for (Key key : plan.columns)
            plan.ncols += dofs.at(key);
        for (std::size_t i : plan.rowRefs) {
            plan.nrows += rows[i].dim;
            consumed[i] = true;
        }
        const std::size_t dv = dofs.at(v);
        if (plan.nrows < dv)
            throw std::runtime_error("elimination: variable " +
                                     std::to_string(v) +
                                     " is underdetermined");
        sched.dofs.push_back(dv);

        // The rows below the conditional become a new factor over the
        // separator (Fig. 5 step 4).
        if (plan.nrows > dv && plan.columns.size() > 1)
            plan.kept = std::min(plan.nrows, plan.ncols) - dv;
        if (plan.kept > 0) {
            rows.push_back({std::vector<Key>(plan.columns.begin() + 1,
                                             plan.columns.end()),
                            plan.kept});
            consumed.push_back(false);
        }
        sched.steps.push_back(std::move(plan));
    }
    return sched;
}

SuffixSolution
solveSuffixOnCpu(const SuffixSchedule &schedule,
                 const std::vector<const LinearRow *> &rows,
                 EliminationStats *stats)
{
    std::map<Key, std::size_t> dof;
    for (std::size_t i = 0; i < schedule.variables.size(); ++i)
        dof[schedule.variables[i]] = schedule.dofs[i];

    SuffixSolution sol;
    // offsets[c] is the first column of plan.columns[c] in [A|b];
    // offsets.back() is the column count.
    std::vector<std::size_t> offsets;
    for (const SuffixSchedule::Step &plan : schedule.steps) {
        const std::vector<Key> &columns = plan.columns;
        offsets.clear();
        std::size_t ncols = 0;
        for (Key key : columns) {
            offsets.push_back(ncols);
            ncols += dof.at(key);
        }
        offsets.push_back(ncols);
        const Key v = columns.front();
        const std::size_t dv = offsets[1];
        // The variable leads; its parents follow in ascending order.
        auto columnOf = [&columns](Key key) -> std::size_t {
            if (key == columns.front())
                return 0;
            const auto it =
                std::lower_bound(columns.begin() + 1, columns.end(), key);
            if (it == columns.end() || *it != key)
                throw std::invalid_argument(
                    "solveSuffixOnCpu: row block outside the step's "
                    "columns");
            return static_cast<std::size_t>(it - columns.begin());
        };

        // Stack the small dense system (Fig. 5 step 2).
        Matrix abar(plan.nrows, ncols);
        Vector bbar(plan.nrows);
        std::size_t row_offset = 0;
        for (std::size_t ref : plan.rowRefs) {
            const LinearRow &lr = ref < rows.size()
                                      ? *rows[ref]
                                      : sol.carries[ref - rows.size()];
            for (const auto &[key, block] : lr.blocks)
                abar.setBlock(row_offset, offsets[columnOf(key)], block);
            bbar.setSegment(row_offset, lr.rhs);
            row_offset += lr.rhs.size();
        }

        if (stats != nullptr)
            stats->qrOps.push_back(
                {abar.rows(), abar.cols(), abar.density()});

        // Partial QR (Fig. 5 step 3), in place on the gathered system.
        const mat::QrResult qr =
            mat::householderQr(std::move(abar), std::move(bbar));

        Conditional cond;
        cond.key = v;
        cond.rSelf = qr.r.block(0, 0, dv, dv);
        cond.rhs = qr.rhs.segment(0, dv);
        for (std::size_t c = 1; c < columns.size(); ++c)
            cond.rParents.emplace_hint(
                cond.rParents.end(), columns[c],
                qr.r.block(0, offsets[c], dv, offsets[c + 1] - offsets[c]));
        sol.conditionals.push_back(std::move(cond));

        if (plan.kept > 0) {
            LinearRow fresh;
            for (std::size_t c = 1; c < columns.size(); ++c)
                fresh.blocks.emplace_hint(
                    fresh.blocks.end(), columns[c],
                    qr.r.block(dv, offsets[c], plan.kept,
                               offsets[c + 1] - offsets[c]));
            fresh.rhs = qr.rhs.segment(dv, plan.kept);
            sol.carries.push_back(std::move(fresh));
        }
    }
    return sol;
}

BayesNet
eliminate(const LinearSystem &system, const std::vector<Key> &ordering,
          EliminationStats *stats)
{
    // Validate the ordering covers the system exactly.
    {
        std::vector<Key> sorted = ordering;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end())
            throw std::invalid_argument("eliminate: duplicate key");
        std::vector<Key> expected;
        for (const auto &[key, dof] : system.dofs)
            expected.push_back(key);
        if (sorted != expected)
            throw std::invalid_argument(
                "eliminate: ordering must cover every variable once");
    }

    std::vector<RowShape> shapes;
    std::vector<const LinearRow *> rows;
    shapes.reserve(system.rows.size());
    rows.reserve(system.rows.size());
    for (const LinearRow &row : system.rows) {
        shapes.push_back(shapeOf(row));
        rows.push_back(&row);
    }
    SuffixSolution solution = solveSuffixOnCpu(
        scheduleElimination(std::move(shapes), ordering, system.dofs),
        rows, stats);

    BayesNet bayes;
    for (Conditional &cond : solution.conditionals)
        bayes.push(std::move(cond));
    return bayes;
}

std::map<Key, Vector>
solveLinearSystem(const LinearSystem &system,
                  const std::vector<Key> &ordering,
                  EliminationStats *stats)
{
    return eliminate(system, ordering, stats).solve(stats);
}

} // namespace orianna::fg
