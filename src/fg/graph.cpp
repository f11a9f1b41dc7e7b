#include "fg/graph.hpp"

#include <stdexcept>

namespace orianna::fg {

std::size_t
LinearSystem::totalRows() const
{
    std::size_t total = 0;
    for (const LinearRow &row : rows)
        total += row.rhs.size();
    return total;
}

std::size_t
LinearSystem::totalCols() const
{
    std::size_t total = 0;
    for (const auto &[key, dof] : dofs)
        total += dof;
    return total;
}

Matrix
LinearSystem::toDense(const std::vector<Key> &ordering) const
{
    std::map<Key, std::size_t> col_offset;
    std::size_t cols = 0;
    for (Key key : ordering) {
        col_offset[key] = cols;
        cols += dofs.at(key);
    }

    Matrix out(totalRows(), cols);
    std::size_t row_offset = 0;
    for (const LinearRow &row : rows) {
        for (const auto &[key, block] : row.blocks) {
            const std::size_t col = col_offset.at(key);
            if (block.rows() != row.rhs.size() ||
                block.cols() != dofs.at(key))
                throw std::invalid_argument(
                    "LinearSystem::toDense: block shape mismatch");
            out.setBlock(row_offset, col, block);
        }
        row_offset += row.rhs.size();
    }
    return out;
}

Vector
LinearSystem::stackedRhs() const
{
    Vector out;
    for (const LinearRow &row : rows)
        out = out.concat(row.rhs);
    return out;
}

LinearRow
linearizeFactor(const Factor &factor, std::size_t index,
                const Values &values)
{
    LinearRow row;
    row.factorIndex = index;
    row.blocks = factor.whitenedJacobians(values);
    row.rhs = -factor.whitenedError(values);
    // A factor may reference a variable whose Jacobian block is
    // entirely zero at this linearization point (e.g. an inactive
    // hinge); keep the structural block so the elimination order
    // stays value-independent, as the compiler requires.
    for (Key key : factor.keys())
        if (row.blocks.count(key) == 0)
            row.blocks.emplace(key, Matrix(factor.dim(), values.dof(key)));
    return row;
}

void
FactorGraph::add(FactorPtr factor)
{
    if (!factor)
        throw std::invalid_argument("FactorGraph::add: null factor");
    factors_.push_back(std::move(factor));
}

double
FactorGraph::totalError(const Values &values) const
{
    double total = 0.0;
    for (const FactorPtr &factor : factors_)
        total += factor->cost(values);
    return total;
}

std::vector<Key>
FactorGraph::allKeys() const
{
    std::map<Key, bool> seen;
    for (const FactorPtr &factor : factors_)
        for (Key key : factor->keys())
            seen[key] = true;
    std::vector<Key> out;
    out.reserve(seen.size());
    for (const auto &[key, flag] : seen)
        out.push_back(key);
    return out;
}

std::map<Key, std::vector<std::size_t>>
FactorGraph::adjacency() const
{
    std::map<Key, std::vector<std::size_t>> adj;
    for (std::size_t i = 0; i < factors_.size(); ++i)
        for (Key key : factors_[i]->keys())
            adj[key].push_back(i);
    return adj;
}

LinearSystem
FactorGraph::linearize(const Values &values) const
{
    LinearSystem system;
    system.rows.reserve(factors_.size());
    for (std::size_t i = 0; i < factors_.size(); ++i) {
        system.rows.push_back(linearizeFactor(*factors_[i], i, values));
        for (Key key : factors_[i]->keys())
            system.dofs[key] = values.dof(key);
    }
    return system;
}

} // namespace orianna::fg
