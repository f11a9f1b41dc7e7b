#pragma once

#include <map>
#include <memory>
#include <vector>

#include "fg/factor.hpp"

namespace orianna::fg {

/**
 * One linearized factor: whitened Jacobian blocks per key plus the
 * right-hand side b = -whitened error, so that solving J delta = b is
 * the Gauss-Newton step.
 */
struct LinearRow
{
    std::map<Key, Matrix> blocks;
    Vector rhs;
    std::size_t factorIndex = 0; //!< Index of the originating factor.
};

/**
 * Linearize @p factor (graph index @p index) at @p values. Every key
 * of the factor gets a block, including blocks that are entirely zero
 * at this point, so the elimination structure stays value-independent.
 */
LinearRow linearizeFactor(const Factor &factor, std::size_t index,
                          const Values &values);

/**
 * The linearized system A delta = b in factor-row form. The row list
 * *is* the block-sparse structure of A; the dense materialization is
 * provided for the baselines and the Fig. 17/18 measurements.
 */
struct LinearSystem
{
    std::vector<LinearRow> rows;
    std::map<Key, std::size_t> dofs; //!< Tangent dim per variable.

    /** Total scalar rows. */
    std::size_t totalRows() const;

    /** Total scalar columns. */
    std::size_t totalCols() const;

    /**
     * Stacked dense [A] with columns ordered by @p ordering. Throws
     * std::out_of_range when a row's key is missing from @p ordering
     * and std::invalid_argument when a block's shape disagrees with
     * its row's rhs length or its key's dof.
     */
    Matrix toDense(const std::vector<Key> &ordering) const;

    /** Stacked right-hand side in row order. */
    Vector stackedRhs() const;
};

/**
 * A factor graph: the user-facing container of Sec. 5.1's programming
 * model. Users start from an empty graph and add() factors; the
 * optimizer and the compiler both consume the same object.
 */
class FactorGraph
{
  public:
    /** Append a factor. */
    void add(FactorPtr factor);

    /** Construct a factor in place and append it. */
    template <typename FactorT, typename... Args>
    void
    emplace(Args &&...args)
    {
        add(std::make_shared<FactorT>(std::forward<Args>(args)...));
    }

    std::size_t size() const { return factors_.size(); }
    bool empty() const { return factors_.empty(); }

    const Factor &factor(std::size_t i) const { return *factors_[i]; }
    FactorPtr factorPtr(std::size_t i) const { return factors_[i]; }

    auto begin() const { return factors_.begin(); }
    auto end() const { return factors_.end(); }

    /** Sum of factor costs: the nonlinear objective of Equ. 1. */
    double totalError(const Values &values) const;

    /** All variable keys referenced by any factor, ascending. */
    std::vector<Key> allKeys() const;

    /** key -> indices of adjacent factors. */
    std::map<Key, std::vector<std::size_t>> adjacency() const;

    /**
     * Linearize every factor at @p values (the "construct linear
     * equations" phase of Fig. 3).
     */
    LinearSystem linearize(const Values &values) const;

  private:
    std::vector<FactorPtr> factors_;
};

} // namespace orianna::fg
