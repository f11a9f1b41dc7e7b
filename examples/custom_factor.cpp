// Customized factors (Sec. 5.1, Equ. 3) and what the compiler does
// with them (Sec. 5.2, Fig. 11).
//
// A user defines a new constraint factor by writing its error
// expression over the unified pose representation:
//
//   f(x_i, x_j) = (x_i (-) x_j) (-) z_ij
//
// The expression builder lowers it onto the Tbl. 3 primitives; the
// compiler then derives BOTH the error instructions (forward
// traversal) and the derivative instructions (backward propagation)
// automatically, and the listing below shows the level-parallel
// instruction stream of Fig. 11.

#include <algorithm>
#include <cstdio>
#include <map>

#include "compiler/codegen.hpp"
#include "compiler/executor.hpp"
#include "fg/factors.hpp"
#include "fg/optimizer.hpp"

using namespace orianna;
using fg::Dfg;
using fg::PoseExpr;
using fg::Values;
using lie::Pose;
using mat::Vector;

int
main()
{
    // The constraint z_ij between two poses.
    const Pose z(Vector{0.1, -0.05, 0.2}, Vector{1.0, 0.5, 0.0});

    // --- 1. Define the custom factor from its error expression ----
    Dfg dfg;
    PoseExpr xi = dfg.inputPose(1);
    PoseExpr xj = dfg.inputPose(2);
    PoseExpr ze = dfg.constPose(z);
    dfg.addPoseOutput(dfg.ominus(dfg.ominus(xi, xj), ze)); // Equ. 3.

    fg::FactorGraph graph;
    graph.emplace<fg::ExpressionFactor>(std::move(dfg),
                                        fg::isotropicSigmas(6, 0.1),
                                        "PoseConstraint");
    graph.emplace<fg::PriorFactor>(2, Pose::identity(3),
                                   fg::isotropicSigmas(6, 0.01));

    // --- 2. Optimize with it like any library factor --------------
    Values initial;
    initial.insert(1, Pose::identity(3));
    initial.insert(2, Pose::identity(3));
    auto result = fg::optimize(graph, initial);
    std::printf("optimized x1: %s\n", result.values.pose(1).str().c_str());
    std::printf("expected  x1 = x2 (+) z: %s\n",
                result.values.pose(2).oplus(z).str().c_str());
    std::printf("final objective %.2e after %zu iterations\n\n",
                result.finalError, result.iterations);

    // --- 3. Inspect the compiled MO-DFG instructions (Fig. 11) ----
    const comp::Program program = comp::compileGraph(graph, initial);
    std::printf("%s\n", program.str().c_str());

    // Level schedule: instructions whose dependences are satisfied at
    // the same depth can execute in parallel (the L1..Ln of Fig. 11).
    // Dependences are the producers of each instruction's operands.
    const std::vector<std::uint32_t> producers = program.producers();
    std::vector<std::size_t> level(program.instructions.size(), 0);
    std::map<std::size_t, std::size_t> width;
    for (std::size_t i = 0; i < program.instructions.size(); ++i) {
        comp::forEachDep(program.instructions[i], producers,
                         [&](std::uint32_t dep) {
                             level[i] = std::max(level[i], level[dep] + 1);
                         });
        ++width[level[i]];
    }
    std::printf("dependence levels: %zu, widest level has %zu parallel "
                "instructions\n",
                width.size(),
                std::max_element(width.begin(), width.end(),
                                 [](auto &a, auto &b) {
                                     return a.second < b.second;
                                 })
                    ->second);
    return 0;
}
