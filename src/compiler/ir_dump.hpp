#pragma once

#include <string>

#include "compiler/isa.hpp"

namespace orianna::comp {

/**
 * Graphviz rendering of an instruction stream: one node per
 * instruction (opcode, shape, destination slot), one edge per slot
 * dependence (producer -> consumer, as the srcs imply them:
 * Program::producers). Nodes are coloured by phase — forward
 * lowering, elimination and back-substitution — so the three bands of
 * a Gauss-Newton program are visible at a glance.
 */
std::string programToDot(const Program &program);

/**
 * Human-readable listing of @p program: the Program::str() body plus
 * per-instruction phase/factor annotations. This is what
 * `orianna_compile --dump-ir` writes before and after the pipeline.
 */
std::string programListing(const Program &program);

} // namespace orianna::comp
