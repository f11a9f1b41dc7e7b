#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/isa.hpp"

namespace orianna::comp {

/**
 * What one pass did to one program: sizes around the rewrite, the
 * number of pass-specific rewrites (constants merged, expressions
 * shared, pairs fused, ...), and the wall time spent. PassManager
 * collects one entry per pass per run; the runtime Engine folds them
 * into its compile diagnostics and the metrics registry.
 */
struct PassStats
{
    std::string pass;           //!< Pass name ("dedup", "cse", ...).
    std::size_t before = 0;     //!< Instructions entering the pass.
    std::size_t after = 0;      //!< Instructions leaving the pass.
    std::size_t rewrites = 0;   //!< Pass-specific rewrite count.
    std::uint64_t wallUs = 0;   //!< Wall time of the rewrite.
    bool verified = false;      //!< Equivalence check ran and passed.
};

/**
 * One compiler IR pass over a compiled Program.
 *
 * The contract (DESIGN.md §7):
 *  - run() rewrites @p program in place and returns the number of
 *    rewrites applied (0 means the pass did not fire);
 *  - the rewritten program must compute bit-identical deltas on every
 *    input, and must not execute more MACs than before (the
 *    PassManager's verification hook enforces both on a probe input);
 *  - the rewritten program must be well formed: SSA slots (each slot
 *    written by exactly one instruction before any use), compact slot
 *    numbering, and a compact payload table (every entry referenced
 *    by exactly one instruction). Passes built on rewriteProgram()
 *    get this for free. Dependences are not stored: they derive from
 *    the srcs (Program::producers), so a pass never maintains them;
 *  - run() must be deterministic and stateless (one pass object may
 *    be shared by concurrent compiles).
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable name used by --passes lists and metrics keys. */
    virtual const char *name() const = 0;

    /** One-line description for --list-passes. */
    virtual const char *description() const = 0;

    /** Apply the rewrite; returns the number of rewrites applied. */
    virtual std::size_t run(Program &program) const = 0;
};

/**
 * Shared rewrite engine for instruction-dropping passes.
 *
 * Compacts @p program in place, keeping instruction order:
 * instructions with @p drop set are removed and the survivors moved
 * down (never copied), every operand (srcs, delta bindings) is first
 * redirected through @p slot_remap (indexed by slot: old dst slot ->
 * replacement dst slot, for merge-style passes; identity for
 * unmerged slots, or empty when nothing merges), and value slots are
 * renumbered compactly in definition order. The payload table keeps
 * only the survivors' entries, in instruction order, so no entry of a
 * dropped instruction (or no entry at all) is left behind. @p drop
 * has one entry per instruction; slots are compact, so every slot is
 * below valueSlots.
 *
 * Every operand and delta binding is checked before anything
 * changes, so a throw leaves @p program untouched.
 *
 * @throws std::logic_error when a surviving instruction (or delta
 *         binding) reads a slot with no surviving producer — the
 *         use-of-undefined-slot detection the pipeline relies on to
 *         reject a broken pass immediately — when a surviving STORE
 *         has no source, when two survivors define one slot, or when
 *         a surviving payload index is out of range or shared by two
 *         survivors.
 */
void rewriteProgram(Program &program, const std::vector<bool> &drop,
                    const std::vector<std::uint32_t> &slot_remap);

} // namespace orianna::comp
