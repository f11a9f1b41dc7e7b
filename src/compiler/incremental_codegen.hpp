#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/isa.hpp"

namespace orianna::comp {

/**
 * Structural description of one incremental update (DESIGN.md §13):
 * the shape of a suffix re-elimination — which rows feed it, how
 * each elimination step gathers them, and what is carried forward —
 * with every numeric payload stripped. Two frames with the same
 * UpdateSpec run the same compiled program with different streamed
 * inputs, which is what lets the Engine cache and the ProgramStore
 * amortize update compiles across frames.
 *
 * All variables are named by *suffix position* (0 = first
 * re-eliminated variable), not by user key: the spec is a pure
 * shape, so isomorphic suffixes on different graphs share programs.
 */
struct UpdateSpec
{
    /** One input row streamed from the host. */
    struct Row
    {
        /** Row count of the block row (rhs length). */
        std::uint32_t dim = 0;
        /** Suffix positions of its blocks, in streamed order. */
        std::vector<std::uint32_t> blocks;
    };

    /** One elimination step (suffix position == step index). */
    struct Step
    {
        /**
         * Rows gathered into [A|b], in gather order. Values below
         * rows.size() index input rows; values at or above it name
         * carry rows of earlier steps, in creation order.
         */
        std::vector<std::uint32_t> rowRefs;
        /**
         * Column layout by suffix position: the eliminated variable
         * first, then the separator in the order the host back-
         * substitutes (key order), so the on-device substitution
         * performs the same operations in the same order.
         */
        std::vector<std::uint32_t> columns;
        /** Separator rows carried forward (0 = no carry). */
        std::uint32_t kept = 0;
    };

    /** Tangent dimension of each suffix variable. */
    std::vector<std::uint32_t> dofs;
    std::vector<Row> rows;
    std::vector<Step> steps;

    std::uint8_t algorithmTag = 0;
    Precision precision = Precision::Fp64;
    std::string name = "update";
};

/**
 * The synthetic-key contract of a compiled update program: which
 * LOADV keys the host binds before each frame and which result
 * bindings it reads back. Keys are deterministic functions of the
 * spec, so the layout can be rebuilt for a program loaded from the
 * ProgramStore without re-running codegen.
 *
 * Input matrix blocks stream column-by-column (the GATHER places
 * each column straight into the dense [A|b]); every key binds a
 * plain vector in the session's Values.
 */
struct UpdateLayout
{
    struct RowKeys
    {
        /** One key per column of each block, in spec block order. */
        std::vector<std::vector<Key>> blockColumns;
        Key rhs = 0;
    };
    /** LOADV keys, one entry per spec row. */
    std::vector<RowKeys> inputs;

    struct StepKeys
    {
        /**
         * Result keys of the step's R factor, one per column of the
         * augmented system (rhs last). Each binds a vector of
         * `height` rows: the conditional rows first, then the carry
         * rows.
         */
        std::vector<Key> columns;
        std::uint32_t height = 0; //!< dv + kept.
        std::uint32_t dv = 0;
    };
    /** Result bindings, one entry per spec step. */
    std::vector<StepKeys> outputs;

    /** Result key of each suffix variable's tangent delta. */
    std::vector<Key> deltaKeys;
};

/** Deterministic host-boundary keys of @p spec (see UpdateLayout). */
UpdateLayout updateLayout(const UpdateSpec &spec);

/**
 * Content fingerprint of the update *shape*: dofs, row structure and
 * step schedule only — never numeric payloads, names or precision
 * (the Engine salts precision and pipeline the same way it does for
 * batch programs). Domain-separated from graphFingerprint so update
 * and batch programs can never collide in a cache or store.
 */
std::uint64_t updateFingerprint(const UpdateSpec &spec);

/**
 * Compile the update to the accelerator IR: LOADV-streamed input
 * rows, per-step GATHER/QR/EXTRACT mirroring the schedule, and
 * on-device back-substitution over the suffix. The program has no
 * LOADC — every number streams per frame — so one compile serves
 * every frame with this shape. Defined in codegen.cpp: it shares
 * compileGraph's elimination emitter.
 *
 * @throws std::invalid_argument when step i does not eliminate
 * position i, or gathers fewer rows than that variable's dof.
 * @throws std::out_of_range for a row reference to a carry row that
 * no earlier step produced.
 */
Program compileUpdate(const UpdateSpec &spec);

} // namespace orianna::comp
