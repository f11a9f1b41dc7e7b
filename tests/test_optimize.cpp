// Tests for the post-codegen cleanup passes: constant deduplication
// and dead-code elimination, run as the "dedup,dce" PassManager
// pipeline core::Application compiles with.

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
#include "compiler/pass.hpp"
#include "compiler/pass_manager.hpp"
#include "fg/factors.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::IsaOp;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using lie::Pose;
using mat::Vector;

/** Index of each pass's PassStats in a cleanup() run. */
constexpr std::size_t kDedup = 0;
constexpr std::size_t kDce = 1;

/**
 * Run the cleanup pipeline ("dedup,dce") over a copy of @p program;
 * @p stats, when given, receives one PassStats per pass.
 */
Program
cleanup(const Program &program,
        std::vector<comp::PassStats> *stats = nullptr)
{
    Program out = program;
    std::vector<comp::PassStats> ran =
        comp::PassManager::parse("dedup,dce").run(out);
    if (stats != nullptr)
        *stats = std::move(ran);
    return out;
}

/** A chain graph with plenty of repeated constants (identity seeds). */
FactorGraph
chainGraph(std::size_t n, Values &values, std::mt19937 &rng)
{
    FactorGraph graph;
    values = Values();
    Pose current = Pose::identity(3);
    for (std::size_t i = 0; i < n; ++i) {
        values.insert(i, current.retract(randomVector(6, rng, 0.05)));
        Pose step = randomPose(3, rng, 0.2, 1.0);
        if (i + 1 < n)
            graph.emplace<fg::BetweenFactor>(
                i, i + 1, step, fg::isotropicSigmas(6, 0.1));
        current = current.oplus(step);
    }
    graph.emplace<fg::PriorFactor>(0u, Pose::identity(3),
                                   fg::isotropicSigmas(6, 0.01));
    return graph;
}

TEST(Optimize, MergesConstantsAndShrinksProgram)
{
    std::mt19937 rng(101);
    Values values;
    FactorGraph graph = chainGraph(6, values, rng);
    const Program original = comp::compileGraph(graph, values);

    std::vector<comp::PassStats> stats;
    const Program optimized = cleanup(original, &stats);

    EXPECT_EQ(stats[kDedup].before, original.instructions.size());
    EXPECT_EQ(stats[kDce].after, optimized.instructions.size());
    EXPECT_LT(stats[kDce].after, stats[kDedup].before);
    // Between factors share identity-seed constants across factors.
    EXPECT_GT(stats[kDedup].rewrites, 3u);
    EXPECT_LE(optimized.valueSlots, original.valueSlots);

    // Dependences stay well formed.
    const std::vector<std::uint32_t> producers = optimized.producers();
    for (std::size_t i = 0; i < optimized.instructions.size(); ++i)
        comp::forEachDep(optimized.instructions[i], producers,
                         [&](std::uint32_t dep) { EXPECT_LT(dep, i); });
}

TEST(Optimize, PreservesSemantics)
{
    std::mt19937 rng(102);
    Values values;
    FactorGraph graph = chainGraph(7, values, rng);
    const Program original = comp::compileGraph(graph, values);
    const Program optimized = cleanup(original);

    comp::Executor exec_a(original);
    comp::Executor exec_b(optimized);
    const auto da = exec_a.run(values);
    const auto db = exec_b.run(values);
    ASSERT_EQ(da.size(), db.size());
    for (const auto &[key, delta] : da)
        EXPECT_LT(mat::maxDifference(delta, db.at(key)), 1e-15);
}

TEST(Optimize, RemovesUnreachableWork)
{
    // A hand-built program with a dead instruction chain.
    Program program;
    program.name = "dead-test";
    program.valueSlots = 4;
    comp::Instruction load;
    load.op = IsaOp::LOADC;
    program.editPayload(load).constVec = Vector{1.0, 2.0};
    load.dst = 0;
    load.rows = 2;
    load.cols = 1;
    program.instructions.push_back(load);

    comp::Instruction dead;
    dead.op = IsaOp::NEG;
    dead.srcs = {0};
    dead.dst = 1;
    dead.rows = 2;
    dead.cols = 1;
    program.instructions.push_back(dead); // Result never stored.

    comp::Instruction live;
    live.op = IsaOp::VADD;
    live.srcs = {0, 0};
    live.dst = 2;
    live.rows = 2;
    live.cols = 1;
    program.instructions.push_back(live);

    comp::Instruction store;
    store.op = IsaOp::STORE;
    store.srcs = {2};
    store.dst = 2;
    program.instructions.push_back(store);
    program.deltas.push_back({7, 2});

    std::vector<comp::PassStats> stats;
    const Program optimized = cleanup(program, &stats);
    EXPECT_EQ(stats[kDce].rewrites, 1u);
    EXPECT_EQ(optimized.instructions.size(), 3u);

    fg::Values values;
    comp::Executor executor(optimized);
    const auto deltas = executor.run(values);
    EXPECT_LT(mat::maxDifference(deltas.at(7), Vector{2.0, 4.0}),
              1e-15);
}

TEST(Optimize, EmptyProgramIsANoOp)
{
    Program program;
    program.name = "empty";

    std::vector<comp::PassStats> stats;
    const Program optimized = cleanup(program, &stats);
    EXPECT_EQ(optimized.instructions.size(), 0u);
    EXPECT_EQ(optimized.valueSlots, 0u);
    EXPECT_EQ(stats[kDedup].before, 0u);
    EXPECT_EQ(stats[kDce].after, 0u);
    EXPECT_EQ(stats[kDedup].rewrites, 0u);
    EXPECT_EQ(stats[kDce].rewrites, 0u);
}

TEST(Optimize, ProgramWithoutStoresIsEntirelyDead)
{
    // Without a STORE no result is observable, so DCE must drop the
    // whole chain.
    Program program;
    program.name = "no-stores";
    program.valueSlots = 2;

    comp::Instruction load;
    load.op = IsaOp::LOADC;
    program.editPayload(load).constVec = Vector{3.0, 4.0};
    load.dst = 0;
    load.rows = 2;
    load.cols = 1;
    program.instructions.push_back(load);

    comp::Instruction neg;
    neg.op = IsaOp::NEG;
    neg.srcs = {0};
    neg.dst = 1;
    neg.rows = 2;
    neg.cols = 1;
    program.instructions.push_back(neg);

    std::vector<comp::PassStats> stats;
    const Program optimized = cleanup(program, &stats);
    EXPECT_EQ(optimized.instructions.size(), 0u);
    EXPECT_EQ(optimized.valueSlots, 0u);
    EXPECT_EQ(stats[kDce].rewrites, 2u);
}

TEST(Optimize, MergesLoadsThatDifferOnlyInSlot)
{
    // Two LOADC with byte-identical payloads but different dst slots:
    // dedup must collapse them while both consumers keep working.
    Program program;
    program.name = "twin-loads";
    program.valueSlots = 3;

    for (std::uint32_t slot : {0u, 1u}) {
        comp::Instruction load;
        load.op = IsaOp::LOADC;
        program.editPayload(load).constVec = Vector{1.5, -2.5};
        load.dst = slot;
        load.rows = 2;
        load.cols = 1;
        program.instructions.push_back(load);
    }

    comp::Instruction add;
    add.op = IsaOp::VADD;
    add.srcs = {0, 1};
    add.dst = 2;
    add.rows = 2;
    add.cols = 1;
    program.instructions.push_back(add);

    comp::Instruction store;
    store.op = IsaOp::STORE;
    store.srcs = {2};
    store.dst = 2;
    program.instructions.push_back(store);
    program.deltas.push_back({3, 2});

    std::vector<comp::PassStats> stats;
    const Program optimized = cleanup(program, &stats);
    EXPECT_EQ(stats[kDedup].rewrites, 1u);
    EXPECT_EQ(optimized.instructions.size(), 3u);

    fg::Values values;
    comp::Executor executor(optimized);
    const auto deltas = executor.run(values);
    EXPECT_LT(mat::maxDifference(deltas.at(3), Vector{3.0, -5.0}),
              1e-15);
}

/** A one-element LOADC defining @p slot, its payload in @p program. */
comp::Instruction
loadConstant(Program &program, std::uint32_t slot, double value)
{
    comp::Instruction load;
    load.op = IsaOp::LOADC;
    program.editPayload(load).constVec = Vector{value};
    load.dst = slot;
    load.rows = 1;
    load.cols = 1;
    return load;
}

/** A STORE of @p slot. */
comp::Instruction
storeSlot(std::uint32_t slot)
{
    comp::Instruction store;
    store.op = IsaOp::STORE;
    store.srcs = {slot};
    store.dst = slot;
    return store;
}

/**
 * rewriteProgram() must reject @p drop with std::logic_error and leave
 * @p program byte-identical: it validates every operand before it
 * compacts anything in place.
 */
void
expectRejectedUntouched(Program program, const std::vector<bool> &drop,
                        const std::vector<std::uint32_t> &remap = {})
{
    const std::vector<std::uint8_t> before = comp::encodeProgram(program);
    EXPECT_THROW(comp::rewriteProgram(program, drop, remap),
                 std::logic_error);
    EXPECT_EQ(comp::encodeProgram(program), before);
}

TEST(Optimize, RewriteDetectsUseOfUndefinedSlot)
{
    // Dropping a producer whose result is still read must be rejected
    // immediately — this is the safety net under every pass.
    Program program;
    program.name = "undefined-slot";
    program.valueSlots = 2;
    program.instructions.push_back(loadConstant(program, 0, 1.0));
    program.instructions.push_back(storeSlot(0));
    program.deltas.push_back({1, 0});
    expectRejectedUntouched(program, {true, false}); // The only producer.

    // Only a delta binding reads the dropped slot; the instructions
    // before it would compact cleanly.
    Program delta_only;
    delta_only.name = "undefined-delta";
    delta_only.valueSlots = 2;
    delta_only.instructions.push_back(
        loadConstant(delta_only, 0, 1.0));
    delta_only.instructions.push_back(
        loadConstant(delta_only, 1, 2.0));
    delta_only.instructions.push_back(storeSlot(1));
    delta_only.deltas.push_back({1, 1});
    delta_only.deltas.push_back({2, 0});
    expectRejectedUntouched(delta_only, {true, false, false});

    // A STORE with no source names no result to stream back.
    Program sourceless;
    sourceless.name = "sourceless-store";
    sourceless.valueSlots = 1;
    sourceless.instructions.push_back(
        loadConstant(sourceless, 0, 1.0));
    comp::Instruction store;
    store.op = IsaOp::STORE;
    sourceless.instructions.push_back(store);
    expectRejectedUntouched(sourceless, {false, false});

    // Slot-indexed inputs must fit the program: a drop mask or remap
    // sized for another program, or a definition beyond valueSlots.
    expectRejectedUntouched(delta_only, {false, false});
    expectRejectedUntouched(delta_only, {false, false, false}, {0});
    // The encoder rejects that definition as well (it derives deps
    // from Program::producers), so the program is compared field by
    // field.
    Program out_of_range;
    out_of_range.valueSlots = 1;
    out_of_range.instructions.push_back(
        loadConstant(out_of_range, 1, 1.0));
    EXPECT_THROW(comp::encodeProgram(out_of_range), std::logic_error);
    EXPECT_THROW(comp::rewriteProgram(out_of_range, {false}, {}),
                 std::logic_error);
    ASSERT_EQ(out_of_range.instructions.size(), 1u);
    EXPECT_EQ(out_of_range.instructions[0].dst, 1u);
    EXPECT_EQ(out_of_range.instructions[0].payload, 1u);
    ASSERT_EQ(out_of_range.payloads.size(), 1u);
    EXPECT_EQ(out_of_range.payloads[0].constVec.size(), 1u);
    EXPECT_EQ(out_of_range.valueSlots, 1u);

    // Two survivors defining one slot break SSA; the encoder rejects
    // that program too, so only the throw is checked.
    Program twice = delta_only;
    twice.instructions[1].dst = 0;
    EXPECT_THROW(comp::rewriteProgram(twice, {false, false, false}, {}),
                 std::logic_error);

    // Payload indices must name an entry of the table (an index past
    // it cannot be encoded, so only the throw is checked), each entry
    // owned by one instruction.
    Program bad_payload = delta_only;
    bad_payload.instructions[1].payload = 3;
    EXPECT_THROW(comp::rewriteProgram(bad_payload, {false, false, false},
                                      {}),
                 std::logic_error);
    EXPECT_EQ(bad_payload.payloads.size(), 2u);
    bad_payload.instructions[1].payload = 1;
    expectRejectedUntouched(bad_payload, {false, false, false});
}

TEST(Optimize, AcceleratesOnTheSimulatedHardware)
{
    // Fewer instructions means fewer cycles on the same accelerator.
    std::mt19937 rng(103);
    Values values;
    FactorGraph graph = chainGraph(8, values, rng);
    const Program original = comp::compileGraph(graph, values);
    const Program optimized = cleanup(original);

    // (Include hw only through the executor-equivalent check here;
    // the cycle comparison lives in the ablation bench.)
    EXPECT_LT(optimized.instructions.size(),
              original.instructions.size());
}

} // namespace
