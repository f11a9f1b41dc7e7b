// Tests for the ORIANNA compiler: instruction generation from MO-DFGs
// and factor-graph inference, and functional equivalence between the
// compiled program (accelerator path) and the software solver.

#include <algorithm>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "compiler/executor.hpp"
#include "compiler/incremental_codegen.hpp"
#include "fg/eliminate.hpp"
#include "fg/factors.hpp"
#include "fg/optimizer.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::IsaOp;
using comp::Program;
using fg::FactorGraph;
using fg::Key;
using fg::Values;
using lie::Pose;
using mat::Matrix;
using mat::maxDifference;
using mat::Vector;

/** Count instructions with a given opcode. */
std::size_t
countOp(const Program &program, IsaOp op)
{
    std::size_t count = 0;
    for (const auto &inst : program.instructions)
        count += (inst.op == op) ? 1 : 0;
    return count;
}

/** Compiled deltas must equal the software elimination solution. */
void
expectProgramMatchesSolver(const FactorGraph &graph, const Values &values,
                           double tol = 1e-8)
{
    const Program program = comp::compileGraph(graph, values);
    comp::Executor executor(program);
    const auto hw_delta = executor.run(values);

    fg::LinearSystem system = graph.linearize(values);
    const auto sw_delta = fg::solveLinearSystem(system, graph.allKeys());

    ASSERT_EQ(hw_delta.size(), sw_delta.size());
    for (const auto &[key, sw] : sw_delta) {
        ASSERT_TRUE(hw_delta.count(key)) << "missing delta for " << key;
        EXPECT_LT(maxDifference(hw_delta.at(key), sw), tol)
            << "delta mismatch for key " << key;
    }
}

/** Pose-graph chain with a loop closure, 2-D or 3-D. */
FactorGraph
chainGraph(std::size_t n, std::size_t dim, Values &values,
           std::mt19937 &rng)
{
    FactorGraph graph;
    values = Values();
    Pose current = Pose::identity(dim);
    std::vector<Pose> truth;
    for (std::size_t i = 0; i < n; ++i) {
        truth.push_back(current);
        values.insert(i, current.retract(randomVector(current.dof(), rng,
                                                      0.05)));
        Pose step = randomPose(dim, rng, 0.2, 1.0);
        if (i + 1 < n)
            graph.emplace<fg::BetweenFactor>(
                i, i + 1, step,
                fg::isotropicSigmas(current.dof(), 0.1));
        current = current.oplus(step);
    }
    graph.emplace<fg::PriorFactor>(
        0u, truth[0], fg::isotropicSigmas(truth[0].dof(), 0.01));
    if (n > 2)
        graph.emplace<fg::BetweenFactor>(
            0u, n - 1, truth[n - 1].ominus(truth[0]),
            fg::isotropicSigmas(truth[0].dof(), 0.1));
    return graph;
}

TEST(Codegen, InstructionStreamStructure)
{
    std::mt19937 rng(21);
    Values values;
    FactorGraph graph = chainGraph(4, 3, values, rng);
    const Program program = comp::compileGraph(graph, values);

    // One QR and one BSUB per eliminated variable.
    EXPECT_EQ(countOp(program, IsaOp::QR), 4u);
    EXPECT_EQ(countOp(program, IsaOp::BSUB), 4u);
    // Every pose streams phi and t exactly once (LOADV dedup).
    EXPECT_EQ(countOp(program, IsaOp::LOADV), 8u);
    // Forward Exp for every pose use: 4 between (2 each) + 1 prior + 1
    // loop closure (2) = 11 InputRot leaves... plus no derived Exps.
    EXPECT_GT(countOp(program, IsaOp::EXP), 8u);
    // Deltas bound for every variable.
    EXPECT_EQ(program.deltas.size(), 4u);

    // Dependences reference earlier instructions only.
    const std::vector<std::uint32_t> producers = program.producers();
    for (std::size_t i = 0; i < program.instructions.size(); ++i)
        comp::forEachDep(program.instructions[i], producers,
                         [&](std::uint32_t dep) { EXPECT_LT(dep, i); });
}

TEST(OperandList, SpillsPastThreeEntriesAndComesBackInline)
{
    comp::OperandList list;
    std::vector<std::uint32_t> expected;
    for (std::uint32_t v = 0; v < 40; ++v) {
        list.push_back(v * 7);
        expected.push_back(v * 7);
        ASSERT_TRUE(std::equal(list.begin(), list.end(),
                               expected.begin(), expected.end()))
            << v;
        // Three entries fit in the record; the fourth spills.
        EXPECT_EQ(list.spillBytes() == 0, v < 3) << v;
    }

    // A copy takes one exact block and owns it; a move steals it.
    comp::OperandList copy = list;
    EXPECT_EQ(copy, list);
    EXPECT_EQ(copy.spillBytes(), 40 * sizeof(std::uint32_t));
    copy[0] = 99;
    EXPECT_EQ(list[0], 0u);
    const comp::OperandList moved = std::move(copy);
    EXPECT_EQ(moved[0], 99u);
    EXPECT_EQ(moved.size(), 40u);

    // Resizing keeps the entries, zero-fills new ones, keeps the block
    // while the entries fit it and frees it at three or fewer.
    const std::size_t block = list.spillBytes();
    list.resize(10);
    EXPECT_EQ(list.spillBytes(), block);
    list.resize(12);
    EXPECT_TRUE(std::equal(list.begin(), list.begin() + 10,
                           expected.begin()));
    EXPECT_EQ(list[10], 0u);
    EXPECT_EQ(list[11], 0u);
    list.resize(2);
    EXPECT_EQ(list.spillBytes(), 0u);
    EXPECT_EQ(list, (comp::OperandList{0, 7}));
    list.resize(3);
    EXPECT_EQ(list, (comp::OperandList{0, 7, 0}));

    // Assignment in both directions between inline and spilled lists.
    comp::OperandList target = moved;
    target = list;
    EXPECT_EQ(target, list);
    EXPECT_EQ(target.spillBytes(), 0u);
    const comp::OperandList &alias = target;
    target = alias;
    EXPECT_EQ(target, list);
    target = moved;
    EXPECT_EQ(target, moved);
    target = comp::OperandList{5};
    EXPECT_EQ(target.size(), 1u);
    EXPECT_EQ(target[0], 5u);
}

TEST(Codegen, ListingIsPrintable)
{
    std::mt19937 rng(22);
    Values values;
    FactorGraph graph = chainGraph(3, 2, values, rng);
    const Program program = comp::compileGraph(graph, values);
    const std::string listing = program.str();
    EXPECT_NE(listing.find("QR"), std::string::npos);
    EXPECT_NE(listing.find("GATHER"), std::string::npos);
    EXPECT_NE(listing.find("BSUB"), std::string::npos);
    const auto histogram = program.opHistogram();
    std::size_t total = 0;
    for (std::size_t c : histogram)
        total += c;
    EXPECT_EQ(total, program.instructions.size());
}

class ProgramVsSolver : public ::testing::TestWithParam<int>
{};

TEST_P(ProgramVsSolver, Chain2d)
{
    std::mt19937 rng(100 + GetParam());
    Values values;
    FactorGraph graph = chainGraph(5, 2, values, rng);
    expectProgramMatchesSolver(graph, values);
}

TEST_P(ProgramVsSolver, Chain3d)
{
    std::mt19937 rng(200 + GetParam());
    Values values;
    FactorGraph graph = chainGraph(5, 3, values, rng);
    expectProgramMatchesSolver(graph, values);
}

TEST_P(ProgramVsSolver, LocalizationWithLandmarks)
{
    std::mt19937 rng(300 + GetParam());
    Values values;
    FactorGraph graph;
    fg::CameraModel cam{380, 380, 320, 240};
    std::vector<Pose> poses;
    for (int i = 0; i < 3; ++i)
        poses.emplace_back(Vector{0.05 * i, -0.02 * i, 0.1 * i},
                           Vector{0.8 * i, 0.1 * i, 0.0});
    std::vector<Vector> landmarks{Vector{0.5, 0.4, 3.0},
                                  Vector{1.5, -0.5, 4.0}};
    auto pixel = [&](const Pose &x, const Vector &l) {
        Vector local = x.rotation().transpose() * (l - x.t());
        return Vector{cam.fx * local[0] / local[2] + cam.cx,
                      cam.fy * local[1] / local[2] + cam.cy};
    };
    for (int p = 0; p < 3; ++p)
        for (int l = 0; l < 2; ++l)
            graph.emplace<fg::CameraFactor>(
                p, 10 + l, pixel(poses[p], landmarks[l]), cam,
                fg::isotropicSigmas(2, 1.0));
    for (int p = 0; p + 1 < 3; ++p)
        graph.emplace<fg::IMUFactor>(
            p, p + 1, poses[p + 1].ominus(poses[p]),
            fg::isotropicSigmas(6, 0.05));
    graph.emplace<fg::PriorFactor>(0, poses[0],
                                   fg::isotropicSigmas(6, 0.01));
    graph.emplace<fg::GPSFactor>(2, poses[2].t(),
                                 fg::isotropicSigmas(3, 0.5));

    values = Values();
    for (int p = 0; p < 3; ++p)
        values.insert(p, poses[p].retract(randomVector(6, rng, 0.03)));
    for (int l = 0; l < 2; ++l)
        values.insert(10 + l, landmarks[l] + randomVector(3, rng, 0.05));

    expectProgramMatchesSolver(graph, values, 1e-7);
}

TEST_P(ProgramVsSolver, PlanningWithObstacles)
{
    std::mt19937 rng(400 + GetParam());
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.5, 0.5}, 0.5);

    FactorGraph graph;
    Values values;
    const std::size_t steps = 6;
    for (std::size_t k = 0; k < steps; ++k) {
        values.insert(k, Vector{0.6 * k, 0.05 * k, 0.6, 0.05} +
                             randomVector(4, rng, 0.02));
        if (k + 1 < steps)
            graph.emplace<fg::SmoothFactor>(k, k + 1, 2, 0.5,
                                            fg::isotropicSigmas(4, 0.3));
        graph.emplace<fg::CollisionFreeFactor>(k, map, 4, 2, 0.8, 0.1);
        graph.emplace<fg::KinematicsFactor>(k, 4, 2, 2, 1.0, 0.5);
    }
    graph.emplace<fg::VectorPriorFactor>(0u, Vector{0, 0, 0.6, 0.05},
                                         fg::isotropicSigmas(4, 0.01));
    graph.emplace<fg::VectorPriorFactor>(
        steps - 1, Vector{3.0, 0.25, 0.6, 0.05},
        fg::isotropicSigmas(4, 0.01));

    expectProgramMatchesSolver(graph, values, 1e-7);
}

TEST_P(ProgramVsSolver, ControlHorizon)
{
    std::mt19937 rng(500 + GetParam());
    const std::size_t horizon = 5;
    Matrix a = Matrix::identity(3);
    a(0, 1) = 0.1;
    Matrix bmat(3, 2);
    bmat(1, 0) = 0.1;
    bmat(2, 1) = 0.1;

    FactorGraph graph;
    Values values;
    for (std::size_t k = 0; k <= horizon; ++k)
        values.insert(k, randomVector(3, rng, 0.5));
    for (std::size_t k = 0; k < horizon; ++k)
        values.insert(100 + k, randomVector(2, rng, 0.2));

    graph.emplace<fg::VectorPriorFactor>(0u, values.vector(0),
                                         fg::isotropicSigmas(3, 1e-2));
    for (std::size_t k = 0; k < horizon; ++k) {
        graph.emplace<fg::DynamicsFactor>(k, 100 + k, k + 1, a, bmat,
                                          fg::isotropicSigmas(3, 1e-2));
        graph.emplace<fg::VectorPriorFactor>(k + 1, Vector(3),
                                             fg::isotropicSigmas(3, 1.0));
        graph.emplace<fg::VectorPriorFactor>(100 + k, Vector(2),
                                             fg::isotropicSigmas(2, 2.0));
    }
    expectProgramMatchesSolver(graph, values, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramVsSolver, ::testing::Range(0, 4));

TEST(Program, IteratedStepsMatchGaussNewton)
{
    // Running the compiled program iteratively (the accelerator loop of
    // Fig. 12) must track the software Gauss-Newton optimizer.
    std::mt19937 rng(31);
    Values values;
    FactorGraph graph = chainGraph(5, 3, values, rng);
    const Program program = comp::compileGraph(graph, values);

    Values hw = values;
    for (int iter = 0; iter < 5; ++iter)
        hw = comp::applyProgramStep(program, hw);

    fg::GaussNewtonParams params;
    params.maxIterations = 5;
    params.deltaTol = 0.0;
    params.absoluteErrorTol = 0.0;
    params.relativeErrorTol = 0.0;
    auto sw = fg::optimize(graph, values, params);

    for (Key key : graph.allKeys())
        EXPECT_LT(lie::poseDistance(hw.pose(key), sw.values.pose(key)),
                  1e-7);
    EXPECT_LT(graph.totalError(hw), 1e-9);
}

TEST(Program, CustomOrderingRespected)
{
    std::mt19937 rng(32);
    Values values;
    FactorGraph graph = chainGraph(4, 2, values, rng);

    comp::CompileOptions options;
    options.ordering = {3, 1, 2, 0};
    const Program program = comp::compileGraph(graph, values, options);
    comp::Executor executor(program);
    const auto hw_delta = executor.run(values);

    fg::LinearSystem system = graph.linearize(values);
    const auto sw_delta =
        fg::solveLinearSystem(system, {3, 1, 2, 0});
    for (const auto &[key, sw] : sw_delta)
        EXPECT_LT(maxDifference(hw_delta.at(key), sw), 1e-8);
}

TEST(Program, AlgorithmTagPropagates)
{
    std::mt19937 rng(33);
    Values values;
    FactorGraph graph = chainGraph(3, 2, values, rng);
    comp::CompileOptions options;
    options.algorithmTag = 7;
    const Program program = comp::compileGraph(graph, values, options);
    for (const auto &inst : program.instructions)
        EXPECT_EQ(inst.algorithm, 7);
}

TEST(Program, MissingVariableThrows)
{
    FactorGraph graph;
    graph.emplace<fg::PriorFactor>(1u, Pose::identity(2),
                                   fg::isotropicSigmas(3, 1.0));
    Values values;
    values.insert(1, Pose::identity(2));
    comp::CompileOptions options;
    options.ordering = {1, 2}; // Key 2 does not exist in the graph.
    EXPECT_THROW(comp::compileGraph(graph, values, options),
                 std::runtime_error);
}

/**
 * A two-variable update spec: a prior row on position 0 and a
 * between row on positions 0 and 1. Step 0 carries three rows, which
 * step 1 gathers as row reference 2.
 */
comp::UpdateSpec
twoVariableUpdate()
{
    comp::UpdateSpec spec;
    spec.dofs = {3, 3};
    spec.rows = {{3, {0}}, {3, {0, 1}}};
    spec.steps = {{{0, 1}, {0, 1}, 3}, {{2}, {1}, 0}};
    return spec;
}

TEST(CompileUpdate, StepMustEliminateItsOwnPosition)
{
    EXPECT_NO_THROW(comp::compileUpdate(twoVariableUpdate()));
    comp::UpdateSpec spec = twoVariableUpdate();
    spec.steps[0].columns = {1, 0};
    EXPECT_THROW(comp::compileUpdate(spec), std::invalid_argument);
}

TEST(CompileUpdate, UnderdeterminedStepThrows)
{
    // Step 1 gathers only its two carried rows for a 3-dof variable.
    comp::UpdateSpec spec = twoVariableUpdate();
    spec.steps[0].kept = 2;
    EXPECT_THROW(comp::compileUpdate(spec), std::invalid_argument);
}

TEST(CompileUpdate, ReferenceToAnUnbuiltCarryThrows)
{
    // Step 0 cannot gather the carry row it has not produced yet.
    comp::UpdateSpec spec = twoVariableUpdate();
    spec.steps[0].rowRefs = {0, 1, 2};
    EXPECT_THROW(comp::compileUpdate(spec), std::out_of_range);
}

TEST(Program, ProducersDeriveTheDependences)
{
    // Slot 4 has no producer (only hand-built programs have one),
    // slot 1 is read twice, and the STORE defines nothing.
    Program program;
    program.valueSlots = 5;
    comp::Instruction load;
    load.op = IsaOp::LOADV;
    load.dst = 1;
    comp::Instruction twice;
    twice.op = IsaOp::VADD;
    twice.dst = 2;
    twice.srcs = {1, 1};
    comp::Instruction partial;
    partial.op = IsaOp::VSUB;
    partial.dst = 3;
    partial.srcs = {4, 2};
    comp::Instruction store;
    store.op = IsaOp::STORE;
    store.dst = 3;
    store.srcs = {3};
    program.instructions = {load, twice, partial, store};

    const std::vector<std::uint32_t> producers = program.producers();
    EXPECT_EQ(producers, (std::vector<std::uint32_t>{
                             comp::kNoProducer, 0, 1, 2,
                             comp::kNoProducer}));
    std::vector<std::vector<std::uint32_t>> deps;
    for (const comp::Instruction &inst : program.instructions) {
        deps.emplace_back();
        comp::forEachDep(inst, producers, [&](std::uint32_t dep) {
            deps.back().push_back(dep);
        });
    }
    EXPECT_EQ(deps, (std::vector<std::vector<std::uint32_t>>{
                        {}, {0, 0}, {1}, {2}}));

    Program bad = program;
    bad.valueSlots = 3; // The VSUB's dst and src 4 fall outside.
    EXPECT_THROW(bad.producers(), std::logic_error);
    bad = program;
    bad.instructions[2].dst = 1; // Defined twice.
    EXPECT_THROW(bad.producers(), std::logic_error);
    bad = program;
    bad.instructions[1].srcs = {1, 5};
    EXPECT_THROW(bad.producers(), std::logic_error);
}

TEST(Program, Fig11LevelParallelism)
{
    // The Equ. 3 between-factor DFG must expose instruction-level
    // parallelism: at least two instructions share all-satisfied deps
    // at some point (the L3 RR/RV pair of Fig. 11).
    Values values;
    values.insert(1, Pose::identity(3));
    values.insert(2, Pose(Vector{0.1, 0.0, 0.2}, Vector{1, 0, 0}));
    FactorGraph graph;
    graph.emplace<fg::BetweenFactor>(1, 2, Pose::identity(3),
                                     fg::isotropicSigmas(6, 1.0));
    graph.emplace<fg::PriorFactor>(1, Pose::identity(3),
                                   fg::isotropicSigmas(6, 1.0));
    const Program program = comp::compileGraph(graph, values);

    // Level-schedule the instructions by dependence depth.
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
    std::size_t max_width = 0;
    for (const auto &[lvl, w] : width)
        max_width = std::max(max_width, w);
    EXPECT_GE(max_width, 2u)
        << "no instruction-level parallelism found";
}

} // namespace
