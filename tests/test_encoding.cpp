// Tests for the binary program encoding: round-trip fidelity and
// functional equivalence of decoded programs.

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
#include "fg/factors.hpp"
#include "test_fg_common.hpp"

namespace {

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using lie::Pose;
using mat::Vector;

/** A graph touching every payload kind: camera, SDF, hinge, MV. */
FactorGraph
richGraph(Values &values, std::mt19937 &rng)
{
    FactorGraph graph;
    values = Values();

    Pose pose = randomPose(3, rng, 0.2, 1.0);
    values.insert(1, pose);
    Vector landmark = pose.rotation() * Vector{0.2, -0.1, 3.0} +
                      pose.t();
    values.insert(2, landmark);
    graph.emplace<fg::CameraFactor>(
        1, 2, Vector{3.0, -2.0}, fg::CameraModel{420, 420, 320, 240},
        fg::isotropicSigmas(2, 1.0));
    // A 3-D landmark needs more than one 2-row observation.
    graph.emplace<fg::VectorPriorFactor>(2, landmark,
                                         fg::isotropicSigmas(3, 1.0));
    graph.emplace<fg::PriorFactor>(1, Pose::identity(3),
                                   fg::isotropicSigmas(6, 0.1));
    graph.emplace<fg::GPSFactor>(1, Vector{0.1, 0.2, 0.3},
                                 fg::isotropicSigmas(3, 0.5));

    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.0, 1.0}, 0.5);
    map->addObstacle(Vector{-2.0, 0.5}, 0.8);
    values.insert(3, Vector{0.9, 0.8, 0.1, 0.2});
    graph.emplace<fg::CollisionFreeFactor>(3, map, 4, 2, 0.7, 0.2);
    graph.emplace<fg::KinematicsFactor>(3, 4, 2, 2, 1.0, 0.5);
    graph.emplace<fg::VectorPriorFactor>(3, Vector(4),
                                         fg::isotropicSigmas(4, 1.0));
    return graph;
}

TEST(Encoding, RoundTripPreservesStructure)
{
    std::mt19937 rng(61);
    Values values;
    FactorGraph graph = richGraph(values, rng);
    const Program original = comp::compileGraph(graph, values);

    const auto bytes = comp::encodeProgram(original);
    EXPECT_GT(bytes.size(), 1000u);
    const Program decoded = comp::decodeProgram(bytes);

    EXPECT_EQ(decoded.name, original.name);
    EXPECT_EQ(decoded.valueSlots, original.valueSlots);
    EXPECT_EQ(decoded.algorithm, original.algorithm);
    ASSERT_EQ(decoded.instructions.size(),
              original.instructions.size());
    ASSERT_EQ(decoded.deltas.size(), original.deltas.size());
    for (std::size_t i = 0; i < original.instructions.size(); ++i) {
        const auto &a = original.instructions[i];
        const auto &b = decoded.instructions[i];
        EXPECT_EQ(a.op, b.op) << i;
        EXPECT_EQ(a.srcs, b.srcs) << i;
        EXPECT_EQ(a.deps, b.deps) << i;
        EXPECT_EQ(a.dst, b.dst) << i;
        EXPECT_EQ(a.rows, b.rows) << i;
        EXPECT_EQ(a.cols, b.cols) << i;
        EXPECT_EQ(a.phase, b.phase) << i;
        EXPECT_EQ(a.extractVector, b.extractVector) << i;
        EXPECT_EQ(original.payload(a).placements.size(),
                  decoded.payload(b).placements.size())
            << i;
    }
}

TEST(Encoding, DecodedProgramExecutesIdentically)
{
    std::mt19937 rng(62);
    Values values;
    FactorGraph graph = richGraph(values, rng);
    const Program original = comp::compileGraph(graph, values);
    const Program decoded =
        comp::decodeProgram(comp::encodeProgram(original));

    comp::Executor exec_a(original);
    comp::Executor exec_b(decoded);
    const auto da = exec_a.run(values);
    const auto db = exec_b.run(values);
    ASSERT_EQ(da.size(), db.size());
    for (const auto &[key, delta] : da)
        EXPECT_LT(mat::maxDifference(delta, db.at(key)), 1e-15);
}

TEST(Encoding, FileRoundTrip)
{
    std::mt19937 rng(63);
    Values values;
    FactorGraph graph = richGraph(values, rng);
    const Program original = comp::compileGraph(graph, values);

    const std::string path = ::testing::TempDir() + "orianna.oprog";
    comp::saveProgram(path, original);
    const Program loaded = comp::loadProgram(path);
    EXPECT_EQ(loaded.instructions.size(),
              original.instructions.size());
    EXPECT_THROW(comp::loadProgram("/nonexistent/x.oprog"),
                 std::runtime_error);
}

TEST(Encoding, CorruptInputsRejected)
{
    std::mt19937 rng(64);
    Values values;
    FactorGraph graph = richGraph(values, rng);
    auto bytes = comp::encodeProgram(comp::compileGraph(graph, values));

    // Bad magic.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(comp::decodeProgram(bad_magic), std::runtime_error);
    // Bad version.
    auto bad_version = bytes;
    bad_version[4] = 0x7f;
    EXPECT_THROW(comp::decodeProgram(bad_version), std::runtime_error);
    // Truncation at every granularity.
    for (std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                            bytes.size() - 3}) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
        EXPECT_THROW(comp::decodeProgram(truncated),
                     std::runtime_error);
    }
    // Trailing junk.
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_THROW(comp::decodeProgram(padded), std::runtime_error);
}

} // namespace
