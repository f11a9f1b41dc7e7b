// Tests for the binary program encoding: round-trip fidelity,
// functional equivalence of decoded programs, and the decoder's
// rejection of corrupt or structurally inconsistent bytes.

#include <cstdint>
#include <vector>

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

/**
 * One instruction as the encoding lays it out, with the deps and
 * placement srcs the format carries spelled out, so a test can write
 * bytes that disagree with the srcs.
 */
struct RawInstruction
{
    comp::IsaOp op = comp::IsaOp::LOADV;
    std::uint32_t rows = 3;
    std::uint32_t dst = 0;
    std::vector<std::uint32_t> srcs;
    std::vector<std::uint32_t> deps;
    fg::Key key = 0;
    struct Placement
    {
        std::uint32_t src, row;
    };
    std::vector<Placement> placements; //!< Rhs vectors at column 0.
};

/** Little-endian append of @p value. */
template <typename T>
void
put(std::vector<std::uint8_t> &out, T value)
{
    const auto *raw = reinterpret_cast<const std::uint8_t *>(&value);
    out.insert(out.end(), raw, raw + sizeof(T));
}

/**
 * A version-3 program over @p slots value slots, laid out as
 * encodeProgram lays it out, binding key 9 to slot @p delta_slot.
 */
std::vector<std::uint8_t>
rawProgram(std::uint64_t slots, const std::vector<RawInstruction> &instrs,
           std::uint32_t delta_slot = 2)
{
    std::vector<std::uint8_t> out;
    put<std::uint32_t>(out, 0x414e524f); // "ORNA".
    put<std::uint32_t>(out, 3);          // Version.
    put<std::uint32_t>(out, 3);          // Name length.
    out.insert(out.end(), {'r', 'a', 'w'});
    put<std::uint8_t>(out, 0); // Algorithm.
    put<std::uint8_t>(out, 0); // Fp64.
    put<std::uint64_t>(out, slots);
    put<std::uint32_t>(out, 1); // One delta binding.
    put<fg::Key>(out, 9);
    put(out, delta_slot);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(instrs.size()));
    for (const RawInstruction &inst : instrs) {
        put(out, static_cast<std::uint8_t>(inst.op));
        put<std::uint8_t>(out, 0); // Algorithm.
        put<std::uint8_t>(out, 0); // Phase.
        put<std::uint8_t>(out, 0); // extractVector.
        put(out, inst.rows);
        put<std::uint32_t>(out, 1); // cols.
        put<std::uint32_t>(out, 0); // depth.
        put(out, inst.dst);
        for (const auto *list : {&inst.srcs, &inst.deps}) {
            put(out, static_cast<std::uint32_t>(list->size()));
            for (std::uint32_t v : *list)
                put(out, v);
        }
        put(out, inst.key);
        put(out, static_cast<std::uint8_t>(comp::VarComponent::Whole));
        put<std::uint32_t>(out, 0); // Factor.
        for (double d : {0.0, 1.0, 1.0, 0.0, 0.0}) // Eps, unit camera.
            put(out, d);
        put<std::uint32_t>(out, 0); // extractRow.
        put<std::uint32_t>(out, 0); // extractCol.
        put<std::uint32_t>(out, 0); // Empty constant matrix.
        put<std::uint32_t>(out, 0);
        put<std::uint32_t>(out, 0); // Empty constant vector.
        put(out, static_cast<std::uint32_t>(inst.placements.size()));
        for (const RawInstruction::Placement &p : inst.placements) {
            put(out, p.src);
            put(out, p.row);
            put<std::uint32_t>(out, 0);
            put<std::uint8_t>(out, 1); // Rhs.
        }
        put<std::uint32_t>(out, 0); // No SDF map.
    }
    return out;
}

/** Two loads gathered into one stored vector: a well-formed program. */
std::vector<RawInstruction>
gatherProgram()
{
    RawInstruction a;
    a.dst = 0;
    a.key = 1;
    RawInstruction b;
    b.dst = 1;
    b.key = 2;
    RawInstruction gather;
    gather.op = comp::IsaOp::GATHER;
    gather.rows = 6;
    gather.dst = 2;
    gather.srcs = {0, 1};
    gather.deps = {0, 1};
    gather.placements = {{0, 0}, {1, 3}};
    RawInstruction store;
    store.op = comp::IsaOp::STORE;
    store.rows = 6;
    store.dst = 2;
    store.srcs = {2};
    store.deps = {2};
    return {a, b, gather, store};
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

    // Structure the record does not store: the bytes still carry deps
    // and placement srcs, and they must be what the srcs imply. The
    // well-formed program round-trips byte for byte.
    const auto good = rawProgram(3, gatherProgram());
    EXPECT_EQ(comp::encodeProgram(comp::decodeProgram(good)), good);
    const auto rejects = [](const char *what, std::uint64_t slots,
                            const std::vector<RawInstruction> &instrs) {
        EXPECT_THROW(comp::decodeProgram(rawProgram(slots, instrs)),
                     std::runtime_error)
            << what;
    };
    auto instrs = gatherProgram();
    instrs[3].srcs = {3}; // No producer, so no dep either.
    instrs[3].deps = {};
    rejects("src at valueSlots", 3, instrs);
    instrs = gatherProgram();
    instrs[3].dst = 5;
    rejects("dst past valueSlots", 3, instrs);
    instrs = gatherProgram();
    instrs[1].dst = 0;
    rejects("slot defined twice", 3, instrs);
    instrs = gatherProgram();
    instrs[2].deps = {1, 0};
    rejects("deps out of srcs order", 3, instrs);
    instrs = gatherProgram();
    instrs[3].deps = {2, 2};
    rejects("a dep no src implies", 3, instrs);
    instrs = gatherProgram();
    instrs[2].placements.pop_back();
    rejects("fewer placements than srcs", 3, instrs);
    instrs = gatherProgram();
    instrs[2].placements[1].src = 0;
    rejects("placement src not its srcs entry", 3, instrs);
    instrs = gatherProgram();
    instrs[0].placements = {{0, 0}};
    rejects("placements on a LOADV", 3, instrs);
    EXPECT_THROW(comp::decodeProgram(rawProgram(3, gatherProgram(), 3)),
                 std::runtime_error)
        << "delta binding at valueSlots";
}

} // namespace
