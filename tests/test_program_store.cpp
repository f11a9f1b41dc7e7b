// Persistent program store tests (DESIGN.md §11): encoding
// round-trip fuzzing across container versions, the corruption
// validation ladder (every single-byte flip, truncation, stale
// versions, wrong pass spec, foreign fingerprint — each a clean miss,
// never a crash or a wrong program), the atomic-publish contract, and
// the Engine's warm-restart / corrupted-store behavior end to end.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
#include "compiler/fnv.hpp"
#include "compiler/incremental_codegen.hpp"
#include "compiler/pass_manager.hpp"
#include "fg/factors.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_store.hpp"
#include "test_fg_common.hpp"
#include "test_payloads.hpp"

namespace {

namespace fs = std::filesystem;

using namespace orianna;
using orianna::test::randomPose;
using orianna::test::richGraph;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using lie::Pose;
using mat::Vector;
using runtime::ProgramStore;

/** A pose chain of randomized length/poses: the fuzzing workload. */
FactorGraph
randomChain(Values &values, std::mt19937 &rng)
{
    FactorGraph graph;
    values = Values();
    const std::size_t n =
        2 + std::uniform_int_distribution<std::size_t>(0, 4)(rng);
    std::vector<Pose> poses;
    for (std::size_t i = 0; i < n; ++i) {
        poses.push_back(randomPose(3, rng, 0.1, 0.5));
        values.insert(i + 1, poses.back());
    }
    graph.emplace<fg::PriorFactor>(1, poses[0],
                                   fg::isotropicSigmas(6, 0.01));
    for (std::size_t i = 1; i < n; ++i)
        graph.emplace<fg::IMUFactor>(i, i + 1,
                                     poses[i].ominus(poses[i - 1]),
                                     fg::isotropicSigmas(6, 0.05));
    return graph;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir =
        testing::TempDir() + "orianna_store_" + name;
    fs::remove_all(dir);
    return dir;
}

/** Exact (bitwise) equality of two value sets. */
void
expectIdenticalValues(const Values &a, const Values &b)
{
    ASSERT_EQ(a.keys().size(), b.keys().size());
    for (fg::Key key : a.keys()) {
        if (a.isPose(key)) {
            EXPECT_EQ(mat::maxDifference(a.pose(key).phi(),
                                         b.pose(key).phi()),
                      0.0)
                << key;
            EXPECT_EQ(
                mat::maxDifference(a.pose(key).t(), b.pose(key).t()),
                0.0)
                << key;
        } else {
            EXPECT_EQ(mat::maxDifference(a.vector(key), b.vector(key)),
                      0.0)
                << key;
        }
    }
}

// --- Encoding round-trip fuzz ---------------------------------------

TEST(EncodingFuzz, RandomProgramsRoundTripBitIdentically)
{
    // encode(decode(bytes)) == bytes across many randomized programs:
    // the encoder is canonical, so a decode that loses or reorders
    // anything shows up as a byte diff, not just a behavioral one.
    std::mt19937 rng(20240807);
    for (int round = 0; round < 12; ++round) {
        Values values;
        FactorGraph graph = (round % 3 == 0)
                                ? richGraph(values, rng)
                                : randomChain(values, rng);
        const Program original = comp::compileGraph(graph, values);
        const auto bytes = comp::encodeProgram(original);
        const Program decoded = comp::decodeProgram(bytes);
        EXPECT_EQ(comp::encodeProgram(decoded), bytes)
            << "round " << round;
    }
}

TEST(EncodingFuzz, RichPayloadTablesStayCompactThroughEveryPipeline)
{
    // Camera, SDF, hinge and kinematics payloads: each pipeline keeps
    // one table entry per payload-carrying survivor, and the program
    // re-encodes to the same bytes after a decode.
    std::mt19937 rng(31);
    Values values;
    const FactorGraph graph = richGraph(values, rng);
    const Program raw = comp::compileGraph(graph, values);
    ASSERT_FALSE(raw.payloads.empty());
    for (const std::string &spec : orianna::test::payloadPipelines()) {
        Program program = raw;
        comp::PassManager::parse(spec).run(program);
        orianna::test::expectCompactPayloads(program, "rich " + spec);
    }
}

TEST(EncodingFuzz, VersionOneStreamsDecodeIdentically)
{
    // The v1 container layout is byte-identical to v2 (v2 only added
    // opcodes), and v3 only appended the precision tag after the
    // algorithm byte — so a v3 stream without fused instructions,
    // re-stamped as v1 with the tag stripped, must decode to the very
    // same (Fp64) program.
    ASSERT_GE(comp::encodingVersion(), 3u);
    ASSERT_EQ(comp::minEncodingVersion(), 1u);
    std::mt19937 rng(7);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    // No pass pipeline: raw codegen output has no fused (v2) opcodes.
    const Program original = comp::compileGraph(graph, values);
    auto bytes = comp::encodeProgram(original);
    ASSERT_EQ(bytes[4], 3); // Version field, little-endian.
    // Layout: magic(4) version(4) name(4+len) algorithm(1) precision(1).
    const std::uint32_t name_len =
        static_cast<std::uint32_t>(bytes[8]) |
        static_cast<std::uint32_t>(bytes[9]) << 8 |
        static_cast<std::uint32_t>(bytes[10]) << 16 |
        static_cast<std::uint32_t>(bytes[11]) << 24;
    const std::size_t precision_at = 12 + name_len + 1;
    ASSERT_EQ(bytes.at(precision_at), 0); // Fp64 tag.
    auto v1 = bytes;
    v1.erase(v1.begin() + static_cast<std::ptrdiff_t>(precision_at));
    v1[4] = 1;
    const Program decoded = comp::decodeProgram(v1);
    EXPECT_EQ(decoded.precision, comp::Precision::Fp64);
    // Canonical re-encode equals the v3 stream bit for bit.
    EXPECT_EQ(comp::encodeProgram(decoded), bytes);

    comp::Executor exec_a(original);
    comp::Executor exec_b(decoded);
    const auto da = exec_a.run(values);
    const auto db = exec_b.run(values);
    ASSERT_EQ(da.size(), db.size());
    for (const auto &[key, delta] : da)
        EXPECT_EQ(mat::maxDifference(delta, db.at(key)), 0.0);
}

TEST(EncodingFuzz, PrecisionTagRoundTripsAndRejectsBadValues)
{
    std::mt19937 rng(9);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    comp::CompileOptions options;
    options.precision = comp::Precision::Fp32;
    Program program = comp::compileGraph(graph, values, options);
    ASSERT_EQ(program.precision, comp::Precision::Fp32);

    auto bytes = comp::encodeProgram(program);
    const Program decoded = comp::decodeProgram(bytes);
    EXPECT_EQ(decoded.precision, comp::Precision::Fp32);
    EXPECT_EQ(comp::encodeProgram(decoded), bytes);

    // Locate and corrupt the precision byte: decoding must throw, not
    // fabricate a precision.
    const std::uint32_t name_len =
        static_cast<std::uint32_t>(bytes[8]) |
        static_cast<std::uint32_t>(bytes[9]) << 8 |
        static_cast<std::uint32_t>(bytes[10]) << 16 |
        static_cast<std::uint32_t>(bytes[11]) << 24;
    const std::size_t precision_at = 12 + name_len + 1;
    ASSERT_EQ(bytes.at(precision_at), 1); // Fp32 tag.
    bytes[precision_at] = 0x7f;
    EXPECT_THROW(comp::decodeProgram(bytes), std::runtime_error);
}

// --- Store round trip and validation ladder -------------------------

TEST(ProgramStore, StoreAndLoadRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    ProgramStore store(dir);
    ASSERT_TRUE(store.available());

    std::mt19937 rng(11);
    Values values;
    FactorGraph graph = richGraph(values, rng);
    const Program original = comp::compileGraph(graph, values);

    EXPECT_EQ(store.load(0x1234, "default"), nullptr); // Cold.
    ASSERT_TRUE(store.store(0x1234, "default", original));
    const auto loaded = store.load(0x1234, "default");
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(comp::encodeProgram(*loaded),
              comp::encodeProgram(original));

    const auto stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.writeFailures, 0u);
}

// The update-shape fingerprint names update programs in every cache
// and store, and the entry checksum guards every store file. Both are
// FNV-1a and both must keep their bits, or a store written before a
// change reads as all misses.
TEST(ProgramStore, UpdateFingerprintAndEntryChecksumArePinned)
{
    comp::UpdateSpec spec;
    spec.dofs = {3, 3};
    spec.rows.push_back({3, {0}});
    spec.rows.push_back({3, {0, 1}});
    spec.steps.push_back({{0, 1}, {0, 1}, 3});
    spec.steps.push_back({{2}, {1}, 0});
    const std::uint64_t fingerprint = comp::updateFingerprint(spec);
    EXPECT_EQ(fingerprint, 0xea32985dc6e1d1cbull);

    const std::string dir = freshDir("pinned_checksum");
    ProgramStore store(dir);
    ASSERT_TRUE(
        store.store(fingerprint, "none", comp::compileUpdate(spec)));
    std::ifstream in(store.entryPath(fingerprint), std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    // Magic, store version, encoding version, fingerprint, the spec
    // "none" with its length, and the payload size precede it.
    const std::size_t at = 4 + 4 + 4 + 8 + 4 + 4 + 8;
    ASSERT_GE(bytes.size(), at + sizeof(std::uint64_t));
    std::uint64_t checksum = 0;
    std::memcpy(&checksum, bytes.data() + at, sizeof(checksum));
    EXPECT_EQ(checksum, 0x5d83cadd46ee2f95ull);
    fs::remove_all(dir);
}

TEST(ProgramStore, EverySingleByteCorruptionIsACleanMiss)
{
    const std::string dir = freshDir("corrupt");
    ProgramStore store(dir);
    std::mt19937 rng(12);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    const Program program = comp::compileGraph(graph, values);
    ASSERT_TRUE(store.store(0xabcd, "default", program));

    const std::string path = store.entryPath(0xabcd);
    std::vector<char> pristine;
    {
        std::ifstream in(path, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_GT(pristine.size(), 0u);

    // Flip every byte in turn. The header rungs catch the first 40-ish
    // bytes, the pass-spec comparison the next few, and the FNV-1a
    // checksum every byte of the payload — so each mutation must come
    // back as a miss (nullptr), never a crash or a wrong program.
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        auto corrupted = pristine;
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5a);
        {
            std::ofstream out(path, std::ios::binary);
            out.write(corrupted.data(),
                      static_cast<std::streamsize>(corrupted.size()));
        }
        EXPECT_EQ(store.load(0xabcd, "default"), nullptr)
            << "flip at byte " << i;
    }
    EXPECT_EQ(store.stats().rejected, pristine.size());

    // Restore the pristine bytes: loads work again.
    {
        std::ofstream out(path, std::ios::binary);
        out.write(pristine.data(),
                  static_cast<std::streamsize>(pristine.size()));
    }
    EXPECT_NE(store.load(0xabcd, "default"), nullptr);
}

// A checksum-clean entry whose payload fails the decoder's structural
// checks (a value table too small for the slots the program uses) is
// a clean miss like any other rung of the ladder.
TEST(ProgramStore, StructurallyInconsistentEntryIsACleanMiss)
{
    const std::string dir = freshDir("inconsistent");
    ProgramStore store(dir);
    std::mt19937 rng(14);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    const Program program = comp::compileGraph(graph, values);
    ASSERT_TRUE(store.store(0xbeef, "default", program));

    const std::string path = store.entryPath(0xbeef);
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    // Store header: magic, two versions, fingerprint, the spec
    // "default" with its length, payload size and checksum. Payload:
    // magic, version, the name with its length, the algorithm and
    // precision tags, then valueSlots.
    const std::size_t payload_at = 4 + 4 + 4 + 8 + 4 + 7 + 8 + 8;
    const std::size_t slots_at =
        payload_at + 4 + 4 + 4 + program.name.size() + 1 + 1;
    ASSERT_GT(bytes.size(), slots_at + sizeof(std::uint64_t));
    std::uint64_t slots = 0;
    std::memcpy(&slots, bytes.data() + slots_at, sizeof(slots));
    ASSERT_EQ(slots, program.valueSlots);
    slots = 1;
    std::memcpy(bytes.data() + slots_at, &slots, sizeof(slots));
    comp::Fnv1a checksum;
    checksum.bytes(bytes.data() + payload_at, bytes.size() - payload_at);
    const std::uint64_t sum = checksum.value();
    std::memcpy(bytes.data() + payload_at - sizeof(sum), &sum, sizeof(sum));
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(store.load(0xbeef, "default"), nullptr);
    EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(ProgramStore, TruncationsAreCleanMisses)
{
    const std::string dir = freshDir("truncate");
    ProgramStore store(dir);
    std::mt19937 rng(13);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    ASSERT_TRUE(store.store(0x77, "default",
                            comp::compileGraph(graph, values)));

    const std::string path = store.entryPath(0x77);
    std::vector<char> pristine;
    {
        std::ifstream in(path, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    for (std::size_t cut = 0; cut < pristine.size();
         cut += 7) { // Every 7th prefix keeps the sweep fast.
        std::ofstream out(path, std::ios::binary);
        out.write(pristine.data(), static_cast<std::streamsize>(cut));
        out.close();
        EXPECT_EQ(store.load(0x77, "default"), nullptr)
            << "truncated to " << cut;
    }
}

TEST(ProgramStore, StaleVersionsWrongSpecAndForeignFingerprintMiss)
{
    const std::string dir = freshDir("stale");
    ProgramStore store(dir);
    std::mt19937 rng(14);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    const Program program = comp::compileGraph(graph, values);
    ASSERT_TRUE(store.store(0x99, "default", program));

    // Wrong pass spec: the stored artifact was built by a different
    // pipeline, so it must not be served.
    EXPECT_EQ(store.load(0x99, "none"), nullptr);
    EXPECT_NE(store.load(0x99, "default"), nullptr);

    // Foreign fingerprint: copy the entry under another key's name;
    // the fingerprint echo in the header rejects it.
    fs::copy_file(store.entryPath(0x99), store.entryPath(0xdead));
    EXPECT_EQ(store.load(0xdead, "default"), nullptr);

    const std::string path = store.entryPath(0x99);
    std::vector<char> pristine;
    {
        std::ifstream in(path, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    // Stale store version (bytes 4..7) and out-of-range encoding
    // version (bytes 8..11) are both validation-ladder rungs.
    for (const std::size_t offset : {std::size_t{4}, std::size_t{8}}) {
        auto stale = pristine;
        stale[offset] = 0x7f;
        std::ofstream out(path, std::ios::binary);
        out.write(stale.data(),
                  static_cast<std::streamsize>(stale.size()));
        out.close();
        EXPECT_EQ(store.load(0x99, "default"), nullptr)
            << "version field at " << offset;
    }
}

TEST(ProgramStore, PublishesAtomicallyAndSweepsOrphanedTemps)
{
    const std::string dir = freshDir("atomic");
    {
        ProgramStore store(dir);
        std::mt19937 rng(15);
        Values values;
        FactorGraph graph = randomChain(values, rng);
        ASSERT_TRUE(store.store(0x1, "default",
                                comp::compileGraph(graph, values)));
        // After a publish no temp file remains: rename either moved it
        // or the failure path unlinked it.
        for (const auto &item : fs::directory_iterator(dir))
            EXPECT_EQ(item.path().filename().string().rfind(".tmp.", 0),
                      std::string::npos)
                << item.path();
    }
    // A temp file orphaned by a killed writer is swept on the next
    // construction and is never visible to load().
    const std::string orphan = dir + "/.tmp.999.0.junk";
    std::ofstream(orphan, std::ios::binary) << "partial";
    ProgramStore reopened(dir);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_NE(reopened.load(0x1, "default"), nullptr);
}

TEST(ProgramStore, UnusableDirectoryIsPermanentlyColdNotFatal)
{
    // A path under a regular file cannot become a directory.
    const std::string blocker = freshDir("blocker");
    std::ofstream(blocker, std::ios::binary) << "x";
    ProgramStore store(blocker + "/sub");
    EXPECT_FALSE(store.available());

    std::mt19937 rng(16);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    const Program program = comp::compileGraph(graph, values);
    EXPECT_EQ(store.load(0x5, "default"), nullptr);
    EXPECT_FALSE(store.store(0x5, "default", program));
    EXPECT_EQ(store.stats().writeFailures, 1u);

    // An Engine over the broken store keeps serving (compiles).
    // Pinned fp64: one compile exactly (no fp32 reference fallback).
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    options.storeDir = blocker + "/sub";
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::Session session = engine.session(graph, values);
    session.iterate(2);
    EXPECT_EQ(engine.stats().compiles, 1u);
    EXPECT_EQ(engine.stats().storeHits, 0u);
}

// --- Fingerprint stability ------------------------------------------

TEST(ProgramStore, SdfFingerprintHashesContentNotIdentity)
{
    // Two distinct SdfMap objects with identical obstacles must give
    // one fingerprint (it doubles as the cross-process store key);
    // different obstacle sets must not.
    const auto buildGraph = [](const std::shared_ptr<fg::SdfMap> &map,
                               Values &values) {
        FactorGraph graph;
        values = Values();
        values.insert(3, Vector{0.9, 0.8, 0.1, 0.2});
        graph.emplace<fg::CollisionFreeFactor>(3, map, 4, 2, 0.7, 0.2);
        graph.emplace<fg::VectorPriorFactor>(
            3, Vector(4), fg::isotropicSigmas(4, 1.0));
        return graph;
    };
    auto map_a = std::make_shared<fg::SdfMap>();
    map_a->addObstacle(Vector{1.0, 1.0}, 0.5);
    auto map_b = std::make_shared<fg::SdfMap>();
    map_b->addObstacle(Vector{1.0, 1.0}, 0.5);
    auto map_c = std::make_shared<fg::SdfMap>();
    map_c->addObstacle(Vector{1.0, 1.0}, 0.75);

    Values va;
    Values vb;
    Values vc;
    const FactorGraph ga = buildGraph(map_a, va);
    const FactorGraph gb = buildGraph(map_b, vb);
    const FactorGraph gc = buildGraph(map_c, vc);
    EXPECT_EQ(runtime::graphFingerprint(ga, va),
              runtime::graphFingerprint(gb, vb));
    EXPECT_NE(runtime::graphFingerprint(ga, va),
              runtime::graphFingerprint(gc, vc));
}

TEST(ProgramStore, EqualSdfMapsCompileToOneProgram)
{
    // Two identical collision factors on one key: CSE shares their
    // SDF lookups when the maps are the same object, and must when
    // they are distinct maps with the same obstacles, because the
    // fingerprint (the cache and store key) cannot tell the graphs
    // apart and one Engine serves both the same program.
    const auto buildGraph = [](const std::shared_ptr<fg::SdfMap> &first,
                               const std::shared_ptr<fg::SdfMap> &second,
                               Values &values) {
        FactorGraph graph;
        values = Values();
        values.insert(3, Vector{0.9, 0.8, 0.1, 0.2});
        graph.emplace<fg::VectorPriorFactor>(
            3, Vector(4), fg::isotropicSigmas(4, 1.0));
        graph.emplace<fg::CollisionFreeFactor>(3, first, 4, 2, 0.7, 0.2);
        graph.emplace<fg::CollisionFreeFactor>(3, second, 4, 2, 0.7,
                                               0.2);
        return graph;
    };
    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.0, 1.0}, 0.5);
    const auto copy = std::make_shared<fg::SdfMap>(*map);

    Values shared_values;
    Values copied_values;
    const FactorGraph shared = buildGraph(map, map, shared_values);
    const FactorGraph copied = buildGraph(map, copy, copied_values);
    ASSERT_EQ(runtime::graphFingerprint(shared, shared_values),
              runtime::graphFingerprint(copied, copied_values));

    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine first(hw::AcceleratorConfig::minimal(true), options);
    runtime::Engine second(hw::AcceleratorConfig::minimal(true), options);
    const auto from_shared = first.program(shared, shared_values);
    const auto from_copied = second.program(copied, copied_values);
    EXPECT_EQ(from_shared->instructions.size(),
              from_copied->instructions.size());
    EXPECT_TRUE(comp::encodeProgram(*from_shared) ==
                comp::encodeProgram(*from_copied));
}

// --- Engine integration: warm restart and degradation ---------------

TEST(ProgramStore, EngineWarmRestartServesWithZeroCompiles)
{
    const std::string dir = freshDir("warm");
    std::mt19937 rng(17);
    Values values;
    FactorGraph graph = richGraph(values, rng);

    // Pinned fp64: the exact entry/compile counts below are the
    // single-artifact contract (an fp32 engine adds the salted
    // program and the reference fallback — test_precision.cpp).
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    options.storeDir = dir;

    Values cold_result;
    {
        runtime::Engine cold(hw::AcceleratorConfig::minimal(true),
                             options);
        runtime::Session session = cold.session(graph, values);
        session.iterate(3);
        cold_result = session.values();
        EXPECT_EQ(cold.stats().compiles, 1u);
        EXPECT_EQ(cold.stats().storeMisses, 1u);
        EXPECT_EQ(cold.stats().storeWrites, 1u);
        EXPECT_EQ(cold.stats().storeHits, 0u);
    }
    {
        // "Restart": a fresh engine on the same directory serves the
        // program from disk — zero compiles, bit-identical values.
        runtime::Engine warm(hw::AcceleratorConfig::minimal(true),
                             options);
        runtime::Session session = warm.session(graph, values);
        session.iterate(3);
        EXPECT_EQ(warm.stats().compiles, 0u);
        EXPECT_EQ(warm.stats().storeHits, 1u);
        expectIdenticalValues(cold_result, session.values());
        // The compile log records compiles only: a store hit is not a
        // compile.
        EXPECT_TRUE(warm.compileLog().empty());
    }
}

TEST(ProgramStore, CorruptedEntryDegradesToByteIdenticalCompile)
{
    const std::string dir = freshDir("degrade");
    std::mt19937 rng(18);
    Values values;
    FactorGraph graph = richGraph(values, rng);

    // Ground truth: a store-less engine. Everything pins fp64 — the
    // corruption drill relies on exactly one entry in the directory.
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    Values baseline;
    {
        runtime::Engine plain(hw::AcceleratorConfig::minimal(true),
                              fp64);
        runtime::Session session = plain.session(graph, values);
        session.iterate(3);
        baseline = session.values();
    }

    runtime::EngineOptions options = fp64;
    options.storeDir = dir;
    {
        runtime::Engine cold(hw::AcceleratorConfig::minimal(true),
                             options);
        cold.session(graph, values); // Populate the store.
    }
    // Corrupt the one stored entry (payload byte, checksum-protected).
    std::string entry;
    for (const auto &item : fs::directory_iterator(dir))
        entry = item.path().string();
    ASSERT_FALSE(entry.empty());
    {
        std::fstream file(entry, std::ios::in | std::ios::out |
                                     std::ios::binary);
        file.seekp(-1, std::ios::end);
        file.put('\x5a');
    }
    {
        runtime::Engine degraded(hw::AcceleratorConfig::minimal(true),
                                 options);
        runtime::Session session = degraded.session(graph, values);
        session.iterate(3);
        // The poisoned entry was rejected, a normal compile happened,
        // and the values are byte-identical to the store-less run.
        EXPECT_EQ(degraded.stats().compiles, 1u);
        EXPECT_EQ(degraded.stats().storeHits, 0u);
        EXPECT_EQ(degraded.stats().storeMisses, 1u);
        expectIdenticalValues(baseline, session.values());
        // The recompile re-published a valid entry over the bad one.
        EXPECT_EQ(degraded.stats().storeWrites, 1u);
    }
    {
        runtime::Engine healed(hw::AcceleratorConfig::minimal(true),
                               options);
        healed.session(graph, values);
        EXPECT_EQ(healed.stats().storeHits, 1u);
        EXPECT_EQ(healed.stats().compiles, 0u);
    }
}

TEST(ProgramStore, TwoStoresOnOneDirectoryInteroperate)
{
    // Two store objects on one directory model two processes: a write
    // through either is served by the other, and racing writes of the
    // same fingerprint are benign (deterministic compiles, atomic
    // rename).
    const std::string dir = freshDir("shared");
    ProgramStore a(dir);
    ProgramStore b(dir);
    std::mt19937 rng(19);
    Values values;
    FactorGraph graph = randomChain(values, rng);
    const Program program = comp::compileGraph(graph, values);

    ASSERT_TRUE(a.store(0x42, "default", program));
    ASSERT_TRUE(b.store(0x42, "default", program)); // Benign re-write.
    const auto from_a = a.load(0x42, "default");
    const auto from_b = b.load(0x42, "default");
    ASSERT_NE(from_a, nullptr);
    ASSERT_NE(from_b, nullptr);
    EXPECT_EQ(comp::encodeProgram(*from_a),
              comp::encodeProgram(*from_b));
}

} // namespace
