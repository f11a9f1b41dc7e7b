// The pass-based compiler pipeline: PassManager parsing and
// verification, bit-identical deltas of the optimizing passes on the
// four benchmark applications, Engine pass diagnostics, encoding of
// the fused opcodes, a golden instruction-count regression per
// application, and a golden digest of the pipeline's byte-exact output
// on the applications, the pose-graph corpus and the update programs
// of one streamed mission, plus the encoded bytes of those update
// programs and the IR listings of the applications and update
// programs; CSE and dedup checked stage by stage against the
// byte-string-key passes the duplicate table replaced, and compiles
// racing through one Engine.
//
// Regenerate the checked-in goldens after an intentional compiler
// change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_passes

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
#include "compiler/incremental_codegen.hpp"
#include "compiler/ir_dump.hpp"
#include "compiler/pass_manager.hpp"
#include "compiler/passes/passes.hpp"
#include "fg/factors.hpp"
#include "fg/ordering.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/incremental.hpp"
#include "runtime/metrics.hpp"
#include "runtime/program_store.hpp"
#include "test_fg_common.hpp"
#include "test_golden.hpp"
#include "test_payloads.hpp"

namespace {

using namespace orianna;
using orianna::test::expectCompactPayloads;
using orianna::test::expectGolden;
using orianna::test::fnv1a;
using orianna::test::hex;
using orianna::test::payloadPipelines;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::IsaOp;
using comp::PassManager;
using comp::PassStats;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using lie::Pose;
using mat::Vector;

/** Seed of the latency benches (bench/bench_common.hpp). */
constexpr unsigned kBenchSeed = 5;

const char *kGoldenPath =
    ORIANNA_GOLDEN_DIR "/instruction_counts.txt";
const char *kPipelineGoldenPath =
    ORIANNA_GOLDEN_DIR "/pass_pipeline.digest";
const char *kUpdateGoldenPath =
    ORIANNA_GOLDEN_DIR "/update_programs.digest";
const char *kListingGoldenPath =
    ORIANNA_GOLDEN_DIR "/ir_listings.digest";

/** All four benchmark applications, compiled once per process. */
const std::vector<apps::BenchmarkApp> &
compiledApps()
{
    static std::vector<apps::BenchmarkApp> apps_list = [] {
        std::vector<apps::BenchmarkApp> out;
        for (apps::AppKind kind : apps::allApps()) {
            out.push_back(apps::buildMission(kind, kBenchSeed));
            out.back().app.compile();
        }
        return out;
    }();
    return apps_list;
}

void
expectBitIdenticalDeltas(const Program &a, const Program &b,
                         const Values &values)
{
    comp::Executor exec_a(a);
    comp::Executor exec_b(b);
    const auto da = exec_a.run(values);
    const auto db = exec_b.run(values);
    ASSERT_EQ(da.size(), db.size());
    for (const auto &[key, delta] : da) {
        const auto it = db.find(key);
        ASSERT_NE(it, db.end()) << "missing delta for key " << key;
        ASSERT_EQ(delta.size(), it->second.size());
        for (std::size_t i = 0; i < delta.size(); ++i) {
            const double x = delta[i];
            const double y = it->second[i];
            std::uint64_t bx = 0, by = 0;
            std::memcpy(&bx, &x, sizeof x);
            std::memcpy(&by, &y, sizeof y);
            EXPECT_EQ(bx, by)
                << "key " << key << " component " << i;
        }
    }
}

/** A small pose chain for the unit-level pipeline tests. */
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

// --- The paper-facing acceptance criterion ---------------------------

TEST(Passes, DefaultPipelineKeepsDeltasBitIdenticalOnAllApps)
{
    // The optimized stream (dedup,dce,cse,fuse) must produce
    // bit-identical Gauss-Newton deltas to the pre-refactor stream
    // (dedup,dce) on every algorithm of every application.
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        const core::Application &app = bench.app;
        for (std::size_t a = 0; a < app.size(); ++a) {
            const core::Algorithm &algo = app.algorithm(a);
            SCOPED_TRACE(app.name() + "/" + algo.name);
            expectBitIdenticalDeltas(algo.referenceProgram,
                                     algo.program, algo.values);
        }
    }
}

TEST(Passes, CseAndFusionShrinkMostApplications)
{
    std::size_t apps_reduced = 0;
    std::size_t apps_with_fused_ops = 0;
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        std::size_t reference = 0, optimized = 0, fused = 0;
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            reference += algo.referenceProgram.instructions.size();
            optimized += algo.program.instructions.size();
            const auto histogram = algo.program.opHistogram();
            fused +=
                histogram[static_cast<std::size_t>(IsaOp::GSCALE)] +
                histogram[static_cast<std::size_t>(IsaOp::MVSUB)];
        }
        if (optimized < reference)
            ++apps_reduced;
        if (fused > 0)
            ++apps_with_fused_ops;
    }
    EXPECT_GE(apps_reduced, 2u);
    EXPECT_GE(apps_with_fused_ops, 2u);
}

TEST(Passes, PipelineRecordsPerPassStats)
{
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            ASSERT_EQ(algo.passStats.size(), 4u);
            EXPECT_EQ(algo.passStats[0].pass, "dedup");
            EXPECT_EQ(algo.passStats[1].pass, "dce");
            EXPECT_EQ(algo.passStats[2].pass, "cse");
            EXPECT_EQ(algo.passStats[3].pass, "fuse");
            for (std::size_t p = 0; p < algo.passStats.size(); ++p) {
                const PassStats &stat = algo.passStats[p];
                EXPECT_GE(stat.before, stat.after);
                if (p > 0) {
                    EXPECT_EQ(stat.before,
                              algo.passStats[p - 1].after);
                }
            }
        }
    }
}

// --- Golden instruction-count regression -----------------------------

TEST(Passes, InstructionCountsMatchCheckedInGolden)
{
    std::ostringstream digest;
    digest << "seed " << kBenchSeed << " pipeline "
           << PassManager::defaultPipeline().spec() << "\n";
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            digest << bench.app.name() << " " << algo.name
                   << " reference "
                   << algo.referenceProgram.instructions.size()
                   << " optimized "
                   << algo.program.instructions.size() << "\n";
        }
    }
    expectGolden(kGoldenPath, digest.str());
}

// --- Golden pass-pipeline output -------------------------------------

/** What each pass did, as " pass before/after/rewrites" fields. */
std::string
passLine(const std::vector<PassStats> &stats)
{
    std::string out;
    for (const PassStats &stat : stats)
        out += " " + stat.pass + " " + std::to_string(stat.before) +
               "/" + std::to_string(stat.after) + "/" +
               std::to_string(stat.rewrites);
    return out;
}

/**
 * One digest line per program: its size, FNV-1a of its encoded bytes
 * (every instruction, slot, dep and delta binding) and what each pass
 * did on the way (before/after/rewrites).
 */
std::string
pipelineLine(const std::string &label, const Program &program,
             const std::vector<PassStats> &stats = {})
{
    const std::vector<std::uint8_t> bytes = comp::encodeProgram(program);
    return label + " instr " +
           std::to_string(program.instructions.size()) + " fnv1a " +
           hex(fnv1a(bytes.data(), bytes.size())) + passLine(stats) +
           "\n";
}

/** The fp64 engine the streamed update programs compile on. */
runtime::EngineOptions
missionOptions()
{
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    return options;
}

/**
 * Stream makeManhattanWorld(120, @p seed) through one
 * AcceleratedSmoother on @p engine, compiling an update program per
 * new update shape.
 */
void
streamMission(runtime::Engine &engine, unsigned seed = 1)
{
    const apps::PoseGraphScenario mission =
        apps::makeManhattanWorld(120, seed);
    runtime::AcceleratedSmoother smoother(engine);
    for (const apps::PoseGraphFrame &frame : mission.frames) {
        smoother.addVariable(frame.key,
                             mission.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        smoother.update();
    }
}

TEST(Passes, PipelineOutputMatchesCheckedInDigest)
{
    // Byte-exact pass output: any change in what a pass merges, drops
    // or fuses, or in how the rewrite renumbers slots (and so in the
    // deps the encoding derives), moves a hash here. Some LOADC
    // payloads are computed through the matrix kernels, so the
    // programs are byte-stable only on the scalar reference tier,
    // like the golden values of test_golden_trace; the apps are built
    // here, under the pin, instead of taken from compiledApps().
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    std::string digest;
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildMission(kind, kBenchSeed);
        bench.app.compile();
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            const std::string label =
                bench.app.name() + "/" + algo.name;
            digest += pipelineLine(label + " program", algo.program,
                                   algo.passStats);
            digest += pipelineLine(label + " reference",
                                   algo.referenceProgram);
            digest +=
                pipelineLine(label + " dense", algo.denseProgram);
        }
    }

    // The pose-graph corpus at benchmark scale, batch-compiled.
    const PassManager pipeline = PassManager::defaultPipeline();
    const std::pair<const char *, apps::PoseGraphScenario> worlds[] = {
        {"garage", apps::makeGarageWorld(5, 24, 1)},
        {"manhattan", apps::makeManhattanWorld(120, 1)},
        {"sphere", apps::makeSphereWorld(6, 20, 1)},
    };
    for (const auto &[label, world] : worlds) {
        const FactorGraph graph = world.graph();
        comp::CompileOptions options;
        options.ordering = fg::ordering::minDegree(graph);
        Program program =
            comp::compileGraph(graph, world.initial, options);
        const std::vector<PassStats> stats = pipeline.run(program);
        digest += pipelineLine(label, program, stats);
    }

    // Update programs: every compile of one streamed manhattan mission.
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           missionOptions());
    streamMission(engine);
    const auto log = engine.compileLog();
    for (std::size_t i = 0; i < log.size(); ++i)
        digest += "update " + std::to_string(i) + " " + log[i].name +
                  " instr " + std::to_string(log[i].instructions) +
                  passLine(log[i].passes) + "\n";

    expectGolden(kPipelineGoldenPath, digest);
}

/** One streamed update program, read back from the Engine's store. */
struct StoredUpdate
{
    std::string label; //!< "update <i> <name>".
    std::shared_ptr<const Program> program;
};

/**
 * Every update program of streamMission(), both rungs, read back
 * from the store under the pipeline spec each rung compiled with.
 * The Engine publishes every compile to its store.
 */
std::vector<StoredUpdate>
storedUpdatePrograms(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    runtime::EngineOptions options = missionOptions();
    options.storeDir = dir;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    streamMission(engine);

    runtime::ProgramStore store(dir);
    std::vector<StoredUpdate> out;
    const auto log = engine.compileLog();
    for (std::size_t i = 0; i < log.size(); ++i) {
        const std::string &name = log[i].name;
        out.push_back({"update " + std::to_string(i) + " " + name,
                       store.load(log[i].fingerprint,
                                  name.ends_with(" (reference)")
                                      ? "dedup,dce"
                                      : PassManager::defaultPipeline()
                                            .spec())});
    }
    std::filesystem::remove_all(dir);
    return out;
}

TEST(Passes, UpdateProgramBytesMatchCheckedInDigest)
{
    // Byte-exact update programs, both rungs: the digest above pins
    // them only by size and pass stats. Scalar tier as above.
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());
    std::string digest;
    for (const StoredUpdate &update : storedUpdatePrograms(
             testing::TempDir() + "orianna_update_programs")) {
        ASSERT_NE(update.program, nullptr) << update.label;
        digest += pipelineLine(update.label, *update.program);
    }
    expectGolden(kUpdateGoldenPath, digest);
}

/** FNV-1a of @p program's listing and of its DOT graph. */
std::string
listingLine(const std::string &label, const Program &program)
{
    return label + " listing fnv1a " +
           hex(fnv1a(comp::programListing(program))) + " dot fnv1a " +
           hex(fnv1a(comp::programToDot(program))) + "\n";
}

TEST(Passes, IrListingsMatchCheckedInDigest)
{
    // Both listings print every instruction's dependences, which the
    // byte digests above pin only through the encoding. Scalar tier,
    // like the program bytes.
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    std::string digest;
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildMission(kind, kBenchSeed);
        bench.app.compile();
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            const std::string label =
                bench.app.name() + "/" + algo.name;
            digest += listingLine(label + " program", algo.program);
            digest += listingLine(label + " reference",
                                  algo.referenceProgram);
        }
    }
    for (const StoredUpdate &update : storedUpdatePrograms(
             testing::TempDir() + "orianna_update_listings")) {
        ASSERT_NE(update.program, nullptr) << update.label;
        digest += listingLine(update.label, *update.program);
    }
    expectGolden(kListingGoldenPath, digest);
}

// --- Compact instruction records -----------------------------------

TEST(Passes, PayloadTablesStayCompactOnEveryStream)
{
    // Codegen appends one payload entry per payload-carrying
    // instruction and every pass drops the entries of the
    // instructions it drops: after each pipeline, every entry has
    // exactly one owner and the program round-trips the encoding.
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            const std::string label = bench.app.name() + "/" + algo.name;
            expectCompactPayloads(algo.program, label + " program");
            expectCompactPayloads(algo.referenceProgram,
                                  label + " reference");
            expectCompactPayloads(algo.denseProgram, label + " dense");

            comp::CompileOptions options;
            options.ordering = fg::ordering::minDegree(algo.graph);
            const Program graph_stream =
                comp::compileGraph(algo.graph, algo.values, options);
            const Program dense_stream = comp::compileDenseGraph(
                algo.graph, algo.values, options);
            for (const std::string &spec : payloadPipelines()) {
                const PassManager pipeline = PassManager::parse(spec);
                Program program = graph_stream;
                pipeline.run(program);
                expectCompactPayloads(program, label + " " + spec);
                Program dense = dense_stream;
                pipeline.run(dense);
                expectCompactPayloads(dense,
                                      label + " dense " + spec);
            }
        }
    }

    // The update programs of a streamed mission: an engine without
    // passes publishes the raw codegen output of its main rung to its
    // store, from where each pipeline starts.
    const std::string dir = testing::TempDir() + "orianna_payload_tables";
    std::filesystem::remove_all(dir);
    runtime::EngineOptions options = missionOptions();
    options.passes = "none";
    options.storeDir = dir;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true), options);
    streamMission(engine);
    runtime::ProgramStore store(dir);
    std::size_t streamed = 0;
    for (const runtime::Engine::CompileRecord &record :
         engine.compileLog()) {
        if (record.name.ends_with(" (reference)"))
            continue;
        const auto raw = store.load(record.fingerprint, "none");
        ASSERT_NE(raw, nullptr) << record.name;
        for (const std::string &spec : payloadPipelines()) {
            Program program = *raw;
            PassManager::parse(spec).run(program);
            expectCompactPayloads(program,
                                  "update " + record.name + " " + spec);
        }
        ++streamed;
    }
    EXPECT_GT(streamed, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Passes, UpdateProgramsTakeAtMost112BytesPerInstruction)
{
    // Update programs are three quarters EXTRACT/STORE pairs with no
    // payload, so their footprint is about one 80-byte record per
    // instruction; only GATHERs spill operands and carry a layout.
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           missionOptions());
    streamMission(engine);
    // Without a store every cached program is one compile.
    std::size_t instructions = 0;
    for (const runtime::Engine::CompileRecord &record :
         engine.compileLog())
        instructions += record.instructions;
    ASSERT_GT(instructions, 0u);
    const std::size_t bytes = engine.stats().cachedBytes;
    EXPECT_LE(static_cast<double>(bytes) /
                  static_cast<double>(instructions),
              112.0)
        << bytes << " bytes over " << instructions << " instructions";
}

// --- PassManager parsing and pipeline construction -------------------

TEST(Passes, ParsesSpecsAndRejectsUnknownNames)
{
    EXPECT_EQ(PassManager::parse("default").spec(),
              "dedup,dce,cse,fuse");
    EXPECT_EQ(PassManager::defaultPipeline().spec(),
              "dedup,dce,cse,fuse");
    EXPECT_EQ(PassManager::parse("none").size(), 0u);
    EXPECT_EQ(PassManager::parse("").size(), 0u);
    EXPECT_EQ(PassManager::parse(" dedup , cse ").spec(), "dedup,cse");
    EXPECT_THROW(PassManager::parse("bogus"), std::invalid_argument);
    EXPECT_THROW(PassManager::parse("dedup,bogus,dce"),
                 std::invalid_argument);

    const auto listing = PassManager::availablePasses();
    ASSERT_EQ(listing.size(), 4u);
    for (const auto &[name, description] : listing) {
        EXPECT_FALSE(name.empty());
        EXPECT_FALSE(description.empty());
    }
}

// --- The per-pass verification hook ----------------------------------

TEST(Passes, VerificationAcceptsTheSoundPipeline)
{
    std::mt19937 rng(7);
    Values values;
    const FactorGraph graph = chainGraph(6, values, rng);
    Program program = comp::compileGraph(graph, values);
    const Program original = program;

    const PassManager pipeline = PassManager::defaultPipeline();
    PassManager::RunOptions options;
    options.probe = &values;
    options.verify = true;
    const std::vector<PassStats> stats =
        pipeline.run(program, options);

    ASSERT_EQ(stats.size(), 4u);
    for (const PassStats &stat : stats)
        EXPECT_TRUE(stat.verified) << stat.pass;
    expectBitIdenticalDeltas(original, program, values);
}

/** A deliberately unsound pass: perturbs the first LOADC payload. */
class BrokenPass final : public comp::Pass
{
  public:
    const char *name() const override { return "broken"; }
    const char *description() const override
    {
        return "changes program semantics (test only)";
    }
    std::size_t run(Program &program) const override
    {
        for (comp::Instruction &inst : program.instructions) {
            if (inst.op == IsaOp::LOADC &&
                program.payload(inst).constVec.size() > 0) {
                Vector &constant = program.editPayload(inst).constVec;
                constant[0] = constant[0] + 1.0;
                return 1;
            }
        }
        return 0;
    }
};

TEST(Passes, VerificationRejectsABrokenPass)
{
    std::mt19937 rng(8);
    Values values;
    const FactorGraph graph = chainGraph(5, values, rng);
    Program program = comp::compileGraph(graph, values);

    PassManager pipeline;
    pipeline.add(std::make_unique<BrokenPass>());
    PassManager::RunOptions options;
    options.probe = &values;
    options.verify = true;
    EXPECT_THROW(pipeline.run(program, options), std::runtime_error);

    // Without verification the same pass goes through unchallenged —
    // the hook, not the pipeline plumbing, is what catches it.
    Program unchecked = comp::compileGraph(graph, values);
    EXPECT_NO_THROW(pipeline.run(unchecked));
}

// --- Engine diagnostics ----------------------------------------------

TEST(Passes, EngineReportsPerCompilePassStats)
{
    std::mt19937 rng(9);
    Values values;
    const FactorGraph graph = chainGraph(6, values, rng);

    runtime::EngineOptions options;
    options.verifyPasses = true;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::MetricsRegistry &metrics =
        runtime::MetricsRegistry::global();
    runtime::Histogram &codegen = metrics.histogram("engine.codegen_us");
    const std::uint64_t compiles_before =
        metrics.counter("engine.compiles").value();
    const std::uint64_t codegen_before = codegen.count();
    const std::uint64_t codegen_us_before = codegen.sumUs();
    engine.program(graph, values, 0, "chain");

    const auto log = engine.compileLog();
    ASSERT_EQ(log.size(), 1u);
    const runtime::Engine::CompileRecord &record = log[0];
    EXPECT_EQ(record.name, "chain");
    ASSERT_EQ(record.passes.size(), 4u);
    for (const PassStats &stat : record.passes)
        EXPECT_TRUE(stat.verified) << stat.pass;

    // Codegen is timed on its own: one observation per compile, and
    // the record carries the same microseconds.
    EXPECT_EQ(metrics.counter("engine.compiles").value() -
                  compiles_before,
              1u);
    EXPECT_EQ(codegen.count() - codegen_before, 1u);
    EXPECT_EQ(codegen.sumUs() - codegen_us_before, record.codegenUs);

    const std::string summary = record.passSummary();
    EXPECT_NE(summary.find("chain: "), std::string::npos);
    EXPECT_NE(summary.find("dedup -"), std::string::npos);
    EXPECT_NE(summary.find("fuse -"), std::string::npos);
    EXPECT_NE(summary.find(" verified"), std::string::npos);

    // The pass counters land in the process-wide metrics registry.
    const std::string json = runtime::Engine::metricsJson();
    EXPECT_NE(json.find("pass.dedup.runs"), std::string::npos);
    EXPECT_NE(json.find("pass.cse.rewrites"), std::string::npos);
}

TEST(Passes, EngineHonoursTheConfiguredPipeline)
{
    std::mt19937 rng(10);
    Values values;
    const FactorGraph graph = chainGraph(6, values, rng);

    runtime::EngineOptions cleanup_only;
    cleanup_only.passes = "dedup,dce";
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           cleanup_only);
    const auto program = engine.program(graph, values);
    ASSERT_EQ(engine.compileLog().size(), 1u);
    EXPECT_EQ(engine.compileLog()[0].passes.size(), 2u);
    const auto histogram = program->opHistogram();
    EXPECT_EQ(histogram[static_cast<std::size_t>(IsaOp::GSCALE)], 0u);
    EXPECT_EQ(histogram[static_cast<std::size_t>(IsaOp::MVSUB)], 0u);

    runtime::EngineOptions bad;
    bad.passes = "dedup,bogus";
    EXPECT_THROW(
        runtime::Engine(hw::AcceleratorConfig::minimal(true), bad),
        std::invalid_argument);
}

TEST(Passes, PipelineLeavesNoInstructionSlack)
{
    // Passes compact in place, so without the pipeline's final shrink
    // every cached program would keep codegen's growth slack.
    std::mt19937 rng(12);
    Values values;
    const FactorGraph graph = chainGraph(8, values, rng);
    for (const char *spec : {"default", "none"}) {
        Program program = comp::compileGraph(graph, values);
        program.instructions.reserve(2 * program.instructions.size());
        PassManager::parse(spec).run(program);
        EXPECT_EQ(program.instructions.capacity(),
                  program.instructions.size())
            << spec;
    }
}

// --- Fused opcodes through the binary encoding -----------------------

TEST(Passes, EncodingRoundTripsFusedOpcodes)
{
    std::mt19937 rng(11);
    Values values;
    const FactorGraph graph = chainGraph(8, values, rng);
    Program program = comp::compileGraph(graph, values);
    PassManager::defaultPipeline().run(program);

    const auto histogram = program.opHistogram();
    const std::size_t fused =
        histogram[static_cast<std::size_t>(IsaOp::GSCALE)] +
        histogram[static_cast<std::size_t>(IsaOp::MVSUB)];
    ASSERT_GT(fused, 0u)
        << "expected the chain graph to exercise fusion";

    const Program decoded =
        comp::decodeProgram(comp::encodeProgram(program));
    ASSERT_EQ(decoded.instructions.size(),
              program.instructions.size());
    EXPECT_EQ(decoded.opHistogram(), histogram);
    expectBitIdenticalDeltas(program, decoded, values);
}

// --- The duplicate table against the string-key passes ---------------

/**
 * The byte-string key the cse and dedup passes looked duplicates up
 * by before the duplicate table: each field's bytes in a fixed order,
 * every variable-length field after its length, so equal keys mean
 * equal fields, doubles by their bits.
 */
class StringKey
{
  public:
    template <typename T>
    void
    value(T v)
    {
        key_.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    vector(const Vector &v)
    {
        value(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            value(v[i]);
    }

    void
    matrix(const mat::Matrix &m)
    {
        value(static_cast<std::uint32_t>(m.rows()));
        value(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                value(m(i, j));
    }

    const std::string &key() const { return key_; }

  private:
    std::string key_;
};

/**
 * Merge every instruction whose key @p keyOf (empty: not a candidate)
 * an earlier one had into that first occurrence.
 */
template <typename KeyOf>
std::size_t
mergeByStringKey(Program &program, KeyOf &&keyOf)
{
    const auto &instrs = program.instructions;
    std::vector<bool> drop(instrs.size(), false);
    std::vector<std::uint32_t> slot_remap(program.valueSlots);
    std::iota(slot_remap.begin(), slot_remap.end(), 0u);
    std::unordered_map<std::string, std::uint32_t> seen;
    std::size_t merged = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const std::string key = keyOf(instrs[i], slot_remap);
        if (key.empty())
            continue;
        const auto [it, inserted] = seen.emplace(key, instrs[i].dst);
        if (!inserted) {
            slot_remap[instrs[i].dst] = it->second;
            drop[i] = true;
            ++merged;
        }
    }
    if (merged > 0)
        comp::rewriteProgram(program, drop, slot_remap);
    return merged;
}

/** The string-key dedup: LOADC constMat and constVec bytes. */
std::size_t
stringKeyDedup(Program &program)
{
    return mergeByStringKey(
        program, [&](const comp::Instruction &inst,
                     const std::vector<std::uint32_t> &) {
            StringKey k;
            if (inst.op == IsaOp::LOADC) {
                k.matrix(program.payload(inst).constMat);
                k.vector(program.payload(inst).constVec);
            }
            return k.key();
        });
}

/** The string-key CSE, which compares SDF maps by address. */
std::size_t
stringKeyCse(Program &program)
{
    return mergeByStringKey(
        program, [&](const comp::Instruction &inst,
                     const std::vector<std::uint32_t> &slot_remap) {
            StringKey k;
            if (inst.op == IsaOp::STORE)
                return k.key();
            const comp::Payload &payload = program.payload(inst);
            k.value(static_cast<std::uint8_t>(inst.op));
            k.value(static_cast<std::uint32_t>(inst.srcs.size()));
            for (std::uint32_t src : inst.srcs)
                k.value(slot_remap[src]);
            k.value(inst.rows);
            k.value(inst.cols);
            k.value(inst.depth);
            k.value(inst.key);
            k.value(static_cast<std::uint8_t>(inst.component));
            k.value(payload.hingeEps);
            k.value(payload.camera.fx);
            k.value(payload.camera.fy);
            k.value(payload.camera.cx);
            k.value(payload.camera.cy);
            k.value(reinterpret_cast<std::uintptr_t>(payload.sdf.get()));
            k.value(inst.extractRow);
            k.value(inst.extractCol);
            k.value(static_cast<std::uint8_t>(inst.extractVector));
            k.matrix(payload.constMat);
            k.vector(payload.constVec);
            k.value(static_cast<std::uint32_t>(payload.placements.size()));
            for (const comp::GatherPlacement &p : payload.placements) {
                k.value(p.rowBegin);
                k.value(p.colBegin);
                k.value(static_cast<std::uint8_t>(p.isRhs));
            }
            return k.key();
        });
}

/** A pass's rewrite function, as the reference passes are written. */
using PassFn = std::size_t (*)(Program &);

/**
 * Run the default pipeline on @p raw stage by stage, running the
 * string-key pass of each stage that has one on a copy of the same
 * input: both must return the same rewrite count and leave the same
 * program bytes.
 */
void
expectStringKeyAgreement(const Program &raw, const std::string &label)
{
    const std::pair<std::unique_ptr<comp::Pass>, PassFn> stages[] = {
        {comp::passes::constantDedup(), stringKeyDedup},
        {comp::passes::deadCodeElimination(), nullptr},
        {comp::passes::commonSubexpressionElimination(), stringKeyCse},
        {comp::passes::peepholeFusion(), nullptr},
    };
    Program program = raw;
    for (const auto &[pass, reference] : stages) {
        Program expected = program;
        const std::size_t rewrites = pass->run(program);
        if (reference == nullptr)
            continue;
        EXPECT_EQ(rewrites, reference(expected))
            << label << " " << pass->name();
        EXPECT_TRUE(comp::encodeProgram(program) ==
                    comp::encodeProgram(expected))
            << label << " " << pass->name();
    }
}

TEST(Passes, DuplicateTableMatchesStringKeyPasses)
{
    // Every stream the passes see in the apps, the corpus and the
    // incremental path. Each input holds one SDF map, so comparing
    // maps by content and by address agree.
    std::size_t inputs = 0;
    for (unsigned seed : {1u, 7u, 4000000000u}) {
        for (apps::AppKind kind : apps::allApps()) {
            const apps::BenchmarkApp bench = apps::buildMission(kind, seed);
            for (std::size_t a = 0; a < bench.app.size(); ++a) {
                const core::Algorithm &algo = bench.app.algorithm(a);
                const std::string label = bench.app.name() + "/" +
                                          algo.name + " seed " +
                                          std::to_string(seed);
                comp::CompileOptions options;
                options.algorithmTag = static_cast<std::uint8_t>(a);
                options.ordering = fg::ordering::minDegree(algo.graph);
                expectStringKeyAgreement(
                    comp::compileGraph(algo.graph, algo.values, options),
                    label);
                expectStringKeyAgreement(
                    comp::compileDenseGraph(algo.graph, algo.values,
                                            options),
                    label + " dense");
                inputs += 2;
            }
        }
    }

    const std::pair<const char *, apps::PoseGraphScenario> worlds[] = {
        {"garage", apps::makeGarageWorld(5, 24, 1)},
        {"manhattan", apps::makeManhattanWorld(120, 1)},
        {"sphere", apps::makeSphereWorld(6, 20, 1)},
    };
    for (const auto &[label, world] : worlds) {
        const FactorGraph graph = world.graph();
        comp::CompileOptions options;
        options.ordering = fg::ordering::minDegree(graph);
        expectStringKeyAgreement(
            comp::compileGraph(graph, world.initial, options), label);
        ++inputs;
    }

    // Update programs of three streamed missions: the raw codegen of
    // each incremental shape from a pass-less engine's store, and the
    // cleaned-up program of each reference-rung shape.
    for (unsigned seed : {1u, 2u, 3u}) {
        const std::string dir = testing::TempDir() +
                                "orianna_string_key_" +
                                std::to_string(seed);
        std::filesystem::remove_all(dir);
        runtime::EngineOptions options = missionOptions();
        options.passes = "none";
        options.storeDir = dir;
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                               options);
        streamMission(engine, seed);
        runtime::ProgramStore store(dir);
        for (const runtime::Engine::CompileRecord &record :
             engine.compileLog()) {
            const auto program = store.load(
                record.fingerprint, record.name.ends_with(" (reference)")
                                        ? "dedup,dce"
                                        : "none");
            ASSERT_NE(program, nullptr) << record.name;
            expectStringKeyAgreement(*program,
                                     "mission " + std::to_string(seed) +
                                         " " + record.name);
            ++inputs;
        }
        std::filesystem::remove_all(dir);
    }

    std::mt19937 rng(31);
    Values values;
    const FactorGraph rich = orianna::test::richGraph(values, rng);
    expectStringKeyAgreement(comp::compileGraph(rich, values), "rich");
    EXPECT_GT(inputs, 100u);
}

/** One crafted duplicate candidate: its record and payload entry. */
struct Candidate
{
    comp::Instruction inst;
    comp::Payload payload;
};

/**
 * A LOADV into slot 0, then @p a and @p b in slots 1 and 2, each with
 * its own payload entry, then a STORE of each.
 */
Program
pairProgram(Candidate a, Candidate b)
{
    Program program;
    program.valueSlots = 3;
    comp::Instruction load;
    load.op = IsaOp::LOADV;
    load.dst = 0;
    load.rows = 3;
    load.cols = 1;
    program.instructions.push_back(load);
    std::uint32_t dst = 1;
    for (Candidate *c : {&a, &b}) {
        c->inst.dst = dst++;
        c->inst.payload = program.addPayload(std::move(c->payload));
        program.instructions.push_back(c->inst);
    }
    for (std::uint32_t slot : {1u, 2u}) {
        comp::Instruction store;
        store.op = IsaOp::STORE;
        store.dst = slot;
        store.srcs = {slot};
        program.instructions.push_back(store);
    }
    return program;
}

TEST(Passes, DuplicateTableEdgeCasesMatchStringKeyPasses)
{
    const auto loadc = [](mat::Matrix m, Vector v) {
        Candidate c;
        c.inst.op = IsaOp::LOADC;
        c.inst.rows = 3;
        c.inst.cols = 1;
        c.payload.constMat = std::move(m);
        c.payload.constVec = std::move(v);
        return c;
    };
    const auto unary = [](IsaOp op) {
        Candidate c;
        c.inst.op = op;
        c.inst.srcs = {0};
        c.inst.rows = 3;
        c.inst.cols = 1;
        return c;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double other_nan = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(nan) | 1u);

    struct Case
    {
        const char *name;
        Candidate a;
        Candidate b;
        bool merges;
    };
    std::vector<Case> cases;
    cases.push_back({"+0.0 vs -0.0", loadc({}, Vector{0.0}),
                     loadc({}, Vector{-0.0}), false});
    cases.push_back({"identical NaN bits", loadc({}, Vector{nan}),
                     loadc({}, Vector{nan}), true});
    cases.push_back({"NaNs with other bits", loadc({}, Vector{nan}),
                     loadc({}, Vector{other_nan}), false});
    cases.push_back({"1x3 vs 3x1", loadc(mat::Matrix{{1, 2, 3}}, {}),
                     loadc(mat::Matrix{{1}, {2}, {3}}, {}), false});
    cases.push_back({"constMat vs constVec",
                     loadc(mat::Matrix{{1, 2, 3}}, {}),
                     loadc({}, Vector{1, 2, 3}), false});
    {
        Candidate a;
        a.inst.op = IsaOp::GATHER;
        a.inst.srcs = {0, 0};
        a.inst.rows = 3;
        a.inst.cols = 2;
        a.payload.placements = {{0, 0, false}, {0, 1, true}};
        Candidate b = a;
        b.payload.placements[1].isRhs = false;
        cases.push_back({"placement isRhs", a, b, false});
    }
    {
        Candidate a = unary(IsaOp::HINGE);
        a.payload.hingeEps = 0.1;
        Candidate b = a;
        b.payload.hingeEps = std::nextafter(0.1, 1.0);
        cases.push_back({"hingeEps last bit", a, b, false});
    }
    {
        Candidate a = unary(IsaOp::EXTRACT);
        Candidate b = a;
        b.inst.extractVector = true;
        cases.push_back({"extractVector", a, b, false});
    }
    {
        Candidate a = unary(IsaOp::NEG);
        Candidate b = a;
        b.inst.phase = 2;
        cases.push_back({"phase", a, b, true});
        b = a;
        b.inst.algorithm = 1;
        cases.push_back({"algorithm", a, b, true});
        b = a;
        b.inst.factor = 7;
        cases.push_back({"factor", a, b, true});
    }

    const auto dedup = comp::passes::constantDedup();
    const auto cse = comp::passes::commonSubexpressionElimination();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const Program program = pairProgram(c.a, c.b);
        std::vector<std::pair<const comp::Pass *, PassFn>> pairs = {
            {cse.get(), stringKeyCse}};
        if (c.a.inst.op == IsaOp::LOADC)
            pairs.push_back({dedup.get(), stringKeyDedup});
        for (const auto &[pass, reference] : pairs) {
            Program ours = program;
            Program theirs = program;
            EXPECT_EQ(pass->run(ours), c.merges ? 1u : 0u) << pass->name();
            EXPECT_EQ(reference(theirs), c.merges ? 1u : 0u)
                << pass->name();
            EXPECT_TRUE(comp::encodeProgram(ours) ==
                        comp::encodeProgram(theirs))
                << pass->name();
        }
    }
}

/**
 * The update shape of an @p n-variable chain: a prior row on position
 * 0 and a between row per consecutive pair; each step gathers its
 * between row and the previous step's three carry rows.
 */
comp::UpdateSpec
chainUpdate(std::uint32_t n)
{
    comp::UpdateSpec spec;
    spec.dofs.assign(n, 3);
    spec.rows.push_back({3, {0}});
    for (std::uint32_t v = 1; v < n; ++v)
        spec.rows.push_back({3, {v - 1, v}});
    const auto rows = static_cast<std::uint32_t>(spec.rows.size());
    spec.steps.push_back({{0, 1}, {0, 1}, 3});
    for (std::uint32_t v = 1; v + 1 < n; ++v)
        spec.steps.push_back({{v + 1, rows + v - 1}, {v, v + 1}, 3});
    spec.steps.push_back({{rows + n - 2}, {n - 1}, 0});
    return spec;
}

/** Streamed inputs for every LOADV key of @p spec's layout. */
Values
updateProbe(const comp::UpdateSpec &spec, std::mt19937 &rng)
{
    Values probe;
    const comp::UpdateLayout layout = comp::updateLayout(spec);
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
        const std::size_t dim = spec.rows[r].dim;
        for (const std::vector<fg::Key> &columns :
             layout.inputs[r].blockColumns)
            for (fg::Key key : columns)
                probe.insert(key, randomVector(dim, rng));
        probe.insert(layout.inputs[r].rhs, randomVector(dim, rng));
    }
    return probe;
}

TEST(Passes, ConcurrentCompilesMatchSequentialBytes)
{
    // One pass object serves concurrent compiles (DESIGN.md §7,
    // contract 1): eight threads compile eight distinct programs
    // through one Engine at once, four app graphs and four update
    // shapes, and each must come out byte for byte as a sequential
    // Engine compiles it. The CI TSan job runs this test.
    std::vector<apps::BenchmarkApp> missions;
    for (apps::AppKind kind : apps::allApps())
        missions.push_back(apps::buildMission(kind, kBenchSeed));
    std::mt19937 rng(13);
    std::vector<std::pair<comp::UpdateSpec, Values>> updates;
    for (std::uint32_t n : {2u, 3u, 5u, 8u}) {
        comp::UpdateSpec spec = chainUpdate(n);
        Values probe = updateProbe(spec, rng);
        updates.emplace_back(std::move(spec), std::move(probe));
    }
    constexpr std::size_t kJobs = 8;
    const auto compile = [&](runtime::Engine &engine, std::size_t job) {
        std::shared_ptr<const Program> program;
        if (job < missions.size()) {
            const core::Algorithm &algo = missions[job].app.algorithm(0);
            program = engine.program(algo.graph, algo.values, 0,
                                     missions[job].app.name());
        } else {
            const auto &[spec, probe] = updates[job - missions.size()];
            program = engine.updateProgram(spec, probe);
        }
        return comp::encodeProgram(*program);
    };

    runtime::Engine shared(hw::AcceleratorConfig::minimal(true),
                           missionOptions());
    std::vector<std::vector<std::uint8_t>> concurrent(kJobs);
    std::atomic<std::size_t> arrived{0};
    {
        std::vector<std::thread> threads;
        for (std::size_t job = 0; job < kJobs; ++job)
            threads.emplace_back([&, job] {
                arrived.fetch_add(1);
                while (arrived.load() < kJobs)
                    std::this_thread::yield();
                concurrent[job] = compile(shared, job);
            });
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(shared.stats().compiles, kJobs);

    runtime::Engine sequential(hw::AcceleratorConfig::minimal(true),
                               missionOptions());
    for (std::size_t job = 0; job < kJobs; ++job)
        EXPECT_TRUE(compile(sequential, job) == concurrent[job])
            << "job " << job;
}

} // namespace
