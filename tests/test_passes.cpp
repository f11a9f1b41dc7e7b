// The pass-based compiler pipeline: PassManager parsing and
// verification, bit-identical deltas of the optimizing passes on the
// four benchmark applications, Engine pass diagnostics, encoding of
// the fused opcodes, a golden instruction-count regression per
// application, and a golden digest of the pipeline's byte-exact output
// on the applications, the pose-graph corpus and the update programs
// of one streamed mission, plus the encoded bytes of those update
// programs and the IR listings of the applications and update
// programs.
//
// Regenerate the checked-in goldens after an intentional compiler
// change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_passes

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
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
 * Stream makeManhattanWorld(120, 1) through one AcceleratedSmoother
 * on @p engine, compiling an update program per new update shape.
 */
void
streamMission(runtime::Engine &engine)
{
    const apps::PoseGraphScenario mission =
        apps::makeManhattanWorld(120, 1);
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

} // namespace
