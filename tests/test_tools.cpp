// End-to-end tests of the command-line tools: runs the real
// runtime_server, orianna_compile and mobile_robot_pipeline binaries
// (paths injected by CMake) and checks their exported artifacts — the
// metrics registry JSON and the unified Perfetto trace — plus the
// JSON serving protocol over real pipes (responses, exit codes, warm
// restart from a --cache-dir) and the argument-validation error paths
// (bad values and unknown flags must print usage and exit nonzero
// without doing work). orianna_compile's programs and store entries
// are also checked against an in-process runtime::Engine.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <sys/wait.h>

#include "compiler/encoding.hpp"
#include "fg/factors.hpp"
#include "fg/io_g2o.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "test_golden.hpp"
#include "test_json.hpp"

namespace {

using namespace orianna;
using orianna::test::JsonPtr;
using orianna::test::numberField;
using orianna::test::parseJson;
using orianna::test::parseJsonFile;
using orianna::test::slurp;

/**
 * Run @p command silenced with stdin closed (so the protocol mode
 * sees EOF instead of blocking); returns the tool's exit status.
 */
int
run(const std::string &command)
{
    const int status = std::system(
        (command + " </dev/null >/dev/null 2>&1").c_str());
    if (status == -1)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "orianna_tools_" + name;
}

struct ToolRun
{
    int status = -1;
    std::string output; //!< Captured stdout, stderr discarded.

    std::vector<std::string>
    lines() const
    {
        std::vector<std::string> out;
        std::string current;
        for (const char c : output) {
            if (c == '\n') {
                out.push_back(current);
                current.clear();
            } else {
                current += c;
            }
        }
        if (!current.empty())
            out.push_back(current);
        return out;
    }
};

/**
 * Run @p command with @p input piped to stdin (via a file named by
 * the unique @p tag) and capture stdout; protocol tests hinge on both
 * the response lines and the exit status.
 */
ToolRun
runCapture(const std::string &command, const std::string &input,
           const std::string &tag)
{
    const std::string in_path = tmpPath(tag + "_stdin.txt");
    {
        std::ofstream out(in_path);
        out << input;
        EXPECT_TRUE(out.good());
    }
    ToolRun result;
    FILE *pipe = popen(
        (command + " < " + in_path + " 2>/dev/null").c_str(), "r");
    if (pipe == nullptr)
        return result;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, got);
    const int status = pclose(pipe);
    result.status =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/**
 * A two-vertex pose graph in g2o text form, in a file of the calling
 * test's own: ctest runs these tests as concurrent processes, and a
 * shared file would be truncated under another test's reader.
 */
std::string
writeTinyG2o()
{
    const std::string path = tmpPath(
        std::string(testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        "_tiny.g2o");
    std::ofstream out(path);
    out << "VERTEX_SE2 0 0 0 0\n"
        << "VERTEX_SE2 1 1 0 0.1\n"
        << "EDGE_SE2 0 1 1 0 0.1 100 0 0 100 0 100\n";
    EXPECT_TRUE(out.good());
    return path;
}

// --- runtime_server -------------------------------------------------

TEST(RuntimeServerTool, RejectsUnknownFlags)
{
    const std::string tool = ORIANNA_RUNTIME_SERVER;
    EXPECT_EQ(run(tool + " --bogus"), 2);
    EXPECT_EQ(run(tool + " extra"), 2);
    // The server is protocol-only: every flag of the retired serving
    // showcase is an unknown flag now, with or without a value.
    const std::vector<std::string> retired = {
        "demo", "threads 2", "threads 0", "threads", "replicas 2",
        "queue-cap 3", "edf", "metrics " + tmpPath("server_m.json"),
        "trace " + tmpPath("server_t.json"),
        "inject-faults 7@corrupt:all:0.05", "fallback"};
    for (const std::string &flag : retired)
        EXPECT_EQ(run(tool + " --" + flag), 2) << flag;
}

// --- runtime_server: JSON protocol over real pipes ------------------

TEST(RuntimeServerTool, ProtocolSessionRoundTrip)
{
    const std::string requests =
        R"({"op":"apps"})" "\n"
        R"({"op":"submit","app":"MobileRobot","seed":3})" "\n"
        R"({"op":"step","session":1,"frames":4})" "\n"
        "\n" // Blank lines are skipped, not answered.
        R"({"op":"values","session":1})" "\n"
        R"({"op":"close","session":1})" "\n"
        R"({"op":"health"})" "\n";
    // --precision fp64 pins the datapath against ORIANNA_PRECISION
    // in the environment: "compiles":1 below is the fp64 contract
    // (an fp32 server also compiles the reference fallback).
    const ToolRun result = runCapture(
        std::string(ORIANNA_RUNTIME_SERVER) + " --precision fp64",
        requests, "proto");
    EXPECT_EQ(result.status, 0); // No request errored.
    const auto lines = result.lines();
    ASSERT_EQ(lines.size(), 6u);
    for (const std::string &line : lines)
        EXPECT_TRUE(parseJson(line)->at("ok").boolean) << line;

    const JsonPtr apps = parseJson(lines[0]);
    bool has_mobile_robot = false;
    for (const auto &name : apps->at("apps").asArray())
        has_mobile_robot |= name->asString() == "MobileRobot";
    EXPECT_TRUE(has_mobile_robot);

    const JsonPtr submit = parseJson(lines[1]);
    EXPECT_EQ(numberField(*submit, "session"), 1.0);
    EXPECT_EQ(submit->at("fingerprint").asString().size(), 16u);

    const JsonPtr step = parseJson(lines[2]);
    EXPECT_EQ(numberField(*step, "total_frames"), 4.0);
    EXPECT_GT(numberField(*step, "cycles"), 0.0);

    const JsonPtr health = parseJson(lines[5]);
    EXPECT_EQ(numberField(health->at("health"), "compiles"), 1.0);
    // No --cache-dir: the persistent tier reports disarmed.
    EXPECT_FALSE(health->at("health").at("store").boolean);
}

TEST(RuntimeServerTool, ProtocolErrorsAnswerInlineAndSetExitCode)
{
    // A malformed line gets a typed error response, later requests
    // still serve, and the exit status reports "some request failed".
    const std::string requests =
        "{broken\n"
        R"({"op":"apps"})" "\n";
    const ToolRun result = runCapture(ORIANNA_RUNTIME_SERVER,
                                      requests, "proto_err");
    EXPECT_EQ(result.status, 3);
    const auto lines = result.lines();
    ASSERT_EQ(lines.size(), 2u);
    const JsonPtr error = parseJson(lines[0]);
    EXPECT_FALSE(error->at("ok").boolean);
    EXPECT_EQ(error->at("error").asString(), "parse_error");
    EXPECT_TRUE(parseJson(lines[1])->at("ok").boolean);
}

TEST(RuntimeServerTool, WarmRestartServesFromStoreByteIdentically)
{
    // The acceptance drill: run the server against a fresh cache
    // directory, kill it, run it again with the same requests — the
    // second process serves entirely from the persistent store (zero
    // compiles) and its response lines are byte-identical.
    const std::string dir = tmpPath("warm_cache");
    std::filesystem::remove_all(dir);
    // Pinned fp64 (see ProtocolSessionRoundTrip): single-artifact
    // store counts.
    const std::string command = std::string(ORIANNA_RUNTIME_SERVER) +
                                " --precision fp64 --cache-dir " + dir;
    const std::string requests =
        R"({"op":"submit","app":"MobileRobot","seed":7})" "\n"
        R"({"op":"step","session":1,"frames":3})" "\n"
        R"({"op":"values","session":1})" "\n"
        R"({"op":"health"})" "\n";

    const ToolRun cold = runCapture(command, requests, "cold");
    ASSERT_EQ(cold.status, 0);
    const auto cold_lines = cold.lines();
    ASSERT_EQ(cold_lines.size(), 4u);
    const JsonPtr cold_health =
        parseJson(cold_lines[3])->fields.at("health");
    EXPECT_TRUE(cold_health->at("store").boolean);
    EXPECT_EQ(numberField(*cold_health, "compiles"), 1.0);
    EXPECT_EQ(numberField(*cold_health, "store_writes"), 1.0);

    const ToolRun warm = runCapture(command, requests, "warm");
    ASSERT_EQ(warm.status, 0);
    const auto warm_lines = warm.lines();
    ASSERT_EQ(warm_lines.size(), 4u);
    // Everything up to the health snapshot is byte-identical: same
    // session ids, same cycles, same 17-digit doubles.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(cold_lines[i], warm_lines[i]) << "line " << i;
    const JsonPtr warm_health =
        parseJson(warm_lines[3])->fields.at("health");
    EXPECT_EQ(numberField(*warm_health, "compiles"), 0.0);
    EXPECT_EQ(numberField(*warm_health, "store_hits"), 1.0);
}

TEST(RuntimeServerTool, ServedTranscriptMatchesCheckedInDigest)
{
    // Every response byte of a served script: submit, step, values and
    // close for each of the 12 (app, algorithm) graphs and the three
    // corpus scenarios at two seeds, then an unknown algorithm and a
    // health snapshot (whose compile counts pin what the Engine
    // compiled). Mission generation runs tier-dispatched kernels, so
    // the graphs, and with them the fingerprints, are pinned on the
    // scalar tier.
    struct Graph
    {
        const char *app;
        const char *algorithm;
    };
    std::vector<Graph> graphs;
    for (const char *app :
         {"MobileRobot", "Manipulator", "AutoVehicle", "Quadrotor"})
        for (const char *algorithm :
             {"localization", "planning", "control"})
            graphs.push_back({app, algorithm});
    for (const char *scenario : {"Manhattan", "Sphere", "Garage"})
        graphs.push_back({scenario, "batch"});

    std::string requests;
    std::vector<std::string> labels;
    const auto request = [&](const std::string &label,
                             const std::string &line) {
        labels.push_back(label);
        requests += line + "\n";
    };
    std::size_t session = 0;
    for (const unsigned seed : {1u, 7u}) {
        for (const Graph &graph : graphs) {
            const std::string label = std::string(graph.app) + "/" +
                                      graph.algorithm + " seed " +
                                      std::to_string(seed);
            const std::string id = std::to_string(++session);
            request(label + " submit",
                    std::string(R"({"op":"submit","app":")") +
                        graph.app + R"(","algorithm":")" +
                        graph.algorithm +
                        R"(","seed":)" + std::to_string(seed) + "}");
            request(label + " step",
                    R"({"op":"step","session":)" + id +
                        R"(,"frames":3})");
            request(label + " values",
                    R"({"op":"values","session":)" + id + "}");
            request(label + " close",
                    R"({"op":"close","session":)" + id + "}");
        }
    }
    request("unknown algorithm",
            R"({"op":"submit","app":"MobileRobot","algorithm":"mapping"})");
    request("health", R"({"op":"health"})");

    const ToolRun result = runCapture(
        std::string(ORIANNA_RUNTIME_SERVER) +
            " --simd scalar --precision fp64",
        requests, "served_transcript");
    EXPECT_EQ(result.status, 3); // Only the unknown algorithm errs.
    const auto lines = result.lines();
    ASSERT_EQ(lines.size(), labels.size());
    std::string digest;
    for (std::size_t i = 0; i < lines.size(); ++i)
        digest += labels[i] + " fnv1a " +
                  orianna::test::hex(orianna::test::fnv1a(lines[i])) +
                  "\n";
    orianna::test::expectGolden(
        ORIANNA_GOLDEN_DIR "/served_transcript.digest", digest);
}

TEST(RuntimeServerTool, ConcurrentStorePopulationSurvivesRestart)
{
    // Two server processes race to populate one cache directory
    // (overlapping on MobileRobot, disjoint on the second app); the
    // atomic temp-file publish keeps every entry valid, so a third
    // warm process serves all three programs without compiling.
    const std::string dir = tmpPath("race_cache");
    std::filesystem::remove_all(dir);
    // Pinned fp64 (see ProtocolSessionRoundTrip): exact store counts.
    const std::string tool =
        std::string(ORIANNA_RUNTIME_SERVER) + " --precision fp64";
    const std::string in_a = tmpPath("race_a_stdin.txt");
    const std::string in_b = tmpPath("race_b_stdin.txt");
    {
        std::ofstream a(in_a);
        a << R"({"op":"submit","app":"MobileRobot"})" << "\n"
          << R"({"op":"submit","app":"Manipulator"})" << "\n";
        std::ofstream b(in_b);
        b << R"({"op":"submit","app":"MobileRobot"})" << "\n"
          << R"({"op":"submit","app":"Quadrotor"})" << "\n";
    }
    ASSERT_EQ(run("sh -c '" + tool + " --cache-dir " + dir + " < " +
                  in_a + " >/dev/null 2>&1 & " + tool +
                  " --cache-dir " + dir + " < " + in_b +
                  " >/dev/null 2>&1 & wait'"),
              0);
    // No half-written temp files survive the race.
    for (const auto &item :
         std::filesystem::directory_iterator(dir))
        EXPECT_EQ(item.path().filename().string().rfind(".tmp.", 0),
                  std::string::npos)
            << item.path();

    const std::string requests =
        R"({"op":"submit","app":"MobileRobot"})" "\n"
        R"({"op":"submit","app":"Manipulator"})" "\n"
        R"({"op":"submit","app":"Quadrotor"})" "\n"
        R"({"op":"health"})" "\n";
    const ToolRun warm = runCapture(tool + " --cache-dir " + dir,
                                    requests, "race_warm");
    ASSERT_EQ(warm.status, 0);
    const JsonPtr health =
        parseJson(warm.lines()[3])->fields.at("health");
    EXPECT_EQ(numberField(*health, "compiles"), 0.0);
    EXPECT_EQ(numberField(*health, "store_hits"), 3.0);
}

// --- orianna_compile ------------------------------------------------

TEST(CompileTool, CompilesAndExportsUnifiedTrace)
{
    const std::string input = writeTinyG2o();
    const std::string metrics_path = tmpPath("compile_metrics.json");
    const std::string trace_path = tmpPath("compile_trace.json");
    ASSERT_EQ(run(std::string(ORIANNA_COMPILE) + " " + input +
                  " --iterate 3 --threads 2 --trace " + trace_path +
                  " --metrics " + metrics_path),
              0);

    // Metrics: the acceptance-criteria quantities must all be there.
    const JsonPtr metrics = parseJsonFile(metrics_path);
    const auto &counters = metrics->at("counters");
    // Three sequential frames plus 2 served sessions x 3 frames.
    EXPECT_EQ(counters.at("frame.count").asNumber(), 9.0);
    const auto &simulate =
        metrics->at("histograms").at("frame.simulate_us");
    EXPECT_EQ(simulate.at("count").asNumber(), 9.0);
    EXPECT_GT(simulate.at("p50_us").asNumber(), 0.0);
    EXPECT_GE(simulate.at("p99_us").asNumber(),
              simulate.at("p50_us").asNumber());
    // One Engine serves the whole run: it compiles once, and the
    // sequential session and both served sessions are cache hits.
    EXPECT_EQ(counters.at("engine.compiles").asNumber(), 1.0);
    EXPECT_EQ(counters.at("engine.cache_hits").asNumber(), 3.0);
    EXPECT_NEAR(metrics->at("derived").at("cache_hit_rate").asNumber(),
                0.75, 1e-6);
    // The served sessions ran as the two indices of one batch.
    EXPECT_EQ(counters.at("pool.batches").asNumber(), 1.0);
    EXPECT_EQ(counters.at("pool.tasks").asNumber(), 2.0);
    const auto &utilization =
        metrics->at("derived").at("utilization").asObject();
    EXPECT_FALSE(utilization.empty());
    for (const auto &[unit, share] : utilization) {
        EXPECT_GT(share->asNumber(), 0.0) << unit;
        EXPECT_LE(share->asNumber(), 1.0) << unit;
    }

    // Trace: one runtime process with per-session tracks; session ->
    // frame -> stage spans nested by time; hardware rows below.
    const JsonPtr trace = parseJsonFile(trace_path);
    std::size_t sessions = 0;
    std::size_t frames = 0;
    std::size_t stages = 0;
    std::size_t hw_events = 0;
    for (const JsonPtr &event : trace->asArray()) {
        if (event->at("ph").asString() == "M")
            continue;
        EXPECT_EQ(event->at("ph").asString(), "X");
        if (event->at("pid").asNumber() >= 1000) {
            ++hw_events;
            continue;
        }
        const std::string &category = event->at("cat").asString();
        if (category == "session")
            ++sessions;
        else if (category == "frame")
            ++frames;
        else if (category == "stage")
            ++stages;
    }
    // The sequential session plus the two served sessions.
    EXPECT_EQ(sessions, 3u);
    EXPECT_EQ(frames, 9u);
    EXPECT_EQ(stages, 18u); // simulate + update per frame.
    EXPECT_GT(hw_events, 0u);
}

TEST(CompileTool, CacheDirSkipsRecompilationOnSecondRun)
{
    const std::string input = writeTinyG2o();
    const std::string dir = tmpPath("compile_cache");
    std::filesystem::remove_all(dir);
    const std::string command = std::string(ORIANNA_COMPILE) + " " +
                                input + " --cache-dir " + dir +
                                " --simulate";
    const ToolRun cold = runCapture(command, "", "compile_cold");
    EXPECT_EQ(cold.status, 0);
    EXPECT_NE(cold.output.find("store: wrote"), std::string::npos)
        << cold.output;

    // Same graph, same directory: the program comes off disk and the
    // simulation still runs from the stored artifact.
    const ToolRun warm = runCapture(command, "", "compile_warm");
    EXPECT_EQ(warm.status, 0);
    EXPECT_NE(warm.output.find("store: hit"), std::string::npos)
        << warm.output;
    EXPECT_NE(warm.output.find("compile skipped"), std::string::npos)
        << warm.output;
}

TEST(CompileTool, ServedEngineCompilesWithTheToolsPipeline)
{
    // The served Engine must compile with the tool's --passes and
    // --verify-passes: the store entry is keyed by the graph alone,
    // so two pipelines would overwrite each other's entry and both
    // recompile on every run.
    const std::string input = writeTinyG2o();
    const std::string dir = tmpPath("served_pipeline_cache");
    std::filesystem::remove_all(dir);
    const std::string command =
        std::string(ORIANNA_COMPILE) + " " + input +
        " --passes none --verify-passes --cache-dir " + dir +
        " --threads 2 --precision fp64";
    const ToolRun cold = runCapture(command, "", "served_cold");
    EXPECT_EQ(cold.status, 0);
    EXPECT_NE(cold.output.find("thread(s): 0 compile(s)"),
              std::string::npos)
        << cold.output;

    const ToolRun warm = runCapture(command, "", "served_warm");
    EXPECT_EQ(warm.status, 0);
    EXPECT_NE(warm.output.find("compile skipped"), std::string::npos)
        << warm.output;
    EXPECT_NE(warm.output.find("thread(s): 0 compile(s)"),
              std::string::npos)
        << warm.output;
}

TEST(CompileTool, DumpIrListsTheStoredProgram)
{
    // A store hit skips the compile, not the listings: they match the
    // cold run's byte for byte.
    const std::string input = writeTinyG2o();
    const std::string dir = tmpPath("dump_ir_cache");
    std::filesystem::remove_all(dir);
    const std::string command = std::string(ORIANNA_COMPILE) + " " +
                                input + " --cache-dir " + dir +
                                " --dump-ir ";
    const std::string cold = tmpPath("dump_ir_cold");
    const std::string warm = tmpPath("dump_ir_warm");
    const std::vector<std::string> suffixes = {
        ".before.ir", ".before.dot", ".after.ir", ".after.dot"};
    for (const std::string &suffix : suffixes)
        std::filesystem::remove(warm + suffix);
    ASSERT_EQ(run(command + cold), 0);
    const ToolRun hit = runCapture(command + warm, "", "dump_ir_warm");
    EXPECT_EQ(hit.status, 0);
    EXPECT_NE(hit.output.find("compile skipped"), std::string::npos)
        << hit.output;
    for (const std::string &suffix : suffixes) {
        ASSERT_TRUE(std::filesystem::exists(warm + suffix)) << suffix;
        EXPECT_EQ(slurp(warm + suffix), slurp(cold + suffix)) << suffix;
    }
}

// --- orianna_compile against the in-process Engine ------------------

/** The graph orianna_compile compiles: @p path with vertex 0 anchored. */
fg::PoseGraphData
anchoredGraph(const std::string &path)
{
    fg::PoseGraphData data = fg::loadG2o(path);
    const fg::Key first = data.initial.keys().front();
    data.graph.emplace<fg::PriorFactor>(
        first, data.initial.pose(first),
        fg::isotropicSigmas(data.initial.dof(first), 1e-3));
    return data;
}

/**
 * Engine::program of @p path under @p options, named like the tool
 * names its program (tag 0, the input path); @p engine_stats receives
 * the engine's counters after the call.
 */
std::vector<std::uint8_t>
engineProgramBytes(const std::string &path,
                   runtime::EngineOptions options,
                   runtime::Engine::Stats *engine_stats = nullptr)
{
    const mat::kernels::ScopedKernelTier scalar(
        mat::kernels::SimdTier::Scalar);
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           std::move(options));
    const fg::PoseGraphData data = anchoredGraph(path);
    const auto program = engine.program(data.graph, data.initial, 0, path);
    if (engine_stats != nullptr)
        *engine_stats = engine.stats();
    return comp::encodeProgram(*program);
}

runtime::EngineOptions
compileOptions(const std::string &passes, comp::Precision precision,
               const std::string &store_dir = "")
{
    runtime::EngineOptions options;
    options.passes = passes;
    options.precision = precision;
    options.storeDir = store_dir;
    return options;
}

TEST(CompileTool, WritesTheEnginesProgramBytes)
{
    const std::vector<std::string> inputs = {
        writeTinyG2o(), std::string(ORIANNA_G2O_DIR) + "/garage_lite.g2o"};
    const std::string out = tmpPath("engine_bytes.oprog");
    for (const std::string &input : inputs)
        for (const std::string passes : {"default", "none"})
            for (const comp::Precision precision :
                 {comp::Precision::Fp64, comp::Precision::Fp32}) {
                const std::string precision_name =
                    comp::precisionName(precision);
                SCOPED_TRACE(input + " --passes " + passes +
                             " --precision " + precision_name);
                std::filesystem::remove(out);
                ASSERT_EQ(run(std::string(ORIANNA_COMPILE) + " " + input +
                              " --simd scalar --passes " + passes +
                              " --precision " + precision_name +
                              " -o " + out),
                          0);
                const std::vector<std::uint8_t> expected =
                    engineProgramBytes(input,
                                       compileOptions(passes, precision));
                EXPECT_EQ(slurp(out),
                          std::string(expected.begin(), expected.end()));
            }
}

TEST(CompileTool, StoreEntriesInteroperateWithTheEngine)
{
    const std::string input = writeTinyG2o();
    for (const comp::Precision precision :
         {comp::Precision::Fp64, comp::Precision::Fp32}) {
        const std::string precision_name = comp::precisionName(precision);
        SCOPED_TRACE(precision_name);
        const std::string command = std::string(ORIANNA_COMPILE) + " " +
                                    input + " --precision " +
                                    precision_name + " --cache-dir ";

        // Written by the tool, a store hit for the Engine.
        const std::string tool_dir = tmpPath("tool_written_store");
        std::filesystem::remove_all(tool_dir);
        ASSERT_EQ(run(command + tool_dir), 0);
        runtime::Engine::Stats stats;
        engineProgramBytes(input,
                           compileOptions("default", precision, tool_dir),
                           &stats);
        EXPECT_EQ(stats.storeHits, 1u);
        EXPECT_EQ(stats.compiles, 0u);

        // Written by the Engine, a store hit for the tool.
        const std::string engine_dir = tmpPath("engine_written_store");
        std::filesystem::remove_all(engine_dir);
        engineProgramBytes(
            input, compileOptions("default", precision, engine_dir),
            &stats);
        EXPECT_EQ(stats.storeWrites, 1u);
        const ToolRun warm =
            runCapture(command + engine_dir, "", "engine_store");
        EXPECT_EQ(warm.status, 0);
        EXPECT_NE(warm.output.find("compile skipped"), std::string::npos)
            << warm.output;
    }
}

TEST(CompileTool, FaultyFramesFallBackInEverySession)
{
    const std::string tool =
        std::string(ORIANNA_COMPILE) + " " + writeTinyG2o();
    // Every issue corrupted: each of the three frames exhausts its
    // retries and lands on the reference program, served sessions
    // included.
    const ToolRun faulty = runCapture(
        tool + " --inject-faults 3@corrupt:all:1.0 --fallback "
               "--iterate 3 --threads 2",
        "", "faults_fallback");
    EXPECT_EQ(faulty.status, 0);
    EXPECT_NE(faulty.output.find("3 fallback frame(s)"),
              std::string::npos)
        << faulty.output;
    EXPECT_NE(faulty.output.find(
                  "results identical to the sequential session"),
              std::string::npos)
        << faulty.output;

    // The fp32 datapath alone provisions the fp64 reference rung.
    const ToolRun fp32 = runCapture(
        tool + " --precision fp32 --fallback --threads 2", "",
        "fp32_fallback");
    EXPECT_EQ(fp32.status, 0);
    EXPECT_NE(
        fp32.output.find("results identical to the sequential session"),
        std::string::npos)
        << fp32.output;
}

TEST(CompileTool, RejectsBadArguments)
{
    const std::string tool = ORIANNA_COMPILE;
    const std::string input = writeTinyG2o();
    EXPECT_EQ(run(tool), 2); // No input at all.
    EXPECT_EQ(run(tool + " " + input + " --iterate 0"), 2);
    EXPECT_EQ(run(tool + " " + input + " --iterate -5"), 2);
    // Overflows a long: must not run LONG_MAX steps.
    EXPECT_EQ(run(tool + " " + input + " --iterate 99999999999999999999"),
              2);
    EXPECT_EQ(run(tool + " " + input + " --threads 0"), 2);
    EXPECT_EQ(run(tool + " " + input + " --threads x"), 2);
    // UINT_MAX + 2: must not wrap around to one thread.
    EXPECT_EQ(run(tool + " " + input + " --threads 4294967297"), 2);
    EXPECT_EQ(run(tool + " " + input + " --bogus"), 2);
    EXPECT_EQ(run(tool + " " + input + " second.g2o"), 2);
    EXPECT_EQ(run(tool + " " + input + " --simd bogus"), 2);
}

TEST(CompileTool, SimdTierSelection)
{
    const std::string tool = ORIANNA_COMPILE;
    const std::string input = writeTinyG2o();
    // Scalar is always compiled and supported; auto always resolves.
    EXPECT_EQ(run(tool + " " + input + " --simd scalar --simulate"), 0);
    EXPECT_EQ(run(tool + " " + input + " --simd auto --simulate"), 0);
    // A known-but-unavailable tier warns and falls back instead of
    // failing, so pinned CI legs degrade gracefully; both names are
    // valid specs on every host and at most one is native.
    EXPECT_EQ(run(tool + " " + input + " --simd avx2 --simulate"), 0);
    EXPECT_EQ(run(tool + " " + input + " --simd neon --simulate"), 0);
}

TEST(RuntimeServerTool, SimdTierSelection)
{
    const std::string tool = ORIANNA_RUNTIME_SERVER;
    EXPECT_EQ(run(tool + " --simd scalar"), 0);
    EXPECT_EQ(run(tool + " --simd bogus"), 2);
}

TEST(CompileTool, FailsCleanlyOnMissingInput)
{
    EXPECT_EQ(run(std::string(ORIANNA_COMPILE) +
                  " /nonexistent-dir-orianna/missing.g2o"),
              1);
}

TEST(CompileTool, FailsOnUnwritableExportPath)
{
    EXPECT_EQ(run(std::string(ORIANNA_COMPILE) + " " + writeTinyG2o() +
                  " --metrics /nonexistent-dir-orianna/m.json"),
              1);
}

// --- examples/mobile_robot_pipeline ---------------------------------

TEST(MobileRobotPipelineTool, CompletesMissionAndWritesTrace)
{
    // The example writes its schedule into the working directory, so
    // it runs from a directory of its own.
    const std::filesystem::path dir = tmpPath("mobile_robot_pipeline");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ToolRun result =
        runCapture("cd " + dir.string() + " && " +
                       ORIANNA_MOBILE_ROBOT_PIPELINE,
                   "", "mobile_robot_pipeline");
    EXPECT_EQ(result.status, 0);
    EXPECT_NE(result.output.find("accelerator SUCCESS"),
              std::string::npos)
        << result.output;

    // One complete event per scheduled instruction the example reports.
    const std::string marker = "mobile_robot_schedule.json (";
    const std::size_t at = result.output.find(marker);
    ASSERT_NE(at, std::string::npos) << result.output;
    const std::size_t reported =
        std::stoul(result.output.substr(at + marker.size()));
    const JsonPtr trace =
        parseJsonFile((dir / "mobile_robot_schedule.json").string());
    std::size_t complete = 0;
    for (const JsonPtr &event : trace->asArray())
        complete += event->at("ph").asString() == "X" ? 1 : 0;
    EXPECT_GT(reported, 0u);
    EXPECT_EQ(complete, reported);
    std::filesystem::remove_all(dir);
}

} // namespace
