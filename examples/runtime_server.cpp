// The runtime serving front-end: the line-delimited JSON protocol of
// DESIGN.md §11 — one request object per stdin line, one response
// object per stdout line (stdout carries ONLY JSON; diagnostics go to
// stderr). The four Tbl. 4 benchmark applications and the pose-graph
// corpus scenarios are registered as submittable graph sources, and
// the engine underneath optionally runs with the persistent program
// store armed (--cache-dir), so a restarted server re-serves every
// previously compiled program without compiling:
//
//   $ echo '{"op":"submit","app":"MobileRobot"}' |
//         runtime_server --cache-dir /tmp/orianna-cache
//   {"ok":true,"op":"submit","session":1,...}
//
// Exit status: 0 when every request succeeded, 3 when at least one
// request was answered with an error response (the server itself
// never tears down on a bad request), 2 on bad argv.
//
// Usage:
//   runtime_server [--cache-dir DIR] [--simd TIER] [--precision P]

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "matrix/simd.hpp"
#include "runtime/program_store.hpp"
#include "runtime/serving_protocol.hpp"

using namespace orianna;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--cache-dir DIR] [--simd TIER] [--precision P]\n"
        "  serves the line-delimited JSON protocol on stdin/stdout\n"
        "  --cache-dir DIR    arm the persistent program store in "
        "DIR (created if absent)\n"
        "  --simd TIER        kernel tier: scalar, avx2, neon or "
        "auto (overrides ORIANNA_SIMD)\n"
        "  --precision P      accelerator datapath: fp64 or fp32 "
        "(default: ORIANNA_PRECISION, else fp64); fp32 provisions "
        "the fp64 reference fallback\n",
        argv0);
    return 2;
}

/**
 * Register the four Tbl. 4 applications on @p server. Each submit
 * generates the requested mission fresh (deterministic per seed) and
 * hands the named algorithm's graph to the engine — "" picks the
 * application's first algorithm (localization). The mission is never
 * compiled here: the engine compiles (or finds) the one program the
 * session runs.
 */
void
registerBenchmarkApps(runtime::ProtocolServer &server)
{
    for (const apps::AppKind kind : apps::allApps()) {
        server.registerApp(
            apps::appName(kind),
            [kind](const std::string &algorithm, unsigned seed) {
                apps::BenchmarkApp mission =
                    apps::buildMission(kind, seed);
                core::Application &app = mission.app;
                core::Algorithm *chosen =
                    algorithm.empty() ? &app.algorithm(0)
                                      : app.find(algorithm);
                if (chosen == nullptr)
                    throw std::invalid_argument(
                        "application \"" +
                        std::string(apps::appName(kind)) +
                        "\" has no algorithm \"" + algorithm + "\"");
                runtime::SubmittedGraph out;
                out.graph = std::move(chosen->graph);
                out.initial = std::move(chosen->values);
                out.stepScale = chosen->stepScale;
                return out;
            });
    }
}

/**
 * Register the pose-graph corpus scenarios (DESIGN.md §13) as
 * submittable graph sources. Each submit generates the scenario at
 * the lite (committed data/g2o) scale for the requested seed and
 * flattens the frame stream into one batch graph; the "algorithm"
 * field is unused and must stay empty or "batch".
 */
void
registerPoseGraphApps(runtime::ProtocolServer &server)
{
    using Maker = apps::PoseGraphScenario (*)(unsigned seed);
    static constexpr struct
    {
        const char *name;
        Maker make;
    } kScenarios[] = {
        {"Manhattan",
         [](unsigned seed) {
             return apps::makeManhattanWorld(120, seed);
         }},
        {"Sphere",
         [](unsigned seed) {
             return apps::makeSphereWorld(6, 20, seed);
         }},
        {"Garage", [](unsigned seed) {
             return apps::makeGarageWorld(5, 24, seed);
         }}};
    for (const auto &entry : kScenarios) {
        server.registerApp(
            entry.name,
            [&entry](const std::string &algorithm, unsigned seed) {
                if (!algorithm.empty() && algorithm != "batch")
                    throw std::invalid_argument(
                        "pose-graph scenario \"" +
                        std::string(entry.name) +
                        "\" has no algorithm \"" + algorithm + "\"");
                const apps::PoseGraphScenario scenario =
                    entry.make(seed);
                runtime::SubmittedGraph out;
                out.graph = scenario.graph();
                out.initial = scenario.initial;
                return out;
            });
    }
}

/** The JSON protocol loop over one engine built from @p options. */
int
serve(runtime::EngineOptions options)
{
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           std::move(options));

    runtime::ProtocolServer server(engine);
    registerBenchmarkApps(server);
    registerPoseGraphApps(server);

    // Diagnostics strictly on stderr: stdout is the protocol channel.
    std::fprintf(stderr, "simd: %s\n",
                 mat::kernels::simdCapabilityString().c_str());
    std::fprintf(stderr, "precision: %s\n",
                 comp::precisionName(engine.precision()));
    if (engine.store() != nullptr)
        std::fprintf(stderr, "store: %s (%s)\n",
                     engine.store()->dir().c_str(),
                     engine.store()->available() ? "available"
                                                 : "unavailable");

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        std::fputs(server.handle(line).c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }
    std::fprintf(stderr,
                 "served %llu request(s), %llu error(s), "
                 "%zu session(s) left open\n",
                 static_cast<unsigned long long>(server.requests()),
                 static_cast<unsigned long long>(server.errors()),
                 server.openSessions());
    return server.errors() > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    runtime::EngineOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-dir" && i + 1 < argc) {
            options.storeDir = argv[++i];
        } else if (arg == "--simd" && i + 1 < argc) {
            const auto selection =
                mat::kernels::selectTierFromSpec(argv[++i]);
            if (!selection.ok) {
                std::fprintf(stderr, "error: --simd: %s\n",
                             selection.message.c_str());
                return usage(argv[0]);
            }
            if (!selection.message.empty())
                std::fprintf(stderr, "warning: --simd: %s\n",
                             selection.message.c_str());
        } else if (arg == "--precision" && i + 1 < argc) {
            comp::Precision parsed = comp::Precision::Fp64;
            if (!comp::parsePrecision(argv[++i], parsed)) {
                std::fprintf(stderr,
                             "error: --precision: unknown mode "
                             "\"%s\"\n",
                             argv[i]);
                return usage(argv[0]);
            }
            options.precision = parsed;
        } else {
            return usage(argv[0]);
        }
    }
    return serve(std::move(options));
}
