// orianna-compile: command-line front end of the ORIANNA toolchain.
//
// Load a pose graph in g2o format, compile it into the ORIANNA ISA
// (anchoring the first vertex, minimum-degree ordering, the --passes
// pipeline), report the instruction mix, optionally run Gauss-Newton
// steps on the simulated accelerator, and save the binary program.
//
// One runtime::Engine, built once from the flags, serves the whole
// run: the compile and its report, the -o program, the --cache-dir
// store tier, the --fallback reference rung, the sequential session
// and the served sessions. With --threads N, the tool also runs the
// serving path on that Engine: N sessions run as the indices of one
// parallelFor on an N-worker ServerPool, all stepped concurrently and
// asserted byte-identical to the sequential session (the program is
// already compiled, so each is a cache hit).
//
// Usage:
//   orianna_compile <input.g2o> [-o out.oprog] [--simulate]
//                   [--iterate N] [--threads N] [--trace out.json]
//                   [--metrics out.json] [--dot out.dot]
//                   [--passes LIST] [--list-passes]
//                   [--dump-ir PREFIX] [--verify-passes]
//                   [--inject-faults SPEC] [--fallback]
//
// --inject-faults arms the deterministic hardware fault injector for
// the simulated steps (SPEC = [SEED@]kind:unit:rate[:cycles],...;
// kinds stall/spike/corrupt, unit a functional-unit name or "all");
// --fallback lets a faulty frame degrade to the cleanup-only
// reference program instead of failing after the retry budget.
//
// --trace writes the unified observability trace (DESIGN.md §6):
// session -> frame -> stage spans of the Gauss-Newton loop nested
// above the per-unit hardware schedule rows, loadable in
// https://ui.perfetto.dev. --metrics dumps the serving metrics
// registry (compile times, per-stage frame p50/p99, utilization)
// after the run. --passes selects the optimization pipeline
// ("default", "none", or a comma-separated pass list, DESIGN.md §7);
// --verify-passes runs the per-pass equivalence check on the compile;
// --dump-ir writes PREFIX.{before,after}.ir listings and matching .dot
// instruction-dependence graphs. --iterate and --threads reject zero,
// negative or overflowing counts (and --threads anything above
// UINT_MAX); unknown flags print usage and exit nonzero.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/encoding.hpp"
#include "compiler/ir_dump.hpp"
#include "compiler/pass_manager.hpp"
#include "fg/dot.hpp"
#include "fg/factors.hpp"
#include "fg/io_g2o.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_store.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/trace_sink.hpp"

using namespace orianna;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <input.g2o> [-o out.oprog] [--simulate] "
                 "[--iterate N] [--threads N] [--trace out.json] "
                 "[--metrics out.json] [--dot out.dot] "
                 "[--passes LIST] [--list-passes] "
                 "[--dump-ir PREFIX] [--verify-passes] "
                 "[--inject-faults SPEC] [--fallback] [--simd TIER] "
                 "[--precision P] [--cache-dir DIR]\n"
                 "  --iterate N and --threads N require N >= 1\n"
                 "  --precision takes fp64 or fp32 (default: "
                 "ORIANNA_PRECISION, else fp64); fp32 compiles for "
                 "the single-precision datapath and provisions the "
                 "fp64 reference fallback\n"
                 "  --cache-dir DIR reuses compiled programs from the "
                 "persistent store in DIR (created if absent)\n"
                 "  --simd takes scalar, avx2, neon or auto "
                 "(overrides ORIANNA_SIMD; unavailable tiers fall "
                 "back to the best supported one)\n"
                 "  --passes takes \"default\", \"none\", or a "
                 "comma-separated pass list (see --list-passes)\n"
                 "  --inject-faults takes "
                 "[SEED@]kind:unit:rate[:cycles],... with kinds "
                 "stall, spike, corrupt\n"
                 "  --fallback degrades faulty frames to the "
                 "reference program instead of failing\n",
                 argv0);
    return 2;
}

/**
 * Parse a strictly positive integer; returns 0 on any malformation,
 * a count that overflows a long included.
 */
unsigned long
parsePositive(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value <= 0)
        return 0;
    return static_cast<unsigned long>(value);
}

/** Exact (bitwise) equality of two value sets over @p keys. */
bool
identicalValues(const fg::Values &a, const fg::Values &b)
{
    for (fg::Key key : a.keys()) {
        if (a.isPose(key)) {
            if (mat::maxDifference(a.pose(key).phi(),
                                   b.pose(key).phi()) != 0.0 ||
                mat::maxDifference(a.pose(key).t(),
                                   b.pose(key).t()) != 0.0)
                return false;
        } else if (mat::maxDifference(a.vector(key),
                                      b.vector(key)) != 0.0) {
            return false;
        }
    }
    return true;
}

/** Print the compile line and one line per pass of @p record. */
void
reportCompile(const runtime::Engine::CompileRecord &record,
              std::size_t value_slots)
{
    std::string spec;
    for (const comp::PassStats &stat : record.passes)
        spec += (spec.empty() ? "" : ",") + stat.pass;
    std::printf("compiled: %zu instructions (%zu before pipeline "
                "\"%s\"), %zu value slots\n",
                record.instructions,
                record.passes.empty() ? record.instructions
                                      : record.passes.front().before,
                spec.empty() ? "none" : spec.c_str(), value_slots);
    for (const comp::PassStats &stat : record.passes)
        std::printf("  pass %-6s %4zu -> %4zu instructions "
                    "(%zu rewrites, %llu us%s)\n",
                    stat.pass.c_str(), stat.before, stat.after,
                    stat.rewrites,
                    static_cast<unsigned long long>(stat.wallUs),
                    stat.verified ? ", verified" : "");
}

/** Write @p program's listing and dependence graph to @p base.{ir,dot}. */
void
dumpIr(const std::string &base, const comp::Program &program)
{
    std::ofstream listing(base + ".ir");
    listing << comp::programListing(program);
    std::ofstream dot(base + ".dot");
    dot << comp::programToDot(program);
    if (!listing || !dot)
        throw std::runtime_error("cannot write " + base + ".{ir,dot}");
    std::printf("wrote %s.ir, %s.dot\n", base.c_str(), base.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    std::string input;
    std::string output;
    std::string trace_path;
    std::string metrics_path;
    std::string dot_path;
    std::string passes_spec = "default";
    std::string dump_ir_prefix;
    bool simulate = false;
    bool serve = false;
    bool verify_passes = false;
    std::string fault_spec;
    bool fallback = false;
    std::string cache_dir;
    std::optional<comp::Precision> precision; // Unset: Engine resolves.
    std::size_t iterations = 1;
    unsigned threads = 0; // 0: hardware_concurrency.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-passes") {
            for (const auto &[name, description] :
                 comp::PassManager::availablePasses())
                std::printf("%-8s %s\n", name.c_str(),
                            description.c_str());
            return 0;
        }
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--passes" && i + 1 < argc) {
            passes_spec = argv[++i];
        } else if (arg == "--dump-ir" && i + 1 < argc) {
            dump_ir_prefix = argv[++i];
        } else if (arg == "--verify-passes") {
            verify_passes = true;
        } else if (arg == "--simulate") {
            simulate = true;
        } else if (arg == "--iterate" && i + 1 < argc) {
            simulate = true;
            iterations = parsePositive(argv[++i]);
            if (iterations == 0)
                return usage(argv[0]);
        } else if (arg == "--threads" && i + 1 < argc) {
            simulate = true;
            serve = true;
            const unsigned long parsed = parsePositive(argv[++i]);
            if (parsed == 0 || parsed > UINT_MAX)
                return usage(argv[0]);
            threads = static_cast<unsigned>(parsed);
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--dot" && i + 1 < argc) {
            dot_path = argv[++i];
        } else if (arg == "--inject-faults" && i + 1 < argc) {
            simulate = true;
            fault_spec = argv[++i];
        } else if (arg == "--fallback") {
            fallback = true;
        } else if (arg == "--precision" && i + 1 < argc) {
            comp::Precision parsed = comp::Precision::Fp64;
            if (!comp::parsePrecision(argv[++i], parsed)) {
                std::fprintf(stderr,
                             "error: --precision: unknown mode "
                             "\"%s\"\n",
                             argv[i]);
                return usage(argv[0]);
            }
            precision = parsed;
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
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
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (input.empty()) {
            input = arg;
        } else {
            return usage(argv[0]); // A second positional argument.
        }
    }
    if (input.empty())
        return usage(argv[0]);
    if (!trace_path.empty())
        runtime::TraceCollector::setEnabled(true);
    std::printf("simd: %s\n",
                mat::kernels::simdCapabilityString().c_str());

    try {
        const hw::AcceleratorConfig config =
            hw::AcceleratorConfig::minimal(true);
        runtime::EngineOptions options;
        options.passes = passes_spec;
        options.verifyPasses = verify_passes;
        if (!fault_spec.empty())
            options.faultPlan = hw::FaultPlan::parse(fault_spec);
        options.degradation.fallback = fallback;
        options.storeDir = cache_dir;
        options.precision = precision;
        runtime::Engine engine(config, std::move(options));
        std::printf("precision: %s\n",
                    comp::precisionName(engine.precision()));

        fg::PoseGraphData data = fg::loadG2o(input);
        std::printf("loaded %s: %zu vertices, %zu edges\n",
                    input.c_str(), data.initial.size(),
                    data.graph.size());
        for (const std::string &warning : data.warnings)
            std::fprintf(stderr, "warning: %s\n", warning.c_str());
        if (data.initial.size() == 0)
            throw std::runtime_error("empty pose graph");

        // Anchor the gauge at the first vertex.
        const fg::Key first = data.initial.keys().front();
        const std::size_t dof = data.initial.dof(first);
        data.graph.emplace<fg::PriorFactor>(
            first, data.initial.pose(first),
            fg::isotropicSigmas(dof, 1e-3));

        const std::shared_ptr<const comp::Program> program =
            engine.program(data.graph, data.initial, 0, input);
        const runtime::Engine::Stats compiled = engine.stats();
        if (compiled.storeHits > 0) {
            std::printf("store: hit in %s (pipeline \"%s\"), compile "
                        "skipped\n",
                        cache_dir.c_str(), passes_spec.c_str());
            std::printf("compiled: %zu instructions (from store), %zu "
                        "value slots\n",
                        program->instructions.size(),
                        program->valueSlots);
        } else {
            const runtime::Engine::CompileRecord record =
                engine.compileLog().back();
            reportCompile(record, program->valueSlots);
            if (compiled.storeWrites > 0)
                std::printf(
                    "store: wrote %s\n",
                    engine.store()->entryPath(record.fingerprint).c_str());
        }
        if (!dump_ir_prefix.empty()) {
            // The pre-pipeline stream, from a pass-less Engine. It
            // must not arm the store: its entry would share this
            // program's key under another pass spec and overwrite it.
            runtime::EngineOptions raw_options;
            raw_options.passes = "none";
            raw_options.precision = engine.precision();
            runtime::Engine raw(config, std::move(raw_options));
            dumpIr(dump_ir_prefix + ".before",
                   *raw.program(data.graph, data.initial, 0, input));
            dumpIr(dump_ir_prefix + ".after", *program);
        }
        const auto histogram = program->opHistogram();
        std::printf("instruction mix:");
        for (std::size_t op = 0; op < histogram.size(); ++op)
            if (histogram[op] > 0)
                std::printf(" %s=%zu",
                            comp::isaOpName(
                                static_cast<comp::IsaOp>(op)),
                            histogram[op]);
        std::printf("\n");

        if (!output.empty()) {
            comp::saveProgram(output, *program);
            std::printf("wrote %s\n", output.c_str());
        }
        if (!dot_path.empty()) {
            std::ofstream dot(dot_path);
            dot << fg::graphToDot(data.graph);
            std::printf("wrote %s\n", dot_path.c_str());
        }
        if (simulate || !trace_path.empty()) {
            // A session keeps one execution context warm across
            // Gauss-Newton steps: each step only re-runs the frame.
            // Scoped so its destructor closes the "session" span
            // before the unified trace is written.
            fg::Values sequential_values;
            {
                runtime::Session session = engine.session(
                    data.graph, data.initial, 1.0, 0, input);
                const hw::SimResult first = session.step();
                std::printf("one Gauss-Newton step on the minimal "
                            "OoO accelerator: %llu cycles (%.1f us "
                            "@167MHz), %.2f uJ\n",
                            static_cast<unsigned long long>(
                                first.cycles),
                            first.seconds() * 1e6,
                            first.totalEnergyJ() * 1e6);
                if (iterations > 1) {
                    session.iterate(iterations - 1);
                    const hw::SimResult &total = session.totals();
                    std::printf("%zu steps total: %llu cycles "
                                "(%.1f us @167MHz), %.2f uJ\n",
                                session.frames(),
                                static_cast<unsigned long long>(
                                    total.cycles),
                                total.seconds() * 1e6,
                                total.totalEnergyJ() * 1e6);
                }
                if (!fault_spec.empty())
                    std::printf(
                        "faults: %llu injected, %llu detected, "
                        "%llu retry(ies), %llu fallback frame(s)\n",
                        static_cast<unsigned long long>(
                            session.totals().faultsInjected),
                        static_cast<unsigned long long>(
                            session.faultsDetected()),
                        static_cast<unsigned long long>(
                            session.retries()),
                        static_cast<unsigned long long>(
                            session.fallbacks()));
                sequential_values = session.values();
            }
            if (serve) {
                // The serving path: n sessions as the indices of one
                // parallelFor, all opened on the same Engine (cache
                // hits) and stepped concurrently; each must land on
                // exactly the sequential session's values.
                runtime::ServerPool pool(threads);
                const unsigned n = pool.threads();
                std::vector<std::unique_ptr<runtime::Session>>
                    sessions(n);
                std::vector<std::string> failures(n);
                const runtime::Engine::Stats before = engine.stats();
                pool.parallelFor(n, [&](std::size_t c) {
                    try {
                        auto session =
                            std::make_unique<runtime::Session>(
                                engine.session(data.graph,
                                               data.initial, 1.0, 0,
                                               input));
                        session->iterate(iterations);
                        sessions[c] = std::move(session);
                    } catch (const std::exception &error) {
                        failures[c] = error.what();
                    }
                });

                bool identical = true;
                for (std::size_t c = 0; c < sessions.size(); ++c) {
                    if (!failures[c].empty() ||
                        sessions[c] == nullptr) {
                        std::fprintf(stderr,
                                     "client %zu failed: %s\n", c,
                                     failures[c].c_str());
                        identical = false;
                        continue;
                    }
                    identical = identical &&
                                identicalValues(sequential_values,
                                                sessions[c]->values());
                }
                // The served phase's own compiles and hits.
                const runtime::Engine::Stats after = engine.stats();
                std::printf("served %u concurrent session(s) on %u "
                            "thread(s): %zu compile(s), %zu cache "
                            "hit(s), results %s\n",
                            n, n, after.compiles - before.compiles,
                            after.cacheHits - before.cacheHits,
                            identical
                                ? "identical to the sequential session"
                                : "DIVERGED");
                const auto totals = pool.tasksExecuted();
                for (std::size_t w = 0; w < totals.size(); ++w)
                    std::printf("  thread %zu: %llu task(s)\n", w,
                                static_cast<unsigned long long>(
                                    totals[w]));
                if (!fault_spec.empty())
                    std::printf("health: %s\n",
                                engine.healthJson().c_str());
                if (!identical)
                    return 1;
            }
            if (!trace_path.empty()) {
                runtime::TraceCollector::global().write(trace_path);
                std::printf("wrote %s (unified runtime->hw trace)\n",
                            trace_path.c_str());
            }
        }
        if (!metrics_path.empty()) {
            std::ofstream out(metrics_path);
            out << runtime::Engine::metricsJson();
            if (!out)
                throw std::runtime_error("cannot write " +
                                         metrics_path);
            std::printf("wrote %s\n", metrics_path.c_str());
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
