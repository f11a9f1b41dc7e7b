// serve_mix: one closed-loop client drives the real runtime_server
// binary over its stdin/stdout protocol. Each session submits one of
// the 12 Table-4 (app, algorithm) graphs, steps it to convergence,
// reads its values and closes it. Every graph is served by four
// sessions: the first compiles it (a miss), the other three hit the
// server's cache. The served path is submit-bound.

#include <fcntl.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "apps/benchmark_apps.hpp"
#include "common.hpp"
#include "fg/optimizer.hpp"
#include "hw/cost_model.hpp"
#include "layers.hpp"
#include "runtime/json.hpp"

namespace perfbench {

namespace apps = orianna::apps;
namespace fg = orianna::fg;
namespace hw = orianna::hw;
namespace json = orianna::runtime::json;
namespace runtime = orianna::runtime;

namespace {

// Sessions per graph: one compile miss, then cache hits. The churn of
// bench_runtime_throughput (6 distinct graphs over 24 sessions): a
// quarter of the submits compile (11 of 48 here, see schedule()).
constexpr std::size_t kUsesPerGraph = 4;
// A block serves every graph once as a miss and kUsesPerGraph - 1
// times as a hit: 48 sessions. Blocks per requested second (a block
// takes about 1.1 s on the reference core).
constexpr double kBlocksPerSecond = 0.8;
constexpr int kSetups = 5;
// Set-up compiles every graph at this seed; timed seeds lie above it.
constexpr unsigned kWarmSeed = 1;

const char *const kAlgorithms[] = {"localization", "planning",
                                   "control"};

/** One of the 12 Table-4 graphs. */
struct Kind
{
    apps::AppKind app;
    std::size_t algorithm; //!< Index into kAlgorithms.
    std::string name;
    std::size_t steps; //!< Steps per session.
};

/**
 * Steps per session: the Gauss-Newton iterations fg::optimize (default
 * parameters, the algorithm's step scale) takes to converge on the
 * graph at seed 1. A client steps a session until its solve converges.
 */
std::size_t
convergedSteps(apps::AppKind app, std::size_t algorithm)
{
    //                             localization planning control
    static const std::map<apps::AppKind, std::array<std::size_t, 3>> kSteps{
        {apps::AppKind::MobileRobot, {4, 18, 2}},
        {apps::AppKind::Manipulator, {2, 21, 2}},
        {apps::AppKind::AutoVehicle, {4, 18, 2}},
        {apps::AppKind::Quadrotor, {5, 23, 2}},
    };
    return kSteps.at(app)[algorithm];
}

/** The 12 graphs, each once: the mix has no usage weights. */
std::vector<Kind>
kinds()
{
    std::vector<Kind> out;
    for (apps::AppKind app : apps::allApps())
        for (std::size_t a = 0; a < 3; ++a)
            out.push_back({app, a,
                           std::string(apps::appName(app)) + "/" +
                               kAlgorithms[a],
                           convergedSteps(app, a)});
    return out;
}

struct SessionSpec
{
    std::size_t kind;
    unsigned seed;
};

/**
 * Seeded session order over blocks [@p first, @p first + @p count).
 * A block is kUsesPerGraph rounds, each a shuffle of the 12 graphs;
 * the block's graphs have never-seen seeds (unique per block and
 * graph), so its first round compiles them and the others hit. One
 * graph, Manipulator planning, is the same at every seed: it always
 * hits, and 11 of a block's 48 submits compile.
 */
std::vector<SessionSpec>
schedule(unsigned run_seed, std::size_t first, std::size_t count,
         const std::vector<Kind> &all)
{
    const unsigned base =
        10000000u + static_cast<unsigned>(mix(run_seed) % 100000u) * 10000u;
    std::vector<SessionSpec> out;
    std::uint64_t rng = mix(run_seed ^ 0x5e55u);
    for (std::size_t b = first; b < first + count; ++b)
        for (std::size_t round = 0; round < kUsesPerGraph; ++round) {
            std::vector<std::size_t> order(all.size());
            for (std::size_t k = 0; k < order.size(); ++k)
                order[k] = k;
            for (std::size_t k = order.size(); k > 1; --k) {
                rng = mix(rng + b * kUsesPerGraph + round);
                std::swap(order[k - 1], order[rng % k]);
            }
            for (std::size_t kind : order)
                out.push_back(
                    {kind, base + static_cast<unsigned>(
                                      (b * all.size() + kind) % 10000u)});
        }
    return out;
}

/**
 * A runtime_server child process on two pipes. Responses are framed
 * by balanced JSON, not by line: an object ends where its outermost
 * brace closes, so a pretty-printed multi-line response (the metrics
 * op) reads as one response.
 */
class ServerProcess
{
  public:
    /**
     * Start @p path pinned to @p cpu, with the benchmark's datapath:
     * fp64 and kernel tier @p simd.
     */
    ServerProcess(const std::string &path, int cpu, const std::string &simd)
    {
        int to_child[2];
        int from_child[2];
        if (pipe2(to_child, O_CLOEXEC) != 0 ||
            pipe2(from_child, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe: " +
                                     std::string(std::strerror(errno)));
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork: " +
                                     std::string(std::strerror(errno)));
        if (pid_ == 0) {
            dup2(to_child[0], 0);
            dup2(from_child[1], 1);
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            sched_setaffinity(0, sizeof set, &set);
            execl(path.c_str(), path.c_str(), "--precision", "fp64", "--simd",
                  simd.c_str(), static_cast<char *>(nullptr));
            _exit(127);
        }
        close(to_child[0]);
        close(from_child[1]);
        in_ = to_child[1];
        out_ = from_child[0];
        // The client spins on its end of the pipe instead of sleeping:
        // waking a halted vCPU costs a host-scheduler round trip whose
        // latency follows host load, which the clock cannot correct.
        fcntl(out_, F_SETFL, fcntl(out_, F_GETFL) | O_NONBLOCK);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    ~ServerProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            finish();
        }
    }

    int pid() const { return pid_; }

    /**
     * Whether the response to a submit names a program this server
     * had not served before: a compile miss.
     */
    bool
    firstSight(const json::Value &submitted)
    {
        const json::Value *fingerprint = submitted.field("fingerprint");
        return fingerprint != nullptr &&
               fingerprints_.insert(fingerprint->text).second;
    }

    /** Send one request line; return the next whole response. */
    std::string
    request(const std::string &line)
    {
        const std::string framed = line + "\n";
        std::size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n =
                write(in_, framed.data() + sent, framed.size() - sent);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("server closed its stdin");
            sent += static_cast<std::size_t>(n);
        }
        return nextObject();
    }

    /** Close stdin, wait for exit; returns the exit status or -1. */
    int
    finish()
    {
        if (in_ >= 0)
            close(in_);
        in_ = -1;
        int status = 0;
        const pid_t pid = pid_;
        pid_ = -1;
        if (out_ >= 0) {
            fcntl(out_, F_SETFL, fcntl(out_, F_GETFL) & ~O_NONBLOCK);
            char sink[4096];
            while (read(out_, sink, sizeof sink) > 0) {
            }
            close(out_);
            out_ = -1;
        }
        if (pid <= 0 || waitpid(pid, &status, 0) != pid)
            return -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    std::string
    nextObject()
    {
        std::size_t pos = 0;
        std::size_t start = std::string::npos;
        int depth = 0;
        bool in_string = false;
        bool escaped = false;
        for (;;) {
            for (; pos < buffer_.size(); ++pos) {
                const char c = buffer_[pos];
                if (start == std::string::npos) {
                    if (c == '{') {
                        start = pos;
                        depth = 1;
                    } else if (!std::isspace(static_cast<unsigned char>(c))) {
                        throw std::runtime_error(
                            "server wrote a non-object response");
                    }
                } else if (in_string) {
                    if (escaped)
                        escaped = false;
                    else if (c == '\\')
                        escaped = true;
                    else if (c == '"')
                        in_string = false;
                } else if (c == '"') {
                    in_string = true;
                } else if (c == '{' || c == '[') {
                    ++depth;
                } else if ((c == '}' || c == ']') && --depth == 0) {
                    std::string object =
                        buffer_.substr(start, pos + 1 - start);
                    buffer_.erase(0, pos + 1);
                    return object;
                }
            }
            char chunk[65536];
            const ssize_t n = read(out_, chunk, sizeof chunk);
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            if (n <= 0)
                throw std::runtime_error("server closed its stdout");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::string buffer_;
    std::set<std::string> fingerprints_;
};

/** Parsed response; null when it is not {"ok":true,...}. */
json::ValuePtr
okResponse(const std::string &text)
{
    json::ValuePtr doc = json::parse(text);
    const json::Value *ok = doc->field("ok");
    return ok != nullptr && ok->kind == json::Value::Kind::Bool &&
                   ok->boolean
               ? doc
               : nullptr;
}

std::string
submitLine(const Kind &kind, unsigned seed)
{
    return std::string("{\"op\":\"submit\",\"app\":\"") +
           apps::appName(kind.app) + "\",\"algorithm\":\"" +
           kAlgorithms[kind.algorithm] +
           "\",\"seed\":" + std::to_string(seed) + "}";
}

std::string
sessionOp(const char *op, std::uint64_t session)
{
    return std::string("{\"op\":\"") + op +
           "\",\"session\":" + std::to_string(session) + "}";
}

/** Everything one pass over a session schedule measured. */
struct MixRun
{
    ClassAudit steps;
    ClassAudit submits;
    std::vector<Span> stepSpans;
    std::vector<Span> submitSpans;
    std::vector<Span> valuesSpans;
    std::vector<Span> closeSpans;
    double cycles = 0.0;
    /** (kind, seed) -> served values text, for the identity check. */
    std::map<std::pair<std::size_t, unsigned>, std::string> values;
};

void
runSessions(ServerProcess &server, const std::vector<Kind> &all,
            const std::vector<SessionSpec> &specs, HostClock &clock,
            Result &result, MixRun &run)
{
    struct Pending
    {
        std::string klass;
        Span span;
    };
    std::vector<Pending> steps;
    std::vector<Pending> submits;
    for (const SessionSpec &spec : specs) {
        const Kind &kind = all[spec.kind];
        clock.maybeProbe();
        ++result.attempted;
        Clock::time_point start = Clock::now();
        const json::ValuePtr submitted =
            okResponse(server.request(submitLine(kind, spec.seed)));
        const Span submit_span = spanFrom(start);
        if (submitted == nullptr) {
            result.fail("submit " + kind.name + " was refused");
            continue;
        }
        submits.push_back({std::string(apps::appName(kind.app)) +
                               (server.firstSight(*submitted) ? " miss"
                                                              : " hit"),
                           submit_span});
        run.submitSpans.push_back(submit_span);
        const auto session = static_cast<std::uint64_t>(
            submitted->field("session")->number);

        for (std::size_t s = 0; s < kind.steps; ++s) {
            clock.maybeProbe();
            ++result.attempted;
            start = Clock::now();
            const json::ValuePtr stepped =
                okResponse(server.request(sessionOp("step", session)));
            const Span span = spanFrom(start);
            if (stepped == nullptr) {
                result.fail("step " + kind.name + " was refused");
                continue;
            }
            steps.push_back({kind.name, span});
            run.stepSpans.push_back(span);
            run.cycles += stepped->field("cycles")->number;
        }

        clock.maybeProbe();
        ++result.attempted;
        start = Clock::now();
        const std::string values = server.request(sessionOp("values", session));
        run.valuesSpans.push_back(spanFrom(start));
        const std::size_t at = values.find("\"values\":");
        if (okResponse(values) == nullptr || at == std::string::npos) {
            result.fail("values " + kind.name + " was refused");
        } else {
            // Same graph, same frames: byte-identical values.
            const auto [it, fresh] = run.values.emplace(
                std::make_pair(spec.kind, spec.seed), values.substr(at));
            if (!fresh && it->second != values.substr(at))
                result.fail("values of " + kind.name + " seed " +
                            std::to_string(spec.seed) +
                            " differ between sessions");
        }

        ++result.attempted;
        start = Clock::now();
        if (okResponse(server.request(sessionOp("close", session))) ==
            nullptr)
            result.fail("close " + kind.name + " was refused");
        run.closeSpans.push_back(spanFrom(start));
    }
    clock.probe();
    for (const Pending &p : steps)
        run.steps.add(p.klass, clock.ms(p.span));
    for (const Pending &p : submits)
        run.submits.add(p.klass, clock.ms(p.span));
}

/**
 * Start a server and warm it up: every graph compiled cold at
 * kWarmSeed and stepped once. One set-up.
 */
std::unique_ptr<ServerProcess>
setUp(const Options &options, int cpu, const std::vector<Kind> &all,
      Result &result)
{
    auto server = std::make_unique<ServerProcess>(options.serverPath, cpu,
                                                  options.simdTier);
    if (okResponse(server->request("{\"op\":\"apps\"}")) == nullptr)
        throw std::runtime_error("server did not answer the apps op");
    for (const Kind &kind : all) {
        const json::ValuePtr submitted =
            okResponse(server->request(submitLine(kind, kWarmSeed)));
        if (submitted == nullptr) {
            result.fail("warm-up submit " + kind.name);
            continue;
        }
        server->firstSight(*submitted);
        const auto session =
            static_cast<std::uint64_t>(submitted->field("session")->number);
        if (okResponse(server->request(sessionOp("step", session))) ==
                nullptr ||
            okResponse(server->request(sessionOp("close", session))) ==
                nullptr)
            result.fail("warm-up session " + kind.name);
    }
    return server;
}

/**
 * Position error of the served localization values against
 * fg::optimize on the same graph: the median over the distinct
 * (graph, seed) sessions. Any session off by more than a millimetre
 * fails the run.
 */
double
servedPositionError(const MixRun &run, const std::vector<Kind> &all,
                    Result &result)
{
    std::vector<double> errors;
    for (const auto &[key, text] : run.values) {
        const Kind &kind = all[key.first];
        if (kind.algorithm != 0 || kind.app == apps::AppKind::Manipulator)
            continue; // No pose variables.
        const apps::BenchmarkApp built = apps::buildApp(kind.app, key.second);
        const auto &algorithm = built.app.algorithm(0);
        fg::GaussNewtonParams params;
        params.stepScale = algorithm.stepScale;
        const fg::OptimizeResult reference =
            fg::optimize(algorithm.graph, algorithm.values, params);

        // @p text is the response tail from "values": to its closing
        // brace; poses read {"<key>":{"phi":[..],"t":[..]},..}.
        fg::Values served;
        const json::ValuePtr doc = json::parse("{" + text);
        for (const auto &[name, value] : doc->field("values")->fields) {
            const json::Value *t = value->field("t");
            const json::Value *phi = value->field("phi");
            if (t == nullptr || phi == nullptr)
                continue;
            fg::Vector tv(t->items.size());
            for (std::size_t i = 0; i < t->items.size(); ++i)
                tv[i] = t->items[i]->number;
            fg::Vector pv(phi->items.size());
            for (std::size_t i = 0; i < phi->items.size(); ++i)
                pv[i] = phi->items[i]->number;
            served.insert(std::stoull(name), fg::Pose(pv, tv));
        }
        if (served.size() == 0)
            result.fail("served " + kind.name + " values have no poses");
        errors.push_back(positionErrorM(served, reference.values));
        if (errors.back() > 1e-3)
            result.fail("served " + kind.name + " seed " +
                        std::to_string(key.second) + " is " +
                        std::to_string(errors.back()) +
                        " m from fg::optimize");
    }
    return errors.empty() ? 1.0 : quantile(errors, 0.5);
}

} // namespace

Result
runServeMix(const Options &options, HostClock &clock)
{
    Result result;
    Ledger ledger;
    const std::vector<Kind> all = kinds();

    // --- Setup, several times; the last server is kept -------------
    // The server gets a vCPU of its own; probes cover both cores.
    const int server_cpu = clock.spareCpu();
    clock.addWorkCpu(server_cpu);
    std::unique_ptr<ServerProcess> server;
    std::vector<Span> setups;
    for (int s = 0; s < kSetups; ++s) {
        if (server != nullptr && server->finish() != 0)
            result.fail("a setup server did not exit 0");
        server.reset();
        clock.probe();
        const Clock::time_point start = Clock::now();
        server = setUp(options, server_cpu, all, result);
        setups.push_back(spanFrom(start));
        clock.probe();
    }

    const std::size_t blocks = workUnits(options, kBlocksPerSecond, 1);
    const std::vector<SessionSpec> specs =
        schedule(options.seed, 0, blocks, all);
    std::string inputs;
    for (const SessionSpec &spec : specs)
        inputs += std::to_string(spec.kind) + ":" +
                  std::to_string(spec.seed) + ",";
    std::fprintf(stderr, "inputs serve_mix %016llx\n",
                 static_cast<unsigned long long>(fnv1a(inputs)));

    // --- Timed phase -----------------------------------------------
    MixRun run;
    const Clock::time_point phase_start = Clock::now();
    runSessions(*server, all, specs, clock, result, run);
    const Clock::time_point phase_end = Clock::now();
    const double phase_s = clock.phaseSeconds(phase_start, phase_end);

    // --- Traced phase: a second schedule bracketed by metrics ops ---
    MixRun traced;
    CompileTotals totals;
    double traced_s = 0.0;
    if (options.trace) {
        const std::string before = server->request("{\"op\":\"metrics\"}");
        const Clock::time_point traced_start = Clock::now();
        runSessions(*server, all,
                    schedule(options.seed, blocks, blocks, all), clock,
                    result, traced);
        const Clock::time_point traced_end = Clock::now();
        traced_s = clock.phaseSeconds(traced_start, traced_end);
        totals = CompileTotals::fromMetricsJson(
                     server->request("{\"op\":\"metrics\"}")) -
                 CompileTotals::fromMetricsJson(before);
    }

    const double peak_rss = peakRssMb(server->pid());
    if (server->finish() != 0)
        result.fail("runtime_server did not exit 0");

    // --- Checks (values identity ran inline) ------------------------
    const double pos_err = servedPositionError(run, all, result);
    const bool steps_ok = run.steps.report("step");
    const bool submits_ok = run.submits.report("submit");
    std::fprintf(stderr, "audit serve_mix: %s\n",
                 steps_ok && submits_ok ? "ok" : "EDGE");

    std::vector<double> setup_s;
    for (const Span &s : setups)
        setup_s.push_back(clock.seconds(s));
    clock.printSpans("setup", setups);
    clock.printSpans("step", run.stepSpans);
    clock.printSpans("submit", run.submitSpans);
    std::fprintf(stderr, "host steps/s: %.2f (raw %.2f)\n",
                 run.stepSpans.size() / phase_s,
                 run.stepSpans.size() /
                     clock.phaseSeconds(phase_start, phase_end, true));

    std::vector<double> step_ms = run.steps.all();
    std::vector<double> submit_ms = run.submits.all();
    if (!options.trace) {
        result.set("setup_s", quantile(setup_s, 0.5), "s");
        result.set("frames_per_s",
                   static_cast<double>(run.stepSpans.size()) / phase_s,
                   "1/s");
        result.set("frame_p50_ms", quantile(step_ms, 0.5), "ms");
        result.set("frame_p90_ms", quantile(step_ms, 0.9), "ms");
        result.set("submit_p50_ms", quantile(submit_ms, 0.5), "ms");
        result.set("submit_p90_ms", quantile(submit_ms, 0.9), "ms");
        result.set("modeled_us_per_frame",
                   run.cycles / static_cast<double>(run.stepSpans.size()) /
                       hw::CostModel::frequencyHz * 1e6,
                   "modeled-us");
        result.set("peak_rss_mb", peak_rss, "MB");
        result.set("pos_err_m", pos_err, "m");
        return result;
    }

    // --- Per-layer ledger ------------------------------------------
    const double slowdown = clock.slowdown();
    auto mean_ms = [&clock](const std::vector<Span> &spans) {
        double total = 0.0;
        for (const Span &s : spans)
            total += clock.ms(s);
        return spans.empty() ? 0.0 : total / spans.size();
    };
    const double submits = static_cast<double>(traced.submitSpans.size());
    ledger["protocol.step_overhead_ms"] =
        mean_ms(traced.stepSpans) -
        totals.frameTotalUs / totals.frames / slowdown / 1e3;
    ledger["protocol.values_ms"] = mean_ms(traced.valuesSpans);
    ledger["protocol.close_ms"] = mean_ms(traced.closeSpans);

    // Frame and build layers cannot be timed inside the server
    // process: replay each graph (at its warm-up seed) in-process,
    // weighted by its share of steps in the mix.
    const std::unique_ptr<runtime::Engine> replay =
        makeEngine(hw::AcceleratorConfig::minimal(true));
    double total_steps = 0.0;
    for (const Kind &kind : all)
        total_steps += static_cast<double>(kind.steps);
    for (const Kind &kind : all) {
        const double weight = static_cast<double>(kind.steps) / total_steps;
        clock.probe();
        const Clock::time_point start = Clock::now();
        const apps::BenchmarkApp built = apps::buildApp(kind.app, kWarmSeed);
        const Span build = spanFrom(start);
        clock.probe();
        ledger["apps.build_ms"] += weight * clock.ms(build);
        const auto &algorithm = built.app.algorithm(kind.algorithm);
        const auto program =
            replay->program(algorithm.graph, algorithm.values, 0, kind.name);
        clock.probe();
        const Clock::time_point open_start = Clock::now();
        replay->session(algorithm.graph, algorithm.values,
                        algorithm.stepScale);
        const Span open = spanFrom(open_start);
        clock.probe();
        ledger["session.open_ms"] += weight * clock.ms(open);
        addFrameLayers(ledger,
                       traceFrames(*program, algorithm.values,
                                   algorithm.stepScale, replay->config(),
                                   kind.steps, clock),
                       weight);
    }
    addCompileLayers(ledger, totals, slowdown, replay->compileLog());
    // Submit minus the server's compile time minus the session open.
    ledger["protocol.submit_other_ms"] =
        mean_ms(traced.submitSpans) -
        totals.compileUs / submits / slowdown / 1e3 -
        ledger["session.open_ms"];
    ledger["trace.overhead_pct"] = 100.0 * (traced_s / phase_s - 1.0);
    ledger["host.slowdown"] = slowdown;
    ledger.emit(result);
    return result;
}

} // namespace perfbench
