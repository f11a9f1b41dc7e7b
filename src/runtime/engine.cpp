#include "runtime/engine.hpp"

#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "compiler/fnv.hpp"
#include "fg/factor.hpp"
#include "fg/ordering.hpp"
#include "matrix/simd.hpp"
#include "runtime/metrics.hpp"
#include "runtime/program_store.hpp"
#include "runtime/trace_sink.hpp"

namespace orianna::runtime {

namespace {

/** Re-runs of a faulty frame before it falls back (DESIGN.md §8). */
constexpr std::size_t kMaxRetries = 2;

/** Session::step's instruments, looked up once per process. */
struct StepInstruments
{
    MetricsRegistry &registry = MetricsRegistry::global();
    Counter &frames = registry.counter("frame.count");
    Histogram &totalUs = registry.histogram("frame.total_us");
    Histogram &simulateUs = registry.histogram("frame.simulate_us");
    Histogram &updateUs = registry.histogram("frame.update_us");
    Counter &faultsDetected = registry.counter("engine.faults_detected");
    Counter &frameTimeouts = registry.counter("engine.frame_timeouts");
    Counter &retries = registry.counter("engine.retries");
    Counter &fallbacks = registry.counter("engine.fallbacks");
};

/** Session::step's instruments, or null while metrics are disabled. */
const StepInstruments *
stepInstruments()
{
    if (!MetricsRegistry::enabled())
        return nullptr;
    static const StepInstruments instruments;
    return &instruments;
}

/** The graph fingerprint's fields, mixed into one comp::Fnv1a. */
struct Fnv
{
    comp::Fnv1a hash;

    void mix(std::uint64_t v) { hash.u64(v); }

    void
    mix(double v)
    {
        mix(std::bit_cast<std::uint64_t>(v));
    }

    /** Length first, then the characters. */
    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        hash.bytes(s.data(), s.size());
    }

    void
    mix(const mat::Vector &v)
    {
        mix(static_cast<std::uint64_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            mix(v[i]);
    }

    void
    mix(const mat::Matrix &m)
    {
        mix(static_cast<std::uint64_t>(m.rows()));
        mix(static_cast<std::uint64_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                mix(m(i, j));
    }
};

/** EngineOptions::precision, or ORIANNA_PRECISION, or Fp64. */
comp::Precision
resolvePrecision(const std::optional<comp::Precision> &requested)
{
    if (requested.has_value())
        return *requested;
    const char *env = std::getenv("ORIANNA_PRECISION");
    comp::Precision parsed = comp::Precision::Fp64;
    if (env != nullptr && comp::parsePrecision(env, parsed))
        return parsed;
    return comp::Precision::Fp64;
}

} // namespace

std::uint64_t
graphFingerprint(const fg::FactorGraph &graph, const fg::Values &shapes,
                 std::uint8_t algorithm_tag)
{
    Fnv h;
    h.mix(static_cast<std::uint64_t>(algorithm_tag));

    // Variable shapes: tangent dimension and kind per referenced key.
    const std::vector<fg::Key> keys = graph.allKeys();
    h.mix(static_cast<std::uint64_t>(keys.size()));
    for (fg::Key key : keys) {
        h.mix(static_cast<std::uint64_t>(key));
        h.mix(static_cast<std::uint64_t>(shapes.isPose(key) ? 1 : 0));
        h.mix(static_cast<std::uint64_t>(shapes.dof(key)));
    }

    // Factors: type, connectivity, noise, robust kernel, and the full
    // MO-DFG including constant payloads (they become LOADC contents).
    h.mix(static_cast<std::uint64_t>(graph.size()));
    for (const auto &factor : graph) {
        h.mix(factor->name());
        h.mix(static_cast<std::uint64_t>(factor->keys().size()));
        for (fg::Key key : factor->keys())
            h.mix(static_cast<std::uint64_t>(key));
        h.mix(factor->sigmas());
        h.mix(factor->robustK());
        const fg::Dfg &dfg = factor->dfg();
        h.mix(static_cast<std::uint64_t>(dfg.nodes().size()));
        for (const fg::DfgNode &node : dfg.nodes()) {
            h.mix(static_cast<std::uint64_t>(node.op));
            h.mix(static_cast<std::uint64_t>(node.inputs.size()));
            for (fg::NodeId input : node.inputs)
                h.mix(static_cast<std::uint64_t>(input));
            h.mix(static_cast<std::uint64_t>(node.key));
            h.mix(node.constMat);
            h.mix(node.constVec);
            h.mix(node.hingeEps);
            h.mix(node.camera.fx);
            h.mix(node.camera.fy);
            h.mix(node.camera.cx);
            h.mix(node.camera.cy);
            // SDF maps hash by obstacle content, not object identity:
            // the fingerprint doubles as the persistent-store key, so
            // it must be stable across processes.
            if (node.sdf != nullptr) {
                const auto obstacles = node.sdf->obstacles();
                h.mix(static_cast<std::uint64_t>(obstacles.size()));
                for (const auto &[center, radius] : obstacles) {
                    h.mix(center);
                    h.mix(radius);
                }
            } else {
                h.mix(static_cast<std::uint64_t>(0));
            }
        }
        h.mix(static_cast<std::uint64_t>(dfg.outputs().size()));
        for (fg::NodeId output : dfg.outputs())
            h.mix(static_cast<std::uint64_t>(output));
    }
    return h.hash.value();
}

Engine::Engine(hw::AcceleratorConfig config, EngineOptions options)
    : config_(std::move(config)), options_(std::move(options)),
      precision_(resolvePrecision(options_.precision)),
      pipeline_(comp::PassManager::parse(options_.passes)),
      referencePipeline_(comp::PassManager::parse("dedup,dce")),
      health_(std::make_shared<EngineHealth>())
{
    if (!options_.faultPlan.empty())
        injector_ = std::make_shared<const hw::FaultInjector>(
            options_.faultPlan);
    if (!options_.storeDir.empty())
        store_ = std::make_unique<ProgramStore>(options_.storeDir);
}

Engine::~Engine() = default;

std::shared_ptr<const comp::Program>
Engine::program(const fg::FactorGraph &graph, const fg::Values &shapes,
                std::uint8_t algorithm_tag, const std::string &name)
{
    std::uint64_t key = graphFingerprint(graph, shapes, algorithm_tag);
    if (precision_ == comp::Precision::Fp32)
        key ^= kFp32Salt;
    const comp::Precision precision = precision_;
    return compileCached(
        key, name, pipeline_, &shapes, [&, precision]() {
            comp::CompileOptions options;
            options.algorithmTag = algorithm_tag;
            options.name = name;
            options.precision = precision;
            options.ordering = fg::ordering::minDegree(graph);
            return comp::compileGraph(graph, shapes, options);
        });
}

std::shared_ptr<const comp::Program>
Engine::referenceProgram(const fg::FactorGraph &graph,
                         const fg::Values &shapes,
                         std::uint8_t algorithm_tag,
                         const std::string &name)
{
    // Always fp64, whatever the engine's serving precision: this is
    // the ground-truth rung of the degradation ladder, and keeping it
    // unsalted lets fp32 and fp64 engines share one reference
    // artifact per graph.
    const std::uint64_t key =
        graphFingerprint(graph, shapes, algorithm_tag) ^ kReferenceSalt;
    return compileCached(
        key, name + " (reference)", referencePipeline_, &shapes, [&]() {
            comp::CompileOptions options;
            options.algorithmTag = algorithm_tag;
            options.name = name + " (reference)";
            options.precision = comp::Precision::Fp64;
            options.ordering = fg::ordering::minDegree(graph);
            return comp::compileGraph(graph, shapes, options);
        });
}

std::shared_ptr<const comp::Program>
Engine::updateProgram(const comp::UpdateSpec &spec,
                      const fg::Values &probe, const std::string &name)
{
    std::uint64_t key = comp::updateFingerprint(spec);
    if (precision_ == comp::Precision::Fp32)
        key ^= kFp32Salt;
    const comp::Precision precision = precision_;
    return compileCached(
        key, name, pipeline_, &probe, [&, precision]() {
            comp::UpdateSpec compiled = spec;
            compiled.precision = precision;
            compiled.name = name;
            return comp::compileUpdate(compiled);
        });
}

std::shared_ptr<const comp::Program>
Engine::referenceUpdateProgram(const comp::UpdateSpec &spec,
                               const fg::Values &probe,
                               const std::string &name)
{
    // Like referenceProgram(): always fp64, cleanup-only pipeline,
    // shared (unsalted by precision) across engines.
    const std::uint64_t key =
        comp::updateFingerprint(spec) ^ kReferenceSalt;
    return compileCached(
        key, name + " (reference)", referencePipeline_, &probe, [&]() {
            comp::UpdateSpec compiled = spec;
            compiled.precision = comp::Precision::Fp64;
            compiled.name = name + " (reference)";
            return comp::compileUpdate(compiled);
        });
}

std::shared_ptr<const comp::Program>
Engine::compileCached(std::uint64_t key, const std::string &name,
                      comp::PassManager &pipeline,
                      const fg::Values *probe,
                      const std::function<comp::Program()> &build)
{
    std::promise<std::shared_ptr<const comp::Program>> promise;
    {
        std::unique_lock lock(mutex_);
        const auto [it, claimed] = cache_.try_emplace(key);
        if (!claimed) {
            auto future = it->second;
            lock.unlock();
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            if (MetricsRegistry::enabled()) {
                auto &metrics = MetricsRegistry::global();
                metrics.counter("engine.cache_hits").add();
                // Blocks only while the single-flight compile is
                // still running; count and time that wait.
                if (future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    metrics.counter("engine.singleflight_waits")
                        .add();
                    const StageTimer wait;
                    auto program = future.get();
                    metrics.histogram("engine.singleflight_wait_us")
                        .observe(wait.elapsedUs());
                    return program;
                }
            }
            // Blocks only while the single-flight compile is still
            // running; afterwards this is a plain read.
            return future.get();
        }
        it->second = promise.get_future().share();
    }

    // Persistent tier, consulted inside the claimed single-flight
    // slot: a stored artifact satisfies every waiter without a
    // compile. Any invalid/stale/corrupt entry is a clean miss and
    // falls through to the normal compile below.
    if (store_ != nullptr) {
        std::shared_ptr<const comp::Program> stored;
        try {
            stored = store_->load(key, pipeline.spec());
        } catch (...) {
            stored = nullptr; // The store never fails a request.
        }
        if (MetricsRegistry::enabled())
            MetricsRegistry::global()
                .counter(stored != nullptr ? "engine.store_hits"
                                           : "engine.store_misses")
                .add();
        if (stored != nullptr) {
            trackCached(stored);
            promise.set_value(stored);
            return stored;
        }
    }

    // Compile outside any lock: other fingerprints proceed in
    // parallel, requesters of this one wait on the future.
    try {
        const StageTimer compile_timer;
        auto compiled = std::make_shared<comp::Program>(build());
        const std::uint64_t codegen_us = compile_timer.elapsedUs();

        // The codegen output runs through the engine's pass pipeline;
        // the caller's probe values double as the verification input
        // (they bind every variable the program loads).
        comp::PassManager::RunOptions pass_options;
        pass_options.probe = probe;
        pass_options.verify = options_.verifyPasses ||
                              comp::PassManager::verifyFromEnv();
        const std::vector<comp::PassStats> pass_stats =
            pipeline.run(*compiled, pass_options);

        compiles_.fetch_add(1, std::memory_order_relaxed);
        if (compile_timer.armed()) {
            auto &metrics = MetricsRegistry::global();
            metrics.counter("engine.compiles").add();
            metrics.histogram("engine.compile_us")
                .observe(compile_timer.elapsedUs());
            metrics.histogram("engine.codegen_us").observe(codegen_us);
            for (const comp::PassStats &stat : pass_stats) {
                metrics.counter("pass." + stat.pass + ".runs").add();
                metrics.counter("pass." + stat.pass + ".rewrites")
                    .add(stat.rewrites);
                metrics.counter("pass." + stat.pass + ".removed")
                    .add(stat.before > stat.after
                             ? stat.before - stat.after
                             : 0);
                metrics.histogram("pass." + stat.pass + ".us")
                    .observe(stat.wallUs);
            }
        }
        {
            std::lock_guard lock(mutex_);
            log_.push_back({name, key, compiled->instructions.size(),
                            codegen_us, pass_stats});
        }
        // Publish the fresh compile to the persistent tier so a
        // restarted process (or a sibling on the same directory)
        // skips this compile. Failures are counted, never raised.
        if (store_ != nullptr &&
            store_->store(key, pipeline.spec(), *compiled) &&
            MetricsRegistry::enabled())
            MetricsRegistry::global().counter("engine.store_writes").add();
        trackCached(compiled);
        promise.set_value(compiled);
        return compiled;
    } catch (...) {
        // Propagate to every waiter, then drop the entry so a later
        // request retries instead of caching the failure forever.
        promise.set_exception(std::current_exception());
        std::lock_guard lock(mutex_);
        cache_.erase(key);
        throw;
    }
}

void
Engine::trackCached(const std::shared_ptr<const comp::Program> &program)
{
    {
        std::lock_guard lock(mutex_);
        plans_.try_emplace(program);
    }
    const std::size_t footprint = program->footprintBytes();
    const std::size_t bytes =
        cachedBytes_.fetch_add(footprint, std::memory_order_relaxed) +
        footprint;
    if (MetricsRegistry::enabled())
        MetricsRegistry::global()
            .gauge("engine.cached_bytes")
            .set(static_cast<std::int64_t>(bytes));
}

std::shared_ptr<const FramePlan>
Engine::plan(const std::shared_ptr<const comp::Program> &program)
{
    // A zero-unit config has no schedule; its frames fail in step().
    for (unsigned count : config_.units)
        if (count == 0)
            return nullptr;
    std::promise<std::shared_ptr<const FramePlan>> promise;
    {
        std::unique_lock lock(mutex_);
        const auto it = plans_.find(program);
        if (it == plans_.end())
            return nullptr;
        if (it->second.valid()) {
            auto future = it->second;
            lock.unlock();
            return future.get();
        }
        it->second = promise.get_future().share();
    }
    try {
        auto built = ExecutionContext::schedule({program.get()}, config_);
        plansBuilt_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry::enabled())
            MetricsRegistry::global().counter("engine.plans_built").add();
        promise.set_value(built);
        return built;
    } catch (...) {
        // Like a failed compile: every waiter gets the error, and the
        // slot is reset so a later request builds again.
        promise.set_exception(std::current_exception());
        std::lock_guard lock(mutex_);
        plans_[program] = {};
        throw;
    }
}

Engine::Stats
Engine::stats() const
{
    Stats s;
    s.compiles = compiles_.load(std::memory_order_relaxed);
    s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    if (store_ != nullptr) {
        const ProgramStore::Stats store = store_->stats();
        s.storeHits = store.hits;
        s.storeMisses = store.misses;
        s.storeWrites = store.writes;
    }
    s.plansBuilt = plansBuilt_.load(std::memory_order_relaxed);
    s.cachedBytes = cachedBytes_.load(std::memory_order_relaxed);
    return s;
}

std::size_t
Engine::cachedPrograms() const
{
    std::lock_guard lock(mutex_);
    return cache_.size();
}

std::vector<Engine::CompileRecord>
Engine::compileLog() const
{
    std::lock_guard lock(mutex_);
    return log_;
}

std::string
Engine::CompileRecord::passSummary() const
{
    // One diagnostics line per compile, e.g.
    //   "mobile_robot: 412 instr [dedup -37, dce -12, cse -58,
    //    fuse -41] 183us verified"
    std::string out = name + ": " + std::to_string(instructions) +
                      " instr [";
    std::uint64_t total_us = 0;
    bool all_verified = !passes.empty();
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const comp::PassStats &stat = passes[i];
        if (i > 0)
            out += ", ";
        const std::size_t removed =
            stat.before > stat.after ? stat.before - stat.after : 0;
        out += stat.pass + " -" + std::to_string(removed);
        total_us += stat.wallUs;
        all_verified = all_verified && stat.verified;
    }
    out += "] " + std::to_string(total_us) + "us";
    if (all_verified)
        out += " verified";
    return out;
}

std::string
Engine::metricsJson()
{
    return MetricsRegistry::global().toJson();
}

std::string
Engine::healthJson() const
{
    const auto load = [](const std::atomic<std::uint64_t> &c) {
        return c.load(std::memory_order_relaxed);
    };
    const std::uint64_t retries = load(health_->retries);
    const std::uint64_t fallbacks = load(health_->fallbacks);
    const std::uint64_t failures = load(health_->failures);
    const char *status = failures > 0 ? "failing"
                         : (retries > 0 || fallbacks > 0)
                             ? "degraded"
                             : "ok";
    const Stats cache = stats();

    std::string out = "{\"status\":\"";
    out += status;
    out += "\",\"simd\":\"";
    out += mat::kernels::simdTierName(mat::kernels::activeTier());
    out += "\",\"precision\":\"";
    out += comp::precisionName(precision_);
    out += "\",\"fault_injection\":";
    out += injector_ != nullptr ? "true" : "false";
    out += ",\"store\":";
    out += store_ != nullptr && store_->available() ? "true" : "false";
    const auto field = [&out](const char *key, std::uint64_t value) {
        out += ",\"";
        out += key;
        out += "\":";
        out += std::to_string(value);
    };
    field("frames_ok", load(health_->framesOk));
    field("faults_detected", load(health_->faultsDetected));
    field("frame_timeouts", load(health_->frameTimeouts));
    field("retries", retries);
    field("fallbacks", fallbacks);
    field("failures", failures);
    field("compiles", cache.compiles);
    field("cache_hits", cache.cacheHits);
    field("store_hits", cache.storeHits);
    field("store_misses", cache.storeMisses);
    field("store_writes", cache.storeWrites);
    out += "}";
    return out;
}

bool
Engine::provisionsFallback() const
{
    // The fallback rung costs a second compile per program, so it is
    // provisioned only when a frame can fail over at all: injection,
    // a frame deadline, a divergence limit, or a reduced-precision
    // datapath (whose mantissa can break a frame all by itself).
    const DegradationPolicy &policy = options_.degradation;
    const bool can_fault = injector_ != nullptr ||
                           policy.frameTimeoutCycles > 0 ||
                           policy.deltaAbsLimit > 0.0 ||
                           precision_ == comp::Precision::Fp32;
    return policy.fallback && can_fault;
}

Session
Engine::session(const fg::FactorGraph &graph, fg::Values initial,
                double step_scale, std::uint8_t algorithm_tag,
                const std::string &name)
{
    const StageTimer open;
    auto compiled = program(graph, initial, algorithm_tag, name);
    auto fallback =
        provisionsFallback()
            ? referenceProgram(graph, initial, algorithm_tag, name)
            : nullptr;
    Session opened = openSession(std::move(compiled), std::move(initial),
                                 std::move(fallback), step_scale);
    if (open.armed())
        MetricsRegistry::global()
            .histogram("engine.session_open_us")
            .observe(open.elapsedUs());
    return opened;
}

Session
Engine::openSession(std::shared_ptr<const comp::Program> program,
                    fg::Values initial,
                    std::shared_ptr<const comp::Program> fallback,
                    double step_scale, bool retract)
{
    SessionOptions opts;
    opts.stepScale = step_scale;
    opts.policy = options_.degradation;
    opts.fallback = std::move(fallback);
    opts.injector = injector_;
    opts.health = health_;
    opts.retract = retract;
    opts.plan = plan(program);
    if (opts.fallback != nullptr)
        opts.fallbackPlan = plan(opts.fallback);
    if (MetricsRegistry::enabled())
        MetricsRegistry::global()
            .counter(std::string("engine.sessions.") +
                     comp::precisionName(precision_))
            .add();
    return Session(std::move(program), std::move(initial), config_,
                   std::move(opts));
}

/** See engine.hpp: reports the enclosing session span on death. */
struct SessionTraceHandle
{
    std::uint64_t track;
    std::uint64_t openedUs;

    ~SessionTraceHandle()
    {
        if (TraceCollector::enabled())
            TraceCollector::global().addSpan(
                track, "session", "session", openedUs,
                MetricsRegistry::nowUs() - openedUs);
    }
};

namespace {

std::shared_ptr<SessionTraceHandle>
openSessionTrack()
{
    if (!TraceCollector::enabled())
        return nullptr;
    static std::atomic<std::uint64_t> next{0};
    const std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    auto handle = std::make_shared<SessionTraceHandle>();
    handle->track = TraceCollector::global().openTrack(
        "session " + std::to_string(id));
    handle->openedUs = MetricsRegistry::nowUs();
    return handle;
}

} // namespace

Session::Session(std::shared_ptr<const comp::Program> program,
                 fg::Values initial, hw::AcceleratorConfig config,
                 SessionOptions options)
    : program_(std::move(program)), values_(std::move(initial)),
      config_(std::move(config)), stepScale_(options.stepScale),
      retract_(options.retract), policy_(options.policy),
      fallbackProgram_(std::move(options.fallback)),
      injector_(std::move(options.injector)),
      health_(std::move(options.health)),
      context_(std::vector<const comp::Program *>{program_.get()},
               std::move(options.plan)),
      trace_(openSessionTrack())
{
    if (fallbackProgram_ != nullptr)
        fallbackContext_ = std::make_unique<ExecutionContext>(
            std::vector<const comp::Program *>{fallbackProgram_.get()},
            std::move(options.fallbackPlan));
}

Session::Symptom
Session::diagnose(const hw::SimResult &frame,
                  bool check_deadline) const
{
    if (check_deadline && policy_.frameTimeoutCycles > 0 &&
        frame.cycles > policy_.frameTimeoutCycles)
        return Symptom::Deadline;
    // The divergence limit shares the deadline's primary-rung gating:
    // the fp64 fallback is trusted ground truth and only the
    // non-finite scan applies to it.
    const bool check_divergence =
        check_deadline && policy_.deltaAbsLimit > 0.0;
    for (const auto &deltas : frame.deltas)
        for (const auto &[key, delta] : deltas)
            for (std::size_t i = 0; i < delta.size(); ++i) {
                if (!std::isfinite(delta[i]))
                    return Symptom::NonFinite;
                if (check_divergence &&
                    std::abs(delta[i]) > policy_.deltaAbsLimit)
                    return Symptom::Diverging;
            }
    return Symptom::None;
}

const char *
Session::describe(Symptom symptom)
{
    switch (symptom) {
      case Symptom::Deadline:
        return "frame deadline exceeded";
      case Symptom::NonFinite:
        return "non-finite delta";
      case Symptom::Diverging:
        return "diverging delta";
      case Symptom::None:
        break;
    }
    return "fault";
}

hw::SimResult
Session::step()
{
    const bool tracing =
        trace_ != nullptr && TraceCollector::enabled();
    const StepInstruments *metrics = stepInstruments();
    const bool timed = tracing || metrics != nullptr;

    // Rebind each step so the session stays movable: values_ lives
    // inside this object and its address follows the session.
    context_.bindValues(0, &values_);

    const std::uint64_t frame_start =
        timed ? MetricsRegistry::nowUs() : 0;
    // The unified trace needs the per-unit schedule even when the
    // caller did not ask for one; restore the flag afterwards so the
    // returned SimResult honors the caller's configuration.
    const bool caller_trace = config_.recordTrace;
    config_.recordTrace = caller_trace || tracing;

    // Acquire one healthy frame, climbing the degradation ladder:
    // run (re-rolling injected fault outcomes per retry), then the
    // reference fallback with injection disarmed. Nothing below this
    // block retracts, so a poisoned update never reaches values_.
    hw::SimResult frame;
    Symptom symptom = Symptom::None;
    bool healthy = false;
    bool degraded = false;
    // Injection counters of discarded attempts, folded into the
    // delivered frame so totals() reflect all injection activity.
    std::uint64_t faults_discarded = 0;
    std::array<std::uint64_t, 3> faults_discarded_kind{};
    const auto note_fault = [&](Symptom why,
                                std::uint64_t attempt_start) {
        ++faultsDetected_;
        const bool timeout = why == Symptom::Deadline;
        if (timeout)
            ++timeouts_;
        if (health_ != nullptr) {
            health_->faultsDetected.fetch_add(
                1, std::memory_order_relaxed);
            if (timeout)
                health_->frameTimeouts.fetch_add(
                    1, std::memory_order_relaxed);
        }
        if (metrics != nullptr) {
            metrics->faultsDetected.add();
            if (timeout)
                metrics->frameTimeouts.add();
        }
        if (tracing)
            TraceCollector::global().addSpan(
                trace_->track, std::string("fault: ") + describe(why),
                "fault", attempt_start,
                MetricsRegistry::nowUs() - attempt_start);
    };
    // Until a frame is delivered, leaving step() — through the
    // exhausted ladder below or an exception from a frame's numerics
    // — counts a failure and restores the caller's trace flag.
    struct FailureGuard
    {
        Session *session;
        bool callerTrace;

        ~FailureGuard()
        {
            if (session == nullptr)
                return;
            session->config_.recordTrace = callerTrace;
            if (session->health_ != nullptr)
                session->health_->failures.fetch_add(
                    1, std::memory_order_relaxed);
        }
    } failure{this, caller_trace};
    // Without an injector a rerun is bit-identical, so retrying is
    // pointless; go straight to the fallback rung.
    const std::size_t attempts =
        1 + (injector_ != nullptr ? kMaxRetries : 0);
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            ++retries_;
            if (health_ != nullptr)
                health_->retries.fetch_add(1,
                                           std::memory_order_relaxed);
            if (metrics != nullptr)
                metrics->retries.add();
        }
        context_.armFaults(injector_.get(), frames_, attempt);
        const std::uint64_t attempt_start =
            timed ? MetricsRegistry::nowUs() : frame_start;
        frame = context_.run(config_);
        symptom = diagnose(frame, /*check_deadline=*/true);
        if (symptom == Symptom::None) {
            healthy = true;
            break;
        }
        faults_discarded += frame.faultsInjected;
        for (std::size_t k = 0; k < faults_discarded_kind.size(); ++k)
            faults_discarded_kind[k] += frame.faultsByKind[k];
        note_fault(symptom, attempt_start);
    }
    if (!healthy && fallbackContext_ != nullptr) {
        ++fallbacks_;
        if (health_ != nullptr)
            health_->fallbacks.fetch_add(1,
                                         std::memory_order_relaxed);
        if (metrics != nullptr)
            metrics->fallbacks.add();
        fallbackContext_->bindValues(0, &values_);
        const std::uint64_t fb_start =
            timed ? MetricsRegistry::nowUs() : frame_start;
        frame = fallbackContext_->run(config_);
        // The deadline is waived here: degraded mode trades latency
        // for a correct update.
        symptom = diagnose(frame, /*check_deadline=*/false);
        healthy = symptom == Symptom::None;
        degraded = healthy;
        if (tracing)
            TraceCollector::global().addSpan(
                trace_->track, "fallback", "fault", fb_start,
                MetricsRegistry::nowUs() - fb_start);
    }
    if (!healthy)
        throw std::runtime_error(
            "Session: frame " + std::to_string(frames_) +
            " failed (" + describe(symptom) +
            ") after " + std::to_string(attempts - 1) + " retries" +
            (fallbackContext_ != nullptr ? " and reference fallback"
                                         : ""));
    failure.session = nullptr;
    config_.recordTrace = caller_trace;
    lastFrameDegraded_ = degraded;
    frame.faultsInjected += faults_discarded;
    for (std::size_t k = 0; k < faults_discarded_kind.size(); ++k)
        frame.faultsByKind[k] += faults_discarded_kind[k];
    if (health_ != nullptr)
        health_->framesOk.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t simulate_end =
        timed ? MetricsRegistry::nowUs() : 0;

    if (retract_) {
        if (stepScale_ != 1.0)
            for (auto &[key, delta] : frame.deltas[0])
                delta = delta * stepScale_;
        values_.retractAll(frame.deltas[0]);
    }
    const std::uint64_t update_end =
        timed ? MetricsRegistry::nowUs() : 0;

    // One set of integer durations feeds both the histograms and the
    // trace spans, so span sums and histogram sums agree exactly.
    const std::uint64_t simulate_us = simulate_end - frame_start;
    const std::uint64_t update_us = update_end - simulate_end;
    const std::uint64_t frame_us = update_end - frame_start;
    if (metrics != nullptr) {
        metrics->frames.add();
        metrics->totalUs.observe(frame_us);
        metrics->simulateUs.observe(simulate_us);
        metrics->updateUs.observe(update_us);
    }
    if (tracing) {
        auto &collector = TraceCollector::global();
        const std::uint64_t track = trace_->track;
        collector.addSpan(track,
                          "frame " + std::to_string(frames_),
                          "frame", frame_start, frame_us);
        collector.addSpan(track, "simulate", "stage", frame_start,
                          simulate_us);
        collector.addSpan(track, "update", "stage", simulate_end,
                          update_us);
        collector.addHwFrame(track, frame_start, frame.trace,
                             config_.units);
        if (!caller_trace)
            frame.trace.clear();
    }
    totals_.accumulate(frame);
    ++frames_;
    return frame;
}

const fg::Values &
Session::iterate(std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step();
    return values_;
}

} // namespace orianna::runtime
