#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/codegen.hpp"
#include "compiler/incremental_codegen.hpp"
#include "compiler/pass_manager.hpp"
#include "runtime/execution_context.hpp"

namespace orianna::runtime {

/**
 * Fingerprint of a factor graph plus the shapes of its variables:
 * everything that determines the compiled instruction stream (factor
 * types, connectivity, dimensions, noise models, measurement
 * constants baked into LOADC payloads). Two graphs with equal
 * fingerprints compile to identical programs, so the Engine shares
 * one compiled Program between them.
 *
 * Note the fingerprint must include measurement constants for
 * correctness today: the compiler bakes them into the program. The
 * seam for sharing programs across clients with *different*
 * measurements (streaming constants through LOADV like variables) is
 * a planned compiler extension; the Engine API does not change when
 * that lands — cache hit rates just go up.
 */
std::uint64_t graphFingerprint(const fg::FactorGraph &graph,
                               const fg::Values &shapes,
                               std::uint8_t algorithm_tag = 0);

class Session;

/**
 * Unified-trace bookkeeping of one session (allocated only when the
 * TraceCollector is enabled at session construction). Held by
 * shared_ptr so sessions stay movable; the last owner reports the
 * enclosing "session" span when it dies.
 */
struct SessionTraceHandle;

/**
 * What a Session does when a frame misbehaves — non-finite deltas
 * (from an injected corruption or genuinely broken numerics) or a
 * blown cycle deadline. The ladder is: retry the frame twice (each
 * retry re-rolls the fault schedule, so a transient upset clears),
 * then replay it on the cleanup-only reference program with injection
 * disarmed, then throw. Retries are only attempted when a fault
 * injector is armed; without one a rerun is bit-identical to the
 * failed attempt and is skipped.
 */
struct DegradationPolicy
{
    bool fallback = true; //!< Allow the reference-program rung.

    /**
     * Declare a frame faulty when it simulates to more than this many
     * cycles (0 = no deadline). The deadline is waived on the
     * fallback rung: degraded mode trades latency for a correct
     * update.
     */
    std::uint64_t frameTimeoutCycles = 0;

    /**
     * Declare a frame faulty when any delta element's magnitude
     * exceeds this limit (0 = no check). This is the guard rail of
     * the fp32 rung (DESIGN.md §12): reduced-mantissa arithmetic that
     * diverges — an ill-conditioned solve blowing up on its way to
     * inf — is caught before the update lands and the frame is
     * replayed on the fp64 reference program. Checked only on the
     * primary rung; the fp64 fallback is trusted ground truth.
     */
    double deltaAbsLimit = 0.0;
};

/**
 * Degradation counters shared by an Engine and every Session it
 * opens. Atomic because sessions are routinely driven from ServerPool
 * workers; snapshot through Engine::healthJson().
 */
struct EngineHealth
{
    std::atomic<std::uint64_t> framesOk{0};
    std::atomic<std::uint64_t> faultsDetected{0};
    std::atomic<std::uint64_t> frameTimeouts{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> fallbacks{0};
    std::atomic<std::uint64_t> failures{0}; //!< Frames that threw.
};

/** Compile-side knobs of an Engine (the pass pipeline). */
struct EngineOptions
{
    /**
     * Pass pipeline spec, in PassManager::parse() syntax: "default"
     * (dedup,dce,cse,fuse), "none", or an explicit comma-separated
     * list of pass names.
     */
    std::string passes = "default";

    /**
     * Run the per-pass equivalence check on every compile, using the
     * session's initial values as the probe input. Also switched on
     * process-wide by ORIANNA_VERIFY_PASSES=1.
     */
    bool verifyPasses = false;

    /**
     * Hardware fault-injection plan (hw::FaultPlan::parse() syntax).
     * When non-empty the engine arms one deterministic FaultInjector
     * shared by every session it opens.
     */
    hw::FaultPlan faultPlan;

    /** Retry/fallback behavior of the sessions this engine opens. */
    DegradationPolicy degradation;

    /**
     * Directory of the persistent program store (DESIGN.md §11).
     * Empty (the default) disables the on-disk tier entirely. When
     * set, the engine consults the store inside the single-flight
     * slot before compiling and publishes every fresh compile back —
     * a warm restart against the same directory serves previously
     * seen graphs with zero compiles. An unusable directory degrades
     * to a permanently cold store, never an error.
     */
    std::string storeDir;

    /**
     * Datapath precision of the programs this engine compiles
     * (DESIGN.md §12). Unset resolves from the ORIANNA_PRECISION
     * environment variable ("fp64"/"fp32"), defaulting to Fp64; set
     * it explicitly to pin a precision regardless of environment.
     * The precision salts both the in-memory cache key and the
     * persistent-store key, so both precisions of one graph coexist
     * without ever serving each other's artifacts. Fp32 engines
     * count as a fault source (provisionsFallback()): their sessions
     * get the fp64 reference program as the degradation-ladder
     * fallback.
     */
    std::optional<comp::Precision> precision;
};

class ProgramStore;

/**
 * The long-lived serving half of the runtime: owns an accelerator
 * configuration and a cache of compiled Programs keyed by graph
 * fingerprint. Sessions opened against the engine share cached
 * programs and each program's frame plan (its schedule, built once);
 * each session holds only its private mutable Values and a reusable
 * ExecutionContext, which is the shape needed to serve many
 * concurrent robot streams from one compiled artifact set.
 *
 * Thread safety: every public method may be called from any number of
 * threads concurrently (the ServerPool drives one Engine from all its
 * workers). One mutex guards the program cache, the plan slots and
 * the compile log; it is held only for map lookups and inserts, never
 * across a store load, a compile or a plan build. Compilation is
 * single-flight: N clients requesting the same fingerprint at once
 * trigger exactly one compile, with the others blocking on the shared
 * future until the program lands. Plans are single-flight the same
 * way, per program. Stats are atomic counters.
 */
class Engine
{
  public:
    explicit Engine(hw::AcceleratorConfig config)
        : Engine(std::move(config), EngineOptions())
    {
    }

    /** @throws std::invalid_argument on an unknown pass name. */
    Engine(hw::AcceleratorConfig config, EngineOptions options);

    ~Engine();

    const hw::AcceleratorConfig &config() const { return config_; }

    /** Resolved datapath precision this engine compiles for. */
    comp::Precision precision() const { return precision_; }

    /**
     * Cache-key salt for fp32 programs. The instruction stream is
     * precision-independent, but the Program's precision tag is not,
     * and the key doubles as the persistent-store key — without the
     * salt an fp32 engine would happily serve a stored fp64 artifact
     * (and vice versa) on a warm restart. Public so a caller that
     * inspects a store directory can name an fp32 entry:
     * entryPath(graphFingerprint(graph, shapes) ^ kFp32Salt).
     */
    static constexpr std::uint64_t kFp32Salt = 0x0f32ca5700000001ull;

    /**
     * Compile @p graph (minimum-degree ordering, then the engine's
     * pass pipeline, EngineOptions::passes), or return the cached
     * program when a graph with the same fingerprint was compiled
     * before or the store holds it. @p name labels the compiled
     * program and its compile-log entry; on a cache hit the name of
     * the first compile wins.
     */
    std::shared_ptr<const comp::Program>
    program(const fg::FactorGraph &graph, const fg::Values &shapes,
            std::uint8_t algorithm_tag = 0,
            const std::string &name = "session");

    /**
     * Compile (or fetch) the cleanup-only reference program for
     * @p graph: the same "dedup,dce" pipeline core::Application keeps
     * as its golden path, independent of the engine's optimizing
     * pipeline. This is the fallback rung of the degradation ladder;
     * it shares the program cache under a salted fingerprint so
     * optimized and reference artifacts coexist.
     */
    std::shared_ptr<const comp::Program>
    referenceProgram(const fg::FactorGraph &graph,
                     const fg::Values &shapes,
                     std::uint8_t algorithm_tag = 0,
                     const std::string &name = "session");

    /**
     * Compile (or fetch) the incremental update program for @p spec
     * (DESIGN.md §13): the suffix re-elimination + back-substitution
     * of one affected-clique shape, with every numeric payload
     * streamed per frame. Keyed by updateFingerprint(spec) with the
     * same precision salting as program(), so the in-memory cache
     * and the ProgramStore both amortize update compiles across
     * frames and across restarts. @p probe must bind
     * every input key of comp::updateLayout(spec) (any frame's
     * streamed values do); it seeds the per-pass equivalence
     * verifier when that is armed.
     */
    std::shared_ptr<const comp::Program>
    updateProgram(const comp::UpdateSpec &spec,
                  const fg::Values &probe,
                  const std::string &name = "update");

    /**
     * The cleanup-only fp64 twin of updateProgram(): the batch
     * reference rung relinearize-all frames run on, and the
     * degradation-ladder fallback of incremental sessions. Shares
     * the cache under the same reference salt as referenceProgram().
     */
    std::shared_ptr<const comp::Program>
    referenceUpdateProgram(const comp::UpdateSpec &spec,
                           const fg::Values &probe,
                           const std::string &name = "update");

    /**
     * Open a session around an already-compiled program (an update
     * program, or anything else obtained from this engine), wiring
     * in the engine's degradation policy, fault injector, health
     * counters and the shared frame plans. @p fallback becomes the
     * ladder's reference rung as given: pass one only when
     * provisionsFallback() holds, and compile it only then.
     * @p retract=false opens a compute-only session: step() leaves
     * the session values untouched and the caller reads the frame's
     * delta bindings — the mode incremental update programs need,
     * whose synthetic keys are not retractable variables.
     */
    Session openSession(std::shared_ptr<const comp::Program> program,
                        fg::Values initial,
                        std::shared_ptr<const comp::Program> fallback =
                            nullptr,
                        double step_scale = 1.0, bool retract = true);

    /**
     * The shared frame plan of @p program under this engine's config:
     * scheduled once, single-flight, on the first request, then handed
     * to every session and fallback context opened on the program.
     * Only programs this engine compiled or loaded have one; others
     * (and configs with a zero-unit kind) get nullptr, and their
     * contexts schedule their own first frame.
     */
    std::shared_ptr<const FramePlan>
    plan(const std::shared_ptr<const comp::Program> &program);

    /**
     * Whether the sessions this engine opens get a fallback reference
     * program: the policy allows the rung (DegradationPolicy::fallback)
     * and some fault source exists — an armed injector, a frame
     * deadline, a divergence limit, or the fp32 datapath. Without a
     * fault source a frame cannot fail over, so the second compile is
     * skipped. session() and AcceleratedSmoother both ask here.
     */
    bool provisionsFallback() const;

    /** Live degradation counters shared with this engine's sessions. */
    const EngineHealth &health() const { return *health_; }

    /**
     * JSON snapshot of the degradation counters plus cache stats:
     * {"status": "ok"|"degraded"|"failing", "precision": "fp64"|"fp32",
     *  "fault_injection": bool,
     *  "store": bool (persistent tier armed and usable),
     *  "frames_ok", "faults_detected", "frame_timeouts", "retries",
     *  "fallbacks", "failures", "compiles", "cache_hits",
     *  "store_hits", "store_misses", "store_writes"}.
     * "degraded" means at least one retry or fallback happened;
     * "failing" means at least one frame exhausted the ladder.
     */
    std::string healthJson() const;

    /**
     * Open a session: compile (or fetch) the program for @p graph —
     * plus its reference program when provisionsFallback() holds —
     * and openSession() it with the client's private @p initial
     * values.
     */
    Session session(const fg::FactorGraph &graph, fg::Values initial,
                    double step_scale = 1.0,
                    std::uint8_t algorithm_tag = 0,
                    const std::string &name = "session");

    /** Snapshot of the cache counters (values are atomic loads). */
    struct Stats
    {
        std::size_t compiles = 0;  //!< Cache misses (programs built).
        std::size_t cacheHits = 0; //!< Sessions served from cache.
        // Persistent-store tier: ProgramStore::stats(), all zero when
        // storeDir is unset.
        std::size_t storeHits = 0;   //!< Compiles avoided via disk.
        std::size_t storeMisses = 0; //!< Store consults that compiled.
        std::size_t storeWrites = 0; //!< Artifacts published to disk.
        std::size_t plansBuilt = 0;  //!< Frame plans scheduled.
        /**
         * Program::footprintBytes() summed over every cached program
         * (compiled or loaded from the store); published as the
         * engine.cached_bytes gauge while metrics are enabled.
         */
        std::size_t cachedBytes = 0;
    };

    Stats stats() const;

    /** The persistent store tier, or nullptr when disabled. */
    const ProgramStore *store() const { return store_.get(); }

    std::size_t cachedPrograms() const;

    /**
     * JSON snapshot of the serving metrics (the process-wide
     * MetricsRegistry): cache and single-flight counters, per-stage
     * frame latency histograms with p50/p99, pool task counts,
     * per-unit utilization. Always valid JSON — before any session
     * ran it reports zeroed instruments and null derived rates.
     */
    static std::string metricsJson();

    /** One cache miss, in compile order: the diagnostics trail. */
    struct CompileRecord
    {
        std::string name;          //!< Caller-supplied program name.
        std::uint64_t fingerprint; //!< Cache key that missed.
        std::size_t instructions;  //!< Post-pipeline program size.
        /**
         * Wall time of codegen, before the pass pipeline (0 when
         * metrics are disabled, like the engine.codegen_us histogram).
         */
        std::uint64_t codegenUs = 0;
        /** What each pipeline pass did on this compile, in order. */
        std::vector<comp::PassStats> passes;

        /** One-line human-readable summary of the pass pipeline. */
        std::string passSummary() const;
    };

    /** Copy of the compile log (every cache miss since construction). */
    std::vector<CompileRecord> compileLog() const;

  private:
    /**
     * Cache-key salt for reference (cleanup-only) programs, so both
     * artifacts of one graph live in the shared program cache.
     */
    static constexpr std::uint64_t kReferenceSalt =
        0xfa11bacc00000001ull;

    /**
     * Account a freshly cached program: give it its (empty) plan slot
     * and add its footprint to cachedBytes.
     */
    void trackCached(const std::shared_ptr<const comp::Program> &program);

    /**
     * Shared compile-or-fetch path of every program entry point:
     * single-flight cache, persistent-store consult, then
     * @p build (which produces the raw codegen output the pipeline
     * runs over). @p probe seeds the per-pass verifier; it must bind
     * every LOADV key of the built program.
     */
    std::shared_ptr<const comp::Program>
    compileCached(std::uint64_t key, const std::string &name,
                  comp::PassManager &pipeline, const fg::Values *probe,
                  const std::function<comp::Program()> &build);

    hw::AcceleratorConfig config_;
    EngineOptions options_;
    comp::Precision precision_ = comp::Precision::Fp64;
    comp::PassManager pipeline_;
    comp::PassManager referencePipeline_;
    std::shared_ptr<const hw::FaultInjector> injector_;
    std::shared_ptr<EngineHealth> health_;
    std::unique_ptr<ProgramStore> store_;
    std::atomic<std::size_t> compiles_{0};
    std::atomic<std::size_t> cacheHits_{0};
    std::atomic<std::size_t> plansBuilt_{0};
    std::atomic<std::size_t> cachedBytes_{0};

    /** Guards cache_, plans_ and log_. */
    mutable std::mutex mutex_;
    /**
     * Entries hold a future so racing requesters of one fingerprint
     * share a single in-flight compile.
     */
    std::map<std::uint64_t,
             std::shared_future<std::shared_ptr<const comp::Program>>>
        cache_;
    /**
     * Plan slots keyed by program ownership (the shared_ptr control
     * block), never by address: the cache keeps every published
     * program alive, so a key cannot be reused while its slot exists.
     * An invalid future marks a plan nobody has started to build.
     */
    std::map<std::weak_ptr<const comp::Program>,
             std::shared_future<std::shared_ptr<const FramePlan>>,
             std::owner_less<>>
        plans_;
    std::vector<CompileRecord> log_;
};

/** Everything optional a Session is opened with. */
struct SessionOptions
{
    double stepScale = 1.0;
    DegradationPolicy policy;
    /** Cleanup-only program for the fallback rung (may be null). */
    std::shared_ptr<const comp::Program> fallback;
    /** Armed fault injector (null = no injection). */
    std::shared_ptr<const hw::FaultInjector> injector;
    /** Engine-wide health counters (null = session-local only). */
    std::shared_ptr<EngineHealth> health;
    /** Shared plans of the program and the fallback (null = none). */
    std::shared_ptr<const FramePlan> plan;
    std::shared_ptr<const FramePlan> fallbackPlan;
    /**
     * Retract each frame's deltas into the session values (the
     * Gauss-Newton serving mode). False opens a compute-only
     * session for programs whose delta bindings are raw results
     * rather than variable updates (incremental update programs);
     * step scaling is skipped too, the caller owns interpretation.
     */
    bool retract = true;
};

/**
 * One client's optimization stream: a shared compiled program plus
 * private mutable Values, executed frame after frame through one
 * reusable ExecutionContext. Clean frames replay the program's shared
 * FramePlan (SessionOptions::plan) and run only the numerics.
 *
 * Fault tolerance: every frame's deltas are checked for non-finite
 * entries (and the frame's cycle count against the policy deadline);
 * a faulty frame climbs the DegradationPolicy ladder — retry with
 * re-rolled fault outcomes, then replay on the fallback reference
 * program with injection disarmed — before anything is retracted
 * into the session values, so a poisoned update never lands.
 */
class Session
{
  public:
    /**
     * A caller that owns its program by value passes an aliasing
     * shared_ptr (no owner) and keeps the program alive for the
     * session's lifetime.
     */
    Session(std::shared_ptr<const comp::Program> program,
            fg::Values initial, hw::AcceleratorConfig config,
            SessionOptions options = {});

    const comp::Program &program() const { return *program_; }

    const fg::Values &values() const { return values_; }
    fg::Values &values() { return values_; }

    /**
     * One Gauss-Newton step: run a frame on the accelerator, scale
     * the deltas by the session's step scale and retract in place.
     * Returns that frame's simulation outcome.
     */
    hw::SimResult step();

    /** Run @p n steps; returns the values after the last one. */
    const fg::Values &iterate(std::size_t n);

    /** Stats accumulated over every frame of this session. */
    const hw::SimResult &totals() const { return totals_; }

    std::size_t frames() const { return frames_; }

    /** True when a fallback reference program is provisioned. */
    bool hasFallback() const { return fallbackContext_ != nullptr; }

    // Degradation counters of this session alone (the engine-wide
    // aggregate lives in EngineHealth).
    std::uint64_t retries() const { return retries_; }
    std::uint64_t fallbacks() const { return fallbacks_; }
    std::uint64_t faultsDetected() const { return faultsDetected_; }
    std::uint64_t frameTimeouts() const { return timeouts_; }

    /** True when the last step() completed on the fallback rung. */
    bool lastFrameDegraded() const { return lastFrameDegraded_; }

  private:
    /** What diagnose() found wrong with a frame. */
    enum class Symptom : std::uint8_t { None, Deadline, NonFinite, Diverging };

    /**
     * Symptom check of one simulated frame: the cycle deadline and
     * the divergence limit (both only when @p check_deadline) and
     * non-finite deltas.
     */
    Symptom diagnose(const hw::SimResult &frame,
                     bool check_deadline) const;

    /** The symptom's text in fault spans and exception messages. */
    static const char *describe(Symptom symptom);

    std::shared_ptr<const comp::Program> program_;
    fg::Values values_;
    hw::AcceleratorConfig config_;
    double stepScale_;
    bool retract_ = true;
    DegradationPolicy policy_;
    std::shared_ptr<const comp::Program> fallbackProgram_;
    std::shared_ptr<const hw::FaultInjector> injector_;
    std::shared_ptr<EngineHealth> health_;
    ExecutionContext context_;
    std::unique_ptr<ExecutionContext> fallbackContext_;
    hw::SimResult totals_;
    std::size_t frames_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t fallbacks_ = 0;
    std::uint64_t faultsDetected_ = 0;
    std::uint64_t timeouts_ = 0;
    bool lastFrameDegraded_ = false;
    std::shared_ptr<SessionTraceHandle> trace_;
};

} // namespace orianna::runtime
