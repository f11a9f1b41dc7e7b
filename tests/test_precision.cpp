// Mixed-precision path (DESIGN.md §12): fp32 kernels and the float
// executor track the fp64 reference within principled round-off
// bounds; precision resolution (explicit pin beats ORIANNA_PRECISION
// beats the Fp64 default); the precision-salted program cache and
// persistent store keep both datapaths of one graph coexisting with
// bit-identical warm restarts; and the fp32 degradation rung — a
// frame whose reduced mantissa overflows or diverges replays on the
// fp64 reference program, landing bit-identical to a pure-fp64
// engine.

#include <cstdlib>
#include <filesystem>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "compiler/executor.hpp"
#include "fg/factors.hpp"
#include "matrix/kernels.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_store.hpp"
#include "test_json.hpp"

namespace {

namespace fs = std::filesystem;

using namespace orianna;
using orianna::test::parseJson;

constexpr double kEps32 = 1.19209290e-7; // FLT_EPSILON.

/** A pose chain whose Gauss-Newton deltas are O(0.1). */
fg::FactorGraph
chainGraph(fg::Values &initial)
{
    std::vector<lie::Pose> truth;
    for (int i = 0; i < 5; ++i)
        truth.emplace_back(mat::Vector{0.1 * i, 0.02 * i, 0.05 * i},
                           mat::Vector{0.4 * i, 0.04 * i, 0.0});
    fg::FactorGraph graph;
    graph.emplace<fg::PriorFactor>(1, truth[0],
                                   fg::isotropicSigmas(6, 0.01));
    for (std::size_t i = 1; i < truth.size(); ++i)
        graph.emplace<fg::IMUFactor>(i, i + 1,
                                     truth[i].ominus(truth[i - 1]),
                                     fg::isotropicSigmas(6, 0.05));
    initial = fg::Values();
    for (std::size_t i = 0; i < truth.size(); ++i)
        initial.insert(i + 1,
                       truth[i].retract(mat::Vector{0.05, -0.05, 0.05,
                                                    -0.05, 0.05,
                                                    -0.05}));
    return graph;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir =
        testing::TempDir() + "orianna_precision_" + name;
    fs::remove_all(dir);
    return dir;
}

/** Exact (bitwise) equality of two value sets. */
void
expectIdenticalValues(const fg::Values &a, const fg::Values &b)
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

/** RAII guard restoring ORIANNA_PRECISION on scope exit. */
class ScopedPrecisionEnv
{
  public:
    explicit ScopedPrecisionEnv(const char *value)
    {
        const char *current = std::getenv("ORIANNA_PRECISION");
        had_ = current != nullptr;
        if (had_)
            saved_ = current;
        if (value != nullptr)
            setenv("ORIANNA_PRECISION", value, 1);
        else
            unsetenv("ORIANNA_PRECISION");
    }

    ~ScopedPrecisionEnv()
    {
        if (had_)
            setenv("ORIANNA_PRECISION", saved_.c_str(), 1);
        else
            unsetenv("ORIANNA_PRECISION");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

// --- Kernel-layer parity --------------------------------------------

TEST(Fp32Kernels, GemmTracksFp64WithinRoundoff)
{
    // The fp32 table (whatever tier is active — AVX2 reassociates
    // into 8-wide accumulators) must agree with an exact double
    // triple-loop within a forward-error bound: narrowing both
    // operands plus a k-term accumulation each contribute O(eps32)
    // relative to the magnitude sum Σ|a||b|.
    std::mt19937 rng(20260807);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{3, 7, 5}, {8, 16, 8}, {13, 64, 29}, {32, 128, 32}};
    for (const auto &shape : shapes) {
        std::vector<double> a(shape.m * shape.k);
        std::vector<double> b(shape.k * shape.n);
        for (double &x : a)
            x = dist(rng);
        for (double &x : b)
            x = dist(rng);
        std::vector<float> a32(a.begin(), a.end());
        std::vector<float> b32(b.begin(), b.end());
        std::vector<float> c32(shape.m * shape.n, 0.0f);
        mat::kernels::gemm<float>(a32.data(), b32.data(), c32.data(),
                                  shape.m, shape.k, shape.n);
        for (std::size_t i = 0; i < shape.m; ++i)
            for (std::size_t j = 0; j < shape.n; ++j) {
                double exact = 0.0;
                double magnitude = 0.0;
                for (std::size_t p = 0; p < shape.k; ++p) {
                    const double term =
                        a[i * shape.k + p] * b[p * shape.n + j];
                    exact += term;
                    magnitude += std::abs(term);
                }
                const double bound =
                    4.0 * (static_cast<double>(shape.k) + 4.0) *
                    kEps32 * magnitude;
                EXPECT_NEAR(c32[i * shape.n + j], exact, bound)
                    << shape.m << "x" << shape.k << "x" << shape.n
                    << " at (" << i << "," << j << ")";
            }
    }
}

TEST(Fp32Kernels, DotTracksFp64WithinRoundoff)
{
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    for (const std::size_t n : {16u, 64u, 257u, 1024u}) {
        std::vector<double> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = dist(rng);
            b[i] = dist(rng);
        }
        std::vector<float> a32(a.begin(), a.end());
        std::vector<float> b32(b.begin(), b.end());
        double exact = 0.0;
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            exact += a[i] * b[i];
            magnitude += std::abs(a[i] * b[i]);
        }
        const double got = static_cast<double>(
            mat::kernels::dot<float>(a32.data(), b32.data(), n));
        EXPECT_NEAR(got, exact,
                    4.0 * (static_cast<double>(n) + 4.0) * kEps32 *
                        magnitude)
            << "n=" << n;
    }
}

// --- Executor-layer parity ------------------------------------------

TEST(Fp32Executor, DeltasTrackFp64WithinTolerance)
{
    // Same instruction stream, float slot arena: the per-frame deltas
    // must agree with the double interpreter to fp32 round-off scale
    // (the solve path is QR over well-conditioned chains; empirically
    // deltas land within ~1e-5, so 1e-4 leaves slack without ever
    // accepting an fp64-sized error).
    fg::Values initial;
    const fg::FactorGraph graph = chainGraph(initial);
    comp::Program program = comp::compileGraph(graph, initial);

    comp::Executor exact(program);
    const auto deltas64 = exact.run(initial);

    program.precision = comp::Precision::Fp32;
    comp::Executor32 narrow(program);
    const auto deltas32 = narrow.run(initial);

    ASSERT_EQ(deltas64.size(), deltas32.size());
    ASSERT_FALSE(deltas64.empty());
    for (const auto &[key, delta] : deltas64) {
        const auto it = deltas32.find(key);
        ASSERT_NE(it, deltas32.end()) << key;
        double scale = 1.0;
        for (std::size_t i = 0; i < delta.size(); ++i)
            scale = std::max(scale, std::abs(delta[i]));
        EXPECT_LE(mat::maxDifference(delta, it->second),
                  1e-4 * scale)
            << key;
    }
}

// --- Precision resolution -------------------------------------------

TEST(PrecisionResolve, EnvSelectsAndExplicitPinWins)
{
    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);
    {
        ScopedPrecisionEnv env(nullptr);
        runtime::Engine engine(config);
        EXPECT_EQ(engine.precision(), comp::Precision::Fp64);
    }
    {
        ScopedPrecisionEnv env("fp32");
        runtime::Engine engine(config);
        EXPECT_EQ(engine.precision(), comp::Precision::Fp32);

        // An explicit option pins the datapath regardless of env.
        runtime::EngineOptions pinned;
        pinned.precision = comp::Precision::Fp64;
        runtime::Engine fixed(config, pinned);
        EXPECT_EQ(fixed.precision(), comp::Precision::Fp64);
    }
    {
        // A malformed value falls back to the Fp64 default.
        ScopedPrecisionEnv env("fp17");
        runtime::Engine engine(config);
        EXPECT_EQ(engine.precision(), comp::Precision::Fp64);
    }
}

TEST(PrecisionResolve, HealthReportsTheDatapath)
{
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp32;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("precision").asString(), "fp32");
}

// --- Cache/store key salting ----------------------------------------

TEST(PrecisionStore, BothPrecisionsCoexistWithBitIdenticalRestarts)
{
    fg::Values initial;
    const fg::FactorGraph graph = chainGraph(initial);
    const std::string dir = freshDir("coexist");
    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);

    auto optionsFor = [&](comp::Precision precision) {
        runtime::EngineOptions options;
        options.storeDir = dir;
        options.precision = precision;
        return options;
    };

    // Cold fp64: one compile, one published artifact.
    fg::Values v64;
    {
        runtime::Engine engine(config,
                               optionsFor(comp::Precision::Fp64));
        runtime::Session session = engine.session(graph, initial);
        session.iterate(2);
        v64 = session.values();
        EXPECT_EQ(engine.stats().compiles, 1u);
        EXPECT_EQ(engine.stats().storeWrites, 1u);
    }

    // Cold fp32 against the same directory: the salted key misses the
    // fp64 artifact, so the optimized fp32 program AND its fp64
    // reference fallback both compile and publish.
    fg::Values v32;
    {
        runtime::Engine engine(config,
                               optionsFor(comp::Precision::Fp32));
        runtime::Session session = engine.session(graph, initial);
        EXPECT_TRUE(session.hasFallback());
        session.iterate(2);
        v32 = session.values();
        EXPECT_EQ(engine.stats().compiles, 2u);
        EXPECT_EQ(engine.stats().storeHits, 0u);
        EXPECT_EQ(engine.stats().storeWrites, 2u);

        // Both precision entries of the one graph exist on disk under
        // distinct (salted) names.
        const std::uint64_t fingerprint =
            runtime::graphFingerprint(graph, initial);
        const runtime::ProgramStore *store = engine.store();
        ASSERT_NE(store, nullptr);
        EXPECT_TRUE(fs::exists(store->entryPath(fingerprint)));
        EXPECT_TRUE(fs::exists(store->entryPath(
            fingerprint ^ runtime::Engine::kFp32Salt)));
    }

    // Optimized fp64, optimized fp32, shared fp64 reference.
    std::size_t entries = 0;
    for (const auto &item : fs::directory_iterator(dir))
        entries += item.path().extension() == ".oprog" ? 1 : 0;
    EXPECT_EQ(entries, 3u);

    // Warm restarts: zero compiles per precision, values
    // bit-identical to the cold runs.
    {
        runtime::Engine engine(config,
                               optionsFor(comp::Precision::Fp64));
        runtime::Session session = engine.session(graph, initial);
        session.iterate(2);
        EXPECT_EQ(engine.stats().compiles, 0u);
        EXPECT_EQ(engine.stats().storeHits, 1u);
        expectIdenticalValues(v64, session.values());
    }
    {
        runtime::Engine engine(config,
                               optionsFor(comp::Precision::Fp32));
        runtime::Session session = engine.session(graph, initial);
        session.iterate(2);
        EXPECT_EQ(engine.stats().compiles, 0u);
        EXPECT_EQ(engine.stats().storeHits, 2u);
        expectIdenticalValues(v32, session.values());
    }
}

// --- The fp32 degradation rung --------------------------------------

TEST(Fp32Fallback, OverflowingFrameLandsOnFp64Reference)
{
    // A residual of ~1e30 whitened by sigma 1e-10 streams 1e40
    // through the datapath: comfortable in double, infinity in float.
    // The fp32 frame's non-finite deltas climb the ladder and replay
    // on the fp64 reference program, whose update the pass-equivalence
    // contract keeps bit-identical to a pure-fp64 engine's.
    fg::Values initial;
    fg::FactorGraph graph = chainGraph(initial);
    initial.insert(100, mat::Vector{1e30, -1e30, 1e30});
    graph.emplace<fg::VectorPriorFactor>(
        100, mat::Vector{0.0, 0.0, 0.0},
        fg::isotropicSigmas(3, 1e-10));

    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine clean(config, fp64);
    runtime::Session truth = clean.session(graph, initial);
    truth.step();

    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp32;
    runtime::Engine engine(config, options);
    runtime::Session session = engine.session(graph, initial);
    ASSERT_TRUE(session.hasFallback());
    session.step();

    // No injector is armed, so no retries — the frame detects the
    // overflow once and goes straight to the reference rung, whose
    // fp64 update lands bit-identical to the clean engine's. (The
    // fallback also heals the state: the huge residual is gone, so a
    // second frame would run natively in fp32 again.)
    EXPECT_EQ(session.fallbacks(), 1u);
    EXPECT_EQ(session.retries(), 0u);
    EXPECT_EQ(session.faultsDetected(), 1u);
    EXPECT_TRUE(session.lastFrameDegraded());
    expectIdenticalValues(truth.values(), session.values());

    const auto json = parseJson(engine.healthJson());
    EXPECT_EQ(json->at("status").asString(), "degraded");
    EXPECT_EQ(json->at("precision").asString(), "fp32");
    EXPECT_EQ(json->at("fallbacks").asNumber(), 1.0);
    EXPECT_EQ(json->at("failures").asNumber(), 0.0);
}

TEST(Fp32Fallback, DivergenceLimitTripsTheLadder)
{
    // deltaAbsLimit far below any real update: every frame is
    // declared diverging on the primary rung, while the fp64 fallback
    // (trusted ground truth, limit waived) still lands the update —
    // so the stream completes bit-identical to a pure-fp64 engine.
    // The limit is a fault source of its own, so an fp64 engine with
    // it set provisions the fallback too.
    fg::Values initial;
    const fg::FactorGraph graph = chainGraph(initial);

    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);
    runtime::EngineOptions fp64;
    fp64.precision = comp::Precision::Fp64;
    runtime::Engine clean(config, fp64);
    runtime::Session truth = clean.session(graph, initial);
    truth.iterate(3);

    for (const comp::Precision precision :
         {comp::Precision::Fp32, comp::Precision::Fp64}) {
        SCOPED_TRACE(comp::precisionName(precision));
        runtime::EngineOptions options;
        options.precision = precision;
        options.degradation.deltaAbsLimit = 1e-12;
        runtime::Engine engine(config, options);
        runtime::Session session = engine.session(graph, initial);
        ASSERT_TRUE(session.hasFallback());
        session.iterate(3);

        EXPECT_EQ(session.frames(), 3u);
        EXPECT_EQ(session.fallbacks(), 3u);
        EXPECT_TRUE(session.lastFrameDegraded());
        expectIdenticalValues(truth.values(), session.values());
        EXPECT_EQ(engine.health().failures.load(), 0u);
    }
}

} // namespace
