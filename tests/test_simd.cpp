// SIMD kernel layer tests (DESIGN.md §10): tier registry and
// selection, dispatch counters, and the randomized scalar-vs-SIMD
// parity suite over tiny, odd and tail-heavy shapes.
//
// Parity tolerance: fast tiers reassociate reductions (wide
// accumulators, FMA), so each output element may differ from the
// scalar reference by a few rounding errors of the *absolute-value*
// accumulation sum_i |a_i * b_i| — the result itself can be tiny
// through cancellation, which makes result-relative bounds unusable.
// We compute that absolute accumulation with the scalar kernels on
// |a|, |b| and allow kToleranceFactor units of the precision's epsilon
// of it. The parity suite runs once per precision: the fp32 tests
// compare each fast fp32 entry with the fp32 scalar table.

#include <cmath>
#include <random>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "matrix/dense.hpp"
#include "matrix/kernels.hpp"
#include "matrix/simd.hpp"

namespace {

using namespace orianna;
namespace kernels = orianna::mat::kernels;
using kernels::KernelOp;
using kernels::KernelTable;
using kernels::KernelTableT;
using kernels::ScopedKernelTier;
using kernels::SimdTier;

// ~450 eps of the absolute accumulation: loose enough for any
// accumulation order over these sizes, tight enough that a wrong
// element (an O(1) relative error) fails by many orders of magnitude.
constexpr double kToleranceFactor = 2000.0;

template <typename T>
double
tolerance(double abs_accumulation)
{
    constexpr double eps = std::numeric_limits<T>::epsilon();
    return kToleranceFactor * eps * abs_accumulation + 1e-290;
}

template <typename T = double>
std::vector<T>
randomBuffer(std::size_t n, std::mt19937 &rng)
{
    // Mixed-sign entries so cancellation actually happens.
    std::uniform_real_distribution<T> dist(-1.0, 1.0);
    std::vector<T> out(n);
    for (T &v : out)
        v = dist(rng);
    return out;
}

template <typename T>
std::vector<T>
absOf(const std::vector<T> &v)
{
    std::vector<T> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = std::fabs(v[i]);
    return out;
}

/** @p tier's table of precision T, or nullptr when not compiled in. */
template <typename T>
const KernelTableT<T> *
tableOf(SimdTier tier)
{
    if constexpr (std::is_same_v<T, double>)
        return kernels::kernelTable(tier);
    else
        return kernels::kernelTable32(tier);
}

/** Every compiled-and-supported fast (non-scalar) tier on this host. */
std::vector<SimdTier>
supportedFastTiers()
{
    std::vector<SimdTier> out;
    for (SimdTier tier : kernels::compiledTiers())
        if (tier != SimdTier::Scalar && kernels::tierSupported(tier))
            out.push_back(tier);
    return out;
}

// --- Registry and selection -----------------------------------------

TEST(SimdRegistry, ScalarTierAlwaysPresent)
{
    EXPECT_TRUE(kernels::tierCompiled(SimdTier::Scalar));
    EXPECT_TRUE(kernels::tierSupported(SimdTier::Scalar));
    const KernelTable *table = kernels::kernelTable(SimdTier::Scalar);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->tier, SimdTier::Scalar);

    const auto tiers = kernels::compiledTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), SimdTier::Scalar);
}

TEST(SimdRegistry, DetectedTierIsSupported)
{
    EXPECT_TRUE(kernels::tierSupported(kernels::detectTier()));
    EXPECT_FALSE(kernels::simdCapabilityString().empty());
}

TEST(SimdRegistry, SpecSelection)
{
    const ScopedKernelTier restore(kernels::activeTier());

    const auto automatic = kernels::selectTierFromSpec("auto");
    EXPECT_TRUE(automatic.ok);
    EXPECT_EQ(automatic.tier, kernels::detectTier());

    const auto scalar = kernels::selectTierFromSpec("scalar");
    EXPECT_TRUE(scalar.ok);
    EXPECT_EQ(scalar.tier, SimdTier::Scalar);
    EXPECT_TRUE(scalar.message.empty());
    EXPECT_EQ(kernels::activeTier(), SimdTier::Scalar);

    const auto bogus = kernels::selectTierFromSpec("bogus");
    EXPECT_FALSE(bogus.ok);
    EXPECT_NE(bogus.message.find("unknown SIMD tier"),
              std::string::npos);
    // A failed selection must leave the active table alone.
    EXPECT_EQ(kernels::activeTier(), SimdTier::Scalar);
}

TEST(SimdRegistry, UnsupportedSpecFallsBackWithWarning)
{
    const ScopedKernelTier restore(kernels::activeTier());
    // At most one of avx2/neon can be supported on one host; pick an
    // unsupported-but-valid name if one exists.
    for (SimdTier tier : {SimdTier::Avx2, SimdTier::Neon}) {
        if (kernels::tierSupported(tier))
            continue;
        const auto fallback =
            kernels::selectTierFromSpec(kernels::simdTierName(tier));
        EXPECT_TRUE(fallback.ok);
        EXPECT_EQ(fallback.tier, kernels::detectTier());
        EXPECT_FALSE(fallback.message.empty());
        return;
    }
    GTEST_SKIP() << "every fast tier is supported here";
}

TEST(SimdRegistry, ScopedTierRestores)
{
    const SimdTier before = kernels::activeTier();
    {
        const ScopedKernelTier pin(SimdTier::Scalar);
        EXPECT_TRUE(pin.ok());
        EXPECT_EQ(kernels::activeTier(), SimdTier::Scalar);
    }
    EXPECT_EQ(kernels::activeTier(), before);
}

TEST(SimdRegistry, KernelOpNamesAreUnique)
{
    std::vector<std::string> names;
    for (std::size_t op = 0; op < kernels::kKernelOpCount; ++op)
        names.emplace_back(
            kernels::kernelOpName(static_cast<KernelOp>(op)));
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
}

TEST(SimdCounters, DispatchedCallsAreCounted)
{
    const ScopedKernelTier pin(SimdTier::Scalar);
    kernels::resetKernelCallCounts();

    std::mt19937 rng(1);
    const auto a = randomBuffer(64, rng);
    const auto b = randomBuffer(64, rng);
    (void)kernels::dot(a.data(), b.data(), 64);
    EXPECT_EQ(kernels::kernelCallCount(KernelOp::Dot), 1u);

    // Below the micro-dispatch cutoff the inline loop runs: no count.
    (void)kernels::dot(a.data(), b.data(), 4);
    EXPECT_EQ(kernels::kernelCallCount(KernelOp::Dot), 1u);

    kernels::resetKernelCallCounts();
    EXPECT_EQ(kernels::kernelCallCount(KernelOp::Dot), 0u);
}

// --- Randomized scalar-vs-SIMD parity -------------------------------

struct Shape
{
    std::size_t m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},    {1, 3, 2},    {3, 5, 4},    {5, 7, 3},
    {8, 8, 8},    {17, 31, 23}, {33, 40, 37}, {64, 64, 64},
    {65, 67, 63},
};

class FastTierParity : public ::testing::TestWithParam<int>
{
  protected:
    /** The fast tier under test, or nullptr when this host has none. */
    template <typename T>
    const KernelTableT<T> *
    table()
    {
        const auto tiers = supportedFastTiers();
        if (tiers.empty())
            return nullptr;
        return tableOf<T>(tiers[static_cast<std::size_t>(
            GetParam() % static_cast<int>(tiers.size()))]);
    }

    template <typename T> void checkGemmFamily(unsigned seed);
    template <typename T> void checkTranspose(unsigned seed);
    template <typename T> void checkMicroKernels(unsigned seed);
};

template <typename T>
void
FastTierParity::checkGemmFamily(unsigned seed)
{
    const KernelTableT<T> *fast = table<T>();
    if (fast == nullptr)
        GTEST_SKIP() << "no fast SIMD tier supported on this host";

    std::mt19937 rng(seed + GetParam());
    for (const Shape &s : kShapes) {
        const auto a = randomBuffer<T>(s.m * s.k, rng);
        const auto b = randomBuffer<T>(s.k * s.n, rng);
        const auto a_abs = absOf(a);
        const auto b_abs = absOf(b);

        // gemm: want/got/abs-accumulation, all freshly zeroed.
        std::vector<T> want(s.m * s.n, T(0));
        std::vector<T> got(s.m * s.n, T(0));
        std::vector<T> bound(s.m * s.n, T(0));
        kernels::scalar::gemm(a.data(), b.data(), want.data(), s.m,
                              s.k, s.n);
        fast->gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
        kernels::scalar::gemm(a_abs.data(), b_abs.data(), bound.data(),
                              s.m, s.k, s.n);
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_NEAR(got[i], want[i], tolerance<T>(bound[i]))
                << "gemm " << s.m << "x" << s.k << "x" << s.n
                << " element " << i;

        // gemmTransA: a stored k x m.
        const auto at = randomBuffer<T>(s.k * s.m, rng);
        const auto at_abs = absOf(at);
        std::fill(want.begin(), want.end(), T(0));
        std::fill(got.begin(), got.end(), T(0));
        std::fill(bound.begin(), bound.end(), T(0));
        kernels::scalar::gemmTransA(at.data(), b.data(), want.data(),
                                    s.k, s.m, s.n);
        fast->gemmTransA(at.data(), b.data(), got.data(), s.k, s.m,
                         s.n);
        kernels::scalar::gemmTransA(at_abs.data(), b_abs.data(),
                                    bound.data(), s.k, s.m, s.n);
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_NEAR(got[i], want[i], tolerance<T>(bound[i]))
                << "gemmTransA " << s.k << "x" << s.m << "x" << s.n
                << " element " << i;

        // gemmTransB: b stored n x k.
        const auto bt = randomBuffer<T>(s.n * s.k, rng);
        const auto bt_abs = absOf(bt);
        std::fill(want.begin(), want.end(), T(0));
        std::fill(got.begin(), got.end(), T(0));
        std::fill(bound.begin(), bound.end(), T(0));
        kernels::scalar::gemmTransB(a.data(), bt.data(), want.data(),
                                    s.m, s.k, s.n);
        fast->gemmTransB(a.data(), bt.data(), got.data(), s.m, s.k,
                         s.n);
        kernels::scalar::gemmTransB(a_abs.data(), bt_abs.data(),
                                    bound.data(), s.m, s.k, s.n);
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_NEAR(got[i], want[i], tolerance<T>(bound[i]))
                << "gemmTransB " << s.m << "x" << s.k << "x" << s.n
                << " element " << i;

        // gemv / gemvTransA on the same operands.
        const auto x = randomBuffer<T>(s.k, rng);
        const auto x_abs = absOf(x);
        std::vector<T> ywant(s.m, T(0)), ygot(s.m, T(0)),
            ybound(s.m, T(0));
        kernels::scalar::gemv(a.data(), x.data(), ywant.data(), s.m,
                              s.k);
        fast->gemv(a.data(), x.data(), ygot.data(), s.m, s.k);
        kernels::scalar::gemv(a_abs.data(), x_abs.data(),
                              ybound.data(), s.m, s.k);
        for (std::size_t i = 0; i < s.m; ++i)
            EXPECT_NEAR(ygot[i], ywant[i], tolerance<T>(ybound[i]))
                << "gemv row " << i;

        const auto xm = randomBuffer<T>(s.m, rng);
        const auto xm_abs = absOf(xm);
        std::vector<T> twant(s.k, T(0)), tgot(s.k, T(0)),
            tbound(s.k, T(0));
        kernels::scalar::gemvTransA(a.data(), xm.data(), twant.data(),
                                    s.m, s.k);
        fast->gemvTransA(a.data(), xm.data(), tgot.data(), s.m, s.k);
        kernels::scalar::gemvTransA(a_abs.data(), xm_abs.data(),
                                    tbound.data(), s.m, s.k);
        for (std::size_t i = 0; i < s.k; ++i)
            EXPECT_NEAR(tgot[i], twant[i], tolerance<T>(tbound[i]))
                << "gemvTransA col " << i;
    }
}

template <typename T>
void
FastTierParity::checkTranspose(unsigned seed)
{
    const KernelTableT<T> *fast = table<T>();
    if (fast == nullptr)
        GTEST_SKIP() << "no fast SIMD tier supported on this host";

    // Transpose moves values without arithmetic: bit-exact always.
    std::mt19937 rng(seed + GetParam());
    for (const Shape &s : kShapes) {
        const auto a = randomBuffer<T>(s.m * s.n, rng);
        std::vector<T> want(s.n * s.m), got(s.n * s.m);
        kernels::scalar::transpose(a.data(), want.data(), s.m, s.n);
        fast->transpose(a.data(), got.data(), s.m, s.n);
        EXPECT_EQ(want, got) << s.m << "x" << s.n;
    }
}

template <typename T>
void
FastTierParity::checkMicroKernels(unsigned seed)
{
    const KernelTableT<T> *fast = table<T>();
    if (fast == nullptr)
        GTEST_SKIP() << "no fast SIMD tier supported on this host";

    std::mt19937 rng(seed + GetParam());
    const std::size_t lengths[] = {1, 2, 3, 4, 7, 15, 16, 17,
                                   31, 32, 63, 64, 65, 100};
    const std::size_t strides[] = {1, 2, 3};
    for (const std::size_t n : lengths) {
        const auto a = randomBuffer<T>(n, rng);
        const auto b = randomBuffer<T>(n, rng);
        const auto a_abs = absOf(a);
        const auto b_abs = absOf(b);

        const double abs_acc =
            kernels::scalar::dot(a_abs.data(), b_abs.data(), n);
        EXPECT_NEAR(fast->dot(a.data(), b.data(), n),
                    kernels::scalar::dot(a.data(), b.data(), n),
                    tolerance<T>(abs_acc))
            << "dot n=" << n;

        EXPECT_NEAR(
            fast->fusedSubtractDot(T(0.75), a.data(), b.data(), n),
            kernels::scalar::fusedSubtractDot(T(0.75), a.data(),
                                              b.data(), n),
            tolerance<T>(abs_acc + 0.75))
            << "fusedSubtractDot n=" << n;

        for (const std::size_t sa : strides)
            for (const std::size_t sb : strides) {
                const auto as = randomBuffer<T>(n * sa, rng);
                const auto bs = randomBuffer<T>(n * sb, rng);
                const double strided_abs = kernels::scalar::dotStrided(
                    absOf(as).data(), sa, absOf(bs).data(), sb, n);
                EXPECT_NEAR(
                    fast->dotStrided(as.data(), sa, bs.data(), sb, n),
                    kernels::scalar::dotStrided(as.data(), sa,
                                                bs.data(), sb, n),
                    tolerance<T>(strided_abs))
                    << "dotStrided n=" << n << " sa=" << sa
                    << " sb=" << sb;
            }

        for (const std::size_t sy : strides) {
            auto y_want = randomBuffer<T>(n * sy, rng);
            auto y_got = y_want;
            const T alpha = T(0.6180339887);
            kernels::scalar::axpyNegStrided(y_want.data(), sy, alpha,
                                            a.data(), n);
            fast->axpyNegStrided(y_got.data(), sy, alpha, a.data(), n);
            for (std::size_t i = 0; i < y_want.size(); ++i)
                EXPECT_NEAR(y_got[i], y_want[i],
                            tolerance<T>(std::fabs(y_want[i]) + 1.0))
                    << "axpyNegStrided n=" << n << " sy=" << sy
                    << " element " << i;
        }

        auto rj_want = randomBuffer<T>(n, rng);
        auto ri_want = randomBuffer<T>(n, rng);
        auto rj_got = rj_want;
        auto ri_got = ri_want;
        const T c = T(0.8);
        const T s = T(0.6);
        kernels::scalar::givensRotate(rj_want.data(), ri_want.data(),
                                      c, s, n);
        fast->givensRotate(rj_got.data(), ri_got.data(), c, s, n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(rj_got[i], rj_want[i], tolerance<T>(2.0))
                << "givensRotate rj " << i;
            EXPECT_NEAR(ri_got[i], ri_want[i], tolerance<T>(2.0))
                << "givensRotate ri " << i;
        }
    }
}

TEST_P(FastTierParity, GemmFamilyWithinTolerance)
{
    checkGemmFamily<double>(90);
}

TEST_P(FastTierParity, TransposeIsExact)
{
    checkTranspose<double>(17);
}

TEST_P(FastTierParity, MicroKernelsWithinTolerance)
{
    checkMicroKernels<double>(300);
}

TEST_P(FastTierParity, Fp32GemmFamilyWithinTolerance)
{
    checkGemmFamily<float>(190);
}

TEST_P(FastTierParity, Fp32TransposeIsExact)
{
    checkTranspose<float>(117);
}

TEST_P(FastTierParity, Fp32MicroKernelsWithinTolerance)
{
    checkMicroKernels<float>(400);
}

INSTANTIATE_TEST_SUITE_P(Rounds, FastTierParity,
                         ::testing::Range(0, 4));

// --- End-to-end application parity ----------------------------------

class AppTierParity : public ::testing::TestWithParam<apps::AppKind>
{};

TEST_P(AppTierParity, FastTierSolvesMatchScalarWithinTolerance)
{
    const auto tiers = supportedFastTiers();
    if (tiers.empty())
        GTEST_SKIP() << "no fast SIMD tier supported on this host";

    std::vector<fg::Values> scalar_solved;
    {
        const ScopedKernelTier pin(SimdTier::Scalar);
        apps::BenchmarkApp bench = apps::buildApp(GetParam(), 7);
        scalar_solved = bench.app.solveSoftware();
    }

    for (SimdTier tier : tiers) {
        const ScopedKernelTier pin(tier);
        ASSERT_TRUE(pin.ok());
        apps::BenchmarkApp bench = apps::buildApp(GetParam(), 7);
        const auto solved = bench.app.solveSoftware();

        // Same mission verdict, and per-variable agreement within the
        // documented end-to-end bound (DESIGN.md §10): kernel-level
        // rounding differences pass through a converging solve.
        ASSERT_EQ(solved.size(), scalar_solved.size());
        bool success_scalar = false;
        bool success_fast = false;
        {
            const ScopedKernelTier check(SimdTier::Scalar);
            success_scalar = bench.success(scalar_solved);
            success_fast = bench.success(solved);
        }
        EXPECT_EQ(success_fast, success_scalar)
            << apps::appName(GetParam()) << " on "
            << kernels::simdTierName(tier);
        for (std::size_t alg = 0; alg < solved.size(); ++alg) {
            const fg::Values &a = scalar_solved[alg];
            const fg::Values &b = solved[alg];
            for (fg::Key key : a.keys()) {
                if (a.isPose(key)) {
                    EXPECT_LT(mat::maxDifference(a.pose(key).phi(),
                                                 b.pose(key).phi()),
                              1e-6);
                    EXPECT_LT(mat::maxDifference(a.pose(key).t(),
                                                 b.pose(key).t()),
                              1e-6);
                } else {
                    EXPECT_LT(mat::maxDifference(a.vector(key),
                                                 b.vector(key)),
                              1e-6);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppTierParity,
    ::testing::Values(apps::AppKind::MobileRobot,
                      apps::AppKind::Manipulator,
                      apps::AppKind::AutoVehicle,
                      apps::AppKind::Quadrotor),
    [](const auto &info) {
        return std::string(apps::appName(info.param));
    });

} // namespace
