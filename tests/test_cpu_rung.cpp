// The CPU rung's bits (DESIGN.md §13): when an incremental suffix is
// too long for the device, fg::solveSuffixOnCpu eliminates it on the
// host with mat::householderQr. A golden pins what that path computes
// on the scalar reference tier: R and Q^T b of householderQr over a
// fixed list of shapes (one column, rows around the micro-dispatch
// cutoff, widths that are no multiple of the SIMD widths, a zero
// column, fewer rows than columns), in both precisions, and the
// estimate of an fg::IncrementalSmoother after every update of a
// streamed Manhattan mission, where every update runs the CPU rung.
//
// The Householder sweep kernel entry (DESIGN.md §10) is bit-exact on
// every tier, so the HouseholderSweep suite compares bytes, not the
// tolerance of test_simd's parity suite: every tier's entry against
// the scalar entry, householderQr and solveSuffixOnCpu against copies
// of the column loop and the map gather they replaced, NaN and Inf
// placement, and MacCounter totals.
//
// Regenerate the checked-in digest after an intentional change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_cpu_rung

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/pose_graph.hpp"
#include "fg/eliminate.hpp"
#include "fg/incremental.hpp"
#include "fg/ordering.hpp"
#include "matrix/kernels.hpp"
#include "matrix/mac_counter.hpp"
#include "matrix/qr.hpp"
#include "matrix/simd.hpp"
#include "test_golden.hpp"

namespace {

using namespace orianna;
using orianna::test::expectGolden;
using orianna::test::fnv1a;
using orianna::test::hex;

const char *kCpuRungGoldenPath = ORIANNA_GOLDEN_DIR "/cpu_rung.digest";

/** A QR input shape: @p zeroColumn (when < cols) is all zeros. */
struct QrShape
{
    std::size_t rows;
    std::size_t cols;
    unsigned density; //!< Percent of entries drawn nonzero.
    std::size_t zeroColumn = SIZE_MAX;
};

const std::vector<QrShape> &
qrShapes()
{
    static const std::vector<QrShape> shapes = {
        // One column: the stride-1 path.
        {1, 1, 100}, {5, 1, 100}, {15, 1, 100}, {16, 1, 100},
        {17, 1, 80}, {40, 1, 100},
        // Rows around the 16-element micro-dispatch cutoff.
        {3, 3, 100}, {15, 4, 100}, {16, 4, 100}, {17, 4, 100},
        {15, 15, 100}, {16, 16, 90}, {17, 17, 100}, {18, 2, 100},
        // Widths that are no multiple of 4 or 8, CPU-rung sizes.
        {20, 5, 100}, {30, 7, 60}, {33, 9, 100}, {48, 13, 40},
        {30, 30, 50}, {48, 48, 35}, {63, 63, 30}, {81, 78, 25},
        {70, 66, 100}, {64, 31, 45},
        // A zero column: its reflector is skipped.
        {12, 12, 100, 0}, {30, 11, 70, 4}, {24, 21, 50, 20},
        // Fewer rows than columns.
        {2, 5, 100}, {4, 9, 100}, {10, 30, 70}, {17, 40, 50},
    };
    return shapes;
}

/**
 * A uniform draw in [-1, 1) straight from mt19937's specified output
 * (the standard distributions are implementation-defined).
 */
double
draw(std::mt19937 &rng)
{
    return static_cast<double>(rng()) / 4294967296.0 * 2.0 - 1.0;
}

template <typename T>
mat::MatrixT<T>
randomMatrix(const QrShape &shape, std::mt19937 &rng)
{
    mat::MatrixT<T> a(shape.rows, shape.cols);
    for (std::size_t i = 0; i < shape.rows; ++i)
        for (std::size_t j = 0; j < shape.cols; ++j) {
            const bool nonzero = rng() % 100 < shape.density;
            const T value = static_cast<T>(draw(rng));
            if (nonzero && j != shape.zeroColumn)
                a(i, j) = value;
        }
    return a;
}

template <typename T>
mat::VectorT<T>
randomVector(std::size_t n, std::mt19937 &rng)
{
    mat::VectorT<T> b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<T>(draw(rng));
    return b;
}

/** FNV-1a over R and Q^T b of every shape in one precision. */
template <typename T>
std::uint64_t
householderDigest()
{
    std::mt19937 rng(2024);
    std::uint64_t hash = fnv1a("");
    for (const QrShape &shape : qrShapes()) {
        const mat::MatrixT<T> a = randomMatrix<T>(shape, rng);
        const mat::VectorT<T> b = randomVector<T>(shape.rows, rng);
        const mat::QrResultT<T> qr = mat::householderQr(a, b);
        hash = fnv1a(qr.r.data().data(), qr.r.data().size() * sizeof(T),
                     hash);
        hash = fnv1a(qr.rhs.data().data(),
                     qr.rhs.data().size() * sizeof(T), hash);
    }
    return hash;
}

/** Append the raw bytes of @p v to @p bytes. */
void
putVector(std::string &bytes, const mat::Vector &v)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double x = v[i];
        char raw[sizeof x];
        std::memcpy(raw, &x, sizeof raw);
        bytes.append(raw, sizeof raw);
    }
}

} // namespace

TEST(CpuRungGolden, HouseholderAndStreamedSmootherMatchCheckedInDigest)
{
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    std::string digest = "householder shapes " +
                         std::to_string(qrShapes().size()) + " fp64 " +
                         hex(householderDigest<double>()) + " fp32 " +
                         hex(householderDigest<float>()) + "\n";

    // No suffix solver is plugged in: every update eliminates its
    // suffix through fg::solveSuffixOnCpu.
    const apps::PoseGraphScenario scenario =
        apps::makeManhattanWorld(120, 1);
    fg::IncrementalSmoother smoother;
    std::uint64_t hash = fnv1a("");
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        smoother.addVariable(frame.key,
                             scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        smoother.update();
        const fg::Values estimate = smoother.estimate();
        std::string bytes;
        for (fg::Key key : estimate.keys()) {
            bytes += std::to_string(key) + ":";
            putVector(bytes, estimate.pose(key).phi());
            putVector(bytes, estimate.pose(key).t());
        }
        hash = fnv1a(bytes, hash);
    }
    digest += "manhattan-120 updates " +
              std::to_string(smoother.updates()) + " fnv1a " +
              hex(hash) + "\n";

    expectGolden(kCpuRungGoldenPath, digest);
}

// --- The Householder sweep: bit-exact on every tier -----------------

namespace {

using mat::kernels::SimdTier;

/** Every tier this host can run, scalar first. */
std::vector<SimdTier>
supportedTiers()
{
    std::vector<SimdTier> tiers;
    for (SimdTier tier : mat::kernels::compiledTiers())
        if (mat::kernels::tierSupported(tier))
            tiers.push_back(tier);
    return tiers;
}

template <typename T>
const mat::kernels::KernelTableT<T> &
tableOf(SimdTier tier)
{
    if constexpr (std::is_same_v<T, double>)
        return *mat::kernels::kernelTable(tier);
    else
        return *mat::kernels::kernelTable32(tier);
}

/**
 * householderQr as it was before the sweep: each reflector is applied
 * one column at a time through a strided dot/axpy pair. The oracle the
 * sweep must reproduce bit for bit, MacCounter totals included.
 */
template <typename T>
mat::QrResultT<T>
columnLoopQr(const mat::MatrixT<T> &a, const mat::VectorT<T> &b)
{
    namespace kernels = mat::kernels;
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    mat::MatrixT<T> r = a;
    mat::VectorT<T> rhs = b;
    T *rp = m > 0 && n > 0 ? &r(0, 0) : nullptr;
    T *rhsp = m > 0 ? &rhs[0] : nullptr;
    const std::size_t steps = std::min(m == 0 ? 0 : m - 1, n);
    for (std::size_t k = 0; k < steps; ++k) {
        T *col_k = rp + k * n + k;
        const T sigma = kernels::dotStrided(col_k, n, col_k, n, m - k);
        mat::MacCounter::add(m - k);
        T alpha = std::sqrt(sigma);
        if (alpha == T(0))
            continue;
        if (r(k, k) > T(0))
            alpha = -alpha;
        mat::VectorT<T> v(m - k);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            v[i - k] = r(i, k);
        const T vnorm2 = sigma - T(2) * alpha * r(k, k) + alpha * alpha;
        if (vnorm2 == T(0))
            continue;
        const T *vp = &v[0];
        for (std::size_t j = k; j < n; ++j) {
            T *col_j = rp + k * n + j;
            const T dot = kernels::dotStrided(vp, 1, col_j, n, m - k);
            const T beta = T(2) * dot / vnorm2;
            kernels::axpyNegStrided(col_j, n, beta, vp, m - k);
            mat::MacCounter::add(2 * (m - k));
        }
        const T dot = kernels::dot(vp, rhsp + k, m - k);
        const T beta = T(2) * dot / vnorm2;
        kernels::axpyNegStrided(rhsp + k, 1, beta, vp, m - k);
        mat::MacCounter::add(2 * (m - k));
    }
    return {std::move(r), std::move(rhs)};
}

template <typename T>
bool
sameBytes(const std::vector<T> &x, const std::vector<T> &y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/** Whether @p x and @p y hold NaN, +-Inf and finite values alike. */
template <typename T>
bool
sameClasses(const std::vector<T> &x, const std::vector<T> &y)
{
    if (x.size() != y.size())
        return false;
    for (std::size_t i = 0; i < x.size(); ++i)
        if (std::isnan(x[i]) != std::isnan(y[i]) ||
            std::isinf(x[i]) != std::isinf(y[i]) ||
            (std::isinf(x[i]) && x[i] != y[i]))
            return false;
    return true;
}

/** A random sweep input: an m x n block inside rows of stride lda. */
template <typename T> struct SweepCase
{
    std::size_t m = 0, n = 0, lda = 0;
    std::vector<T> a; //!< m x lda; columns past n must stay untouched.
    std::vector<T> v;
    T vnorm2 = T(0);
};

template <typename T>
SweepCase<T>
randomSweep(std::mt19937 &rng)
{
    SweepCase<T> c;
    c.m = 1 + rng() % 70;
    c.n = 1 + rng() % 70;
    c.lda = c.n + rng() % 3;
    const unsigned density = rng() % 101;
    c.a.resize(c.m * c.lda);
    for (T &x : c.a)
        x = rng() % 100 < density ? static_cast<T>(draw(rng)) : T(0);
    c.v.resize(c.m);
    double norm2 = 0.0;
    for (T &x : c.v) {
        x = static_cast<T>(draw(rng));
        norm2 += static_cast<double>(x) * static_cast<double>(x);
    }
    c.vnorm2 = static_cast<T>(norm2 > 0.0 ? norm2 : 1.0);
    return c;
}

template <typename T>
void
expectEveryTierMatchesScalarEntry()
{
    std::mt19937 rng(41);
    for (int trial = 0; trial < 500; ++trial) {
        const SweepCase<T> c = randomSweep<T>(rng);
        std::vector<T> reference = c.a;
        mat::kernels::scalar::householderSweep(
            reference.data(), c.lda, c.v.data(), c.vnorm2, c.m, c.n);
        for (SimdTier tier : supportedTiers()) {
            std::vector<T> out = c.a;
            tableOf<T>(tier).householderSweep(out.data(), c.lda,
                                              c.v.data(), c.vnorm2,
                                              c.m, c.n);
            ASSERT_TRUE(sameBytes(out, reference))
                << mat::kernels::simdTierName(tier) << " " << c.m << "x"
                << c.n << " lda " << c.lda << " (sizeof T "
                << sizeof(T) << ")";
        }
    }
}

/** A householderQr input: random density and, sometimes, zero columns. */
template <typename T>
std::pair<mat::MatrixT<T>, mat::VectorT<T>>
randomSystem(std::mt19937 &rng)
{
    const std::size_t m = 1 + rng() % 70;
    const std::size_t n = 1 + rng() % 70;
    const unsigned density = rng() % 101;
    const std::size_t zero_cols = rng() % 4 == 0 ? rng() % 3 : 0;
    mat::MatrixT<T> a(m, n);
    mat::VectorT<T> b(m);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = zero_cols; j < n; ++j)
            if (rng() % 100 < density)
                a(i, j) = static_cast<T>(draw(rng));
        b[i] = static_cast<T>(draw(rng));
    }
    return {std::move(a), std::move(b)};
}

template <typename T>
void
expectQrMatchesColumnLoop()
{
    for (SimdTier tier : supportedTiers()) {
        const mat::kernels::ScopedKernelTier pin(tier);
        ASSERT_TRUE(pin.ok());
        std::mt19937 rng(43);
        for (int trial = 0; trial < 400; ++trial) {
            const auto [a, b] = randomSystem<T>(rng);
            const mat::MacScope old_scope;
            const mat::QrResultT<T> expected = columnLoopQr(a, b);
            const std::uint64_t old_macs = old_scope.elapsed();
            const mat::MacScope new_scope;
            const mat::QrResultT<T> got = mat::householderQr(a, b);
            const std::uint64_t new_macs = new_scope.elapsed();
            ASSERT_TRUE(sameBytes(got.r.data(), expected.r.data()) &&
                        sameBytes(got.rhs.data(), expected.rhs.data()))
                << mat::kernels::simdTierName(tier) << " " << a.rows()
                << "x" << a.cols() << " (sizeof T " << sizeof(T) << ")";
            ASSERT_EQ(new_macs, old_macs) << a.rows() << "x" << a.cols();
        }
    }
}

template <typename T>
void
expectNonFinitePlacement()
{
    const T nan = std::numeric_limits<T>::quiet_NaN();
    const T inf = std::numeric_limits<T>::infinity();
    std::mt19937 rng(47);
    for (int trial = 0; trial < 60; ++trial) {
        SweepCase<T> c = randomSweep<T>(rng);
        // A NaN and an Inf in the block; every third case an Inf in v.
        c.a[(rng() % c.m) * c.lda + rng() % c.n] = nan;
        c.a[(rng() % c.m) * c.lda + rng() % c.n] = -inf;
        if (trial % 3 == 0)
            c.v[rng() % c.m] = inf;
        std::vector<T> reference = c.a;
        mat::kernels::scalar::householderSweep(
            reference.data(), c.lda, c.v.data(), c.vnorm2, c.m, c.n);
        for (SimdTier tier : supportedTiers()) {
            std::vector<T> out = c.a;
            tableOf<T>(tier).householderSweep(out.data(), c.lda,
                                              c.v.data(), c.vnorm2,
                                              c.m, c.n);
            ASSERT_TRUE(sameClasses(out, reference))
                << mat::kernels::simdTierName(tier) << " " << c.m << "x"
                << c.n;
        }
    }
    for (SimdTier tier : supportedTiers()) {
        const mat::kernels::ScopedKernelTier pin(tier);
        std::mt19937 qr_rng(53);
        for (int trial = 0; trial < 60; ++trial) {
            auto [a, b] = randomSystem<T>(qr_rng);
            a(qr_rng() % a.rows(), qr_rng() % a.cols()) =
                trial % 2 == 0 ? nan : inf;
            const mat::QrResultT<T> expected = columnLoopQr(a, b);
            const mat::QrResultT<T> got = mat::householderQr(a, b);
            ASSERT_TRUE(sameClasses(got.r.data(), expected.r.data()) &&
                        sameClasses(got.rhs.data(), expected.rhs.data()))
                << mat::kernels::simdTierName(tier) << " " << a.rows()
                << "x" << a.cols();
        }
    }
}

/**
 * solveSuffixOnCpu as it was before the sweep: per-step std::map
 * column offsets, and a copy of the gathered system into the column
 * loop. The oracle for the gather, the extraction and the stats.
 */
fg::SuffixSolution
mapGatherSolve(const fg::SuffixSchedule &schedule,
               const std::vector<const fg::LinearRow *> &rows,
               fg::EliminationStats &stats)
{
    std::map<fg::Key, std::size_t> dof;
    for (std::size_t i = 0; i < schedule.variables.size(); ++i)
        dof[schedule.variables[i]] = schedule.dofs[i];
    fg::SuffixSolution sol;
    for (const fg::SuffixSchedule::Step &plan : schedule.steps) {
        const fg::Key v = plan.columns.front();
        const std::size_t dv = dof.at(v);
        std::map<fg::Key, std::size_t> col_offset;
        std::size_t ncols = 0;
        for (fg::Key key : plan.columns) {
            col_offset[key] = ncols;
            ncols += dof.at(key);
        }
        mat::Matrix abar(plan.nrows, ncols);
        mat::Vector bbar(plan.nrows);
        std::size_t row_offset = 0;
        for (std::size_t ref : plan.rowRefs) {
            const fg::LinearRow &lr =
                ref < rows.size() ? *rows[ref]
                                  : sol.carries[ref - rows.size()];
            for (const auto &[key, block] : lr.blocks)
                abar.setBlock(row_offset, col_offset.at(key), block);
            bbar.setSegment(row_offset, lr.rhs);
            row_offset += lr.rhs.size();
        }
        stats.qrOps.push_back({abar.rows(), abar.cols(), abar.density()});
        const mat::QrResult qr = columnLoopQr(abar, bbar);
        fg::Conditional cond;
        cond.key = v;
        cond.rSelf = qr.r.block(0, 0, dv, dv);
        cond.rhs = qr.rhs.segment(0, dv);
        for (fg::Key key : plan.columns)
            if (key != v)
                cond.rParents.emplace(
                    key,
                    qr.r.block(0, col_offset.at(key), dv, dof.at(key)));
        sol.conditionals.push_back(std::move(cond));
        if (plan.kept > 0) {
            fg::LinearRow fresh;
            for (fg::Key key : plan.columns)
                if (key != v)
                    fresh.blocks.emplace(
                        key, qr.r.block(dv, col_offset.at(key),
                                        plan.kept, dof.at(key)));
            fresh.rhs = qr.rhs.segment(dv, plan.kept);
            sol.carries.push_back(std::move(fresh));
        }
    }
    return sol;
}

bool
sameBlocks(const std::map<fg::Key, mat::Matrix> &x,
           const std::map<fg::Key, mat::Matrix> &y)
{
    if (x.size() != y.size())
        return false;
    for (auto xi = x.begin(), yi = y.begin(); xi != x.end(); ++xi, ++yi)
        if (xi->first != yi->first ||
            xi->second.rows() != yi->second.rows() ||
            !sameBytes(xi->second.data(), yi->second.data()))
            return false;
    return true;
}

} // namespace

TEST(HouseholderSweep, EveryTierEntryMatchesTheScalarEntryByteForByte)
{
    expectEveryTierMatchesScalarEntry<double>();
    expectEveryTierMatchesScalarEntry<float>();
}

TEST(HouseholderSweep, QrMatchesTheColumnLoopOnEveryTier)
{
    expectQrMatchesColumnLoop<double>();
    expectQrMatchesColumnLoop<float>();
}

TEST(HouseholderSweep, NonFiniteInputsLandAtTheSamePositions)
{
    expectNonFinitePlacement<double>();
    expectNonFinitePlacement<float>();
}

// The whole-graph CPU solve of a Manhattan mission (51 steps reach
// 30 or more columns) against the map gather and the column loop:
// every conditional and carry row byte for byte, the EliminationStats
// shapes and densities, and the MacCounter total, on every tier.
TEST(HouseholderSweep, CpuSuffixSolveMatchesTheMapGatherOnEveryTier)
{
    const apps::PoseGraphScenario scenario =
        apps::makeManhattanWorld(120, 1);
    const fg::FactorGraph graph = scenario.graph();
    const fg::LinearSystem system = graph.linearize(scenario.initial);
    std::vector<fg::RowShape> shapes;
    std::vector<const fg::LinearRow *> rows;
    for (const fg::LinearRow &row : system.rows) {
        shapes.push_back(fg::shapeOf(row));
        rows.push_back(&row);
    }
    const fg::SuffixSchedule schedule = fg::scheduleElimination(
        std::move(shapes), fg::ordering::natural(graph), system.dofs);

    for (SimdTier tier : supportedTiers()) {
        const mat::kernels::ScopedKernelTier pin(tier);
        fg::EliminationStats expected_stats;
        const mat::MacScope old_scope;
        const fg::SuffixSolution expected =
            mapGatherSolve(schedule, rows, expected_stats);
        const std::uint64_t old_macs = old_scope.elapsed();
        fg::EliminationStats stats;
        const mat::MacScope new_scope;
        const fg::SuffixSolution got =
            fg::solveSuffixOnCpu(schedule, rows, &stats);
        EXPECT_EQ(new_scope.elapsed(), old_macs);

        ASSERT_EQ(got.conditionals.size(), expected.conditionals.size());
        for (std::size_t i = 0; i < got.conditionals.size(); ++i) {
            const fg::Conditional &g = got.conditionals[i];
            const fg::Conditional &e = expected.conditionals[i];
            EXPECT_EQ(g.key, e.key);
            EXPECT_TRUE(sameBytes(g.rSelf.data(), e.rSelf.data()) &&
                        sameBytes(g.rhs.data(), e.rhs.data()) &&
                        sameBlocks(g.rParents, e.rParents))
                << mat::kernels::simdTierName(tier) << " step " << i;
        }
        ASSERT_EQ(got.carries.size(), expected.carries.size());
        for (std::size_t i = 0; i < got.carries.size(); ++i)
            EXPECT_TRUE(
                sameBlocks(got.carries[i].blocks,
                           expected.carries[i].blocks) &&
                sameBytes(got.carries[i].rhs.data(),
                          expected.carries[i].rhs.data()))
                << mat::kernels::simdTierName(tier) << " carry " << i;

        ASSERT_EQ(stats.qrOps.size(), expected_stats.qrOps.size());
        std::size_t wide = 0;
        for (std::size_t i = 0; i < stats.qrOps.size(); ++i) {
            EXPECT_EQ(stats.qrOps[i].rows, expected_stats.qrOps[i].rows);
            EXPECT_EQ(stats.qrOps[i].cols, expected_stats.qrOps[i].cols);
            EXPECT_EQ(stats.qrOps[i].density,
                      expected_stats.qrOps[i].density);
            wide += stats.qrOps[i].cols >= 30 ? 1 : 0;
        }
        EXPECT_GT(wide, 0u) << "the mission never reaches CPU-rung widths";
    }
}
