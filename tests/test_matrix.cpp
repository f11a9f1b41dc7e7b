// Unit and property tests for the dense-matrix substrate.

#include <cmath>
#include <random>
#include <tuple>

#include <gtest/gtest.h>

#include "matrix/dense.hpp"
#include "matrix/kernels.hpp"
#include "matrix/mac_counter.hpp"
#include "matrix/qr.hpp"
#include "matrix/simd.hpp"

namespace {

namespace kernels = orianna::mat::kernels;

using orianna::mat::MacCounter;
using orianna::mat::MacScope;
using orianna::mat::Matrix;
using orianna::mat::maxDifference;
using orianna::mat::QrResult;
using orianna::mat::Vector;

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix out(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            out(i, j) = dist(rng);
    return out;
}

Vector
randomVector(std::size_t n, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Vector out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist(rng);
    return out;
}

TEST(Vector, ArithmeticBasics)
{
    Vector a{1.0, 2.0, 3.0};
    Vector b{4.0, -1.0, 0.5};
    EXPECT_EQ((a + b)[0], 5.0);
    EXPECT_EQ((a - b)[1], 3.0);
    EXPECT_EQ((-a)[2], -3.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 2.0 + 1.5);
    EXPECT_DOUBLE_EQ(Vector({3.0, 4.0}).norm(), 5.0);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 3.0);
}

TEST(Vector, SegmentAndConcat)
{
    Vector a{1.0, 2.0, 3.0, 4.0};
    Vector mid = a.segment(1, 2);
    ASSERT_EQ(mid.size(), 2u);
    EXPECT_EQ(mid[0], 2.0);
    EXPECT_EQ(mid[1], 3.0);

    Vector joined = mid.concat(Vector{9.0});
    ASSERT_EQ(joined.size(), 3u);
    EXPECT_EQ(joined[2], 9.0);

    a.setSegment(2, Vector{7.0, 8.0});
    EXPECT_EQ(a[2], 7.0);
    EXPECT_EQ(a[3], 8.0);
}

TEST(Vector, SizeMismatchThrows)
{
    Vector a{1.0, 2.0};
    Vector b{1.0};
    EXPECT_THROW(a + b, std::invalid_argument);
    EXPECT_THROW(a.dot(b), std::invalid_argument);
    EXPECT_THROW(a.segment(1, 2), std::out_of_range);
}

TEST(Matrix, InitializerAndAccess)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(1, 0), 3.0);
    EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal)
{
    Matrix i3 = Matrix::identity(3);
    EXPECT_EQ(i3(0, 0), 1.0);
    EXPECT_EQ(i3(0, 1), 0.0);

    Matrix d = Matrix::diagonal(Vector{2.0, 5.0});
    EXPECT_EQ(d(1, 1), 5.0);
    EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplyKnownValues)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c = a * b;
    EXPECT_EQ(c(0, 0), 19.0);
    EXPECT_EQ(c(0, 1), 22.0);
    EXPECT_EQ(c(1, 0), 43.0);
    EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeInvolution)
{
    std::mt19937 rng(7);
    Matrix a = randomMatrix(4, 6, rng);
    EXPECT_EQ(maxDifference(a.transpose().transpose(), a), 0.0);
}

TEST(Matrix, BlockRoundTrip)
{
    std::mt19937 rng(11);
    Matrix a = randomMatrix(5, 5, rng);
    Matrix sub = a.block(1, 2, 3, 2);
    Matrix b(5, 5);
    b.setBlock(1, 2, sub);
    EXPECT_EQ(maxDifference(b.block(1, 2, 3, 2), sub), 0.0);
    EXPECT_THROW(a.block(3, 3, 3, 3), std::out_of_range);
}

TEST(Matrix, StackOperations)
{
    Matrix a{{1.0, 2.0}};
    Matrix b{{3.0, 4.0}};
    Matrix v = a.vstack(b);
    EXPECT_EQ(v.rows(), 2u);
    EXPECT_EQ(v(1, 1), 4.0);

    Matrix h = a.hstack(b);
    EXPECT_EQ(h.cols(), 4u);
    EXPECT_EQ(h(0, 3), 4.0);
}

TEST(Matrix, DensityAndNonZeros)
{
    Matrix m(2, 2);
    m(0, 0) = 1.0;
    EXPECT_EQ(m.nonZeros(), 1u);
    EXPECT_DOUBLE_EQ(m.density(), 0.25);
    EXPECT_TRUE(m.isUpperTriangular());
    m(1, 0) = 0.5;
    EXPECT_FALSE(m.isUpperTriangular());
}

TEST(MacCounter, CountsMultiplies)
{
    MacCounter::reset();
    Matrix a = Matrix::identity(3);
    Matrix b = Matrix::identity(3);
    {
        MacScope scope;
        (void)(a * b);
        EXPECT_EQ(scope.elapsed(), 27u);
    }
}

// --- Microkernels vs the naive reference --------------------------------
//
// The blocked kernels behind operator*, transpose and the fused
// transposeTimes / timesTranspose variants promise *bit-identical*
// results to the naive reference loops (one ascending-k accumulation
// chain per output element), so these compare with EXPECT_EQ on the
// raw doubles — no tolerance. The promise holds for the scalar kernel
// tier only — SIMD tiers reassociate and are covered by the
// tolerance-based parity suite in test_simd.cpp — so these tests pin
// the scalar table for their lifetime.

namespace {

Matrix
naiveMultiply(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a(i, k) * b(k, j);
            out(i, j) = acc;
        }
    return out;
}

Matrix
naiveTranspose(const Matrix &a)
{
    Matrix out(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            out(j, i) = a(i, j);
    return out;
}

Vector
naiveMultiply(const Matrix &a, const Vector &x)
{
    Vector out(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < a.cols(); ++k)
            acc += a(i, k) * x[k];
        out[i] = acc;
    }
    return out;
}

void
expectBitIdentical(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            EXPECT_EQ(got(i, j), want(i, j))
                << "element (" << i << ", " << j << ")";
}

} // namespace

class KernelShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(KernelShapes, MultiplyAndTransposeMatchNaiveBitForBit)
{
    const kernels::ScopedKernelTier pin(kernels::SimdTier::Scalar);
    const auto [m, k, n] = GetParam();
    std::mt19937 rng(300 + m * 31 + k * 7 + n);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(k, n, rng);

    expectBitIdentical(a * b, naiveMultiply(a, b));
    expectBitIdentical(a.transpose(), naiveTranspose(a));

    const Vector x = randomVector(k, rng);
    const Vector got = a * x;
    const Vector want = naiveMultiply(a, x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "row " << i;
}

TEST_P(KernelShapes, FusedTransposeVariantsMatchNaiveBitForBit)
{
    const kernels::ScopedKernelTier pin(kernels::SimdTier::Scalar);
    const auto [m, k, n] = GetParam();
    std::mt19937 rng(400 + m * 31 + k * 7 + n);
    // For A^T B both operands have m rows; for A B^T both have k cols.
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix left = randomMatrix(m, n, rng);
    const Matrix right = randomMatrix(n, k, rng);

    expectBitIdentical(a.transposeTimes(left),
                       naiveMultiply(naiveTranspose(a), left));
    expectBitIdentical(a.timesTranspose(right),
                       naiveMultiply(a, naiveTranspose(right)));

    const Vector x = randomVector(m, rng);
    const Vector got = a.transposeTimes(x);
    const Vector want = naiveMultiply(naiveTranspose(a), x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "row " << i;
}

TEST_P(KernelShapes, FusedVariantsCountTheSameMacs)
{
    const auto [m, k, n] = GetParam();
    std::mt19937 rng(500 + m * 31 + k * 7 + n);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix left = randomMatrix(m, n, rng);
    const Matrix right = randomMatrix(n, k, rng);
    const Vector x = randomVector(m, rng);

    // Fusing away the materialized transpose must not change the MAC
    // accounting the Sec. 4.3 experiment depends on.
    const auto macsOf = [](const auto &thunk) {
        MacScope scope;
        thunk();
        return scope.elapsed();
    };
    EXPECT_EQ(macsOf([&] { (void)a.transposeTimes(left); }),
              macsOf([&] { (void)(a.transpose() * left); }));
    EXPECT_EQ(macsOf([&] { (void)a.timesTranspose(right); }),
              macsOf([&] { (void)(a * right.transpose()); }));
    EXPECT_EQ(macsOf([&] { (void)a.transposeTimes(x); }),
              macsOf([&] { (void)(a.transpose() * x); }));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 3, 2},
                      std::tuple{2, 1, 3}, std::tuple{3, 5, 1},
                      std::tuple{4, 8, 8}, std::tuple{5, 7, 3},
                      std::tuple{9, 13, 5}, std::tuple{16, 16, 16},
                      std::tuple{17, 19, 23}, std::tuple{33, 40, 37}));

// --- QR property tests over random shapes -------------------------------

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(QrShapes, HouseholderTriangularizesAndPreservesNormalEquations)
{
    const auto [m, n] = GetParam();
    std::mt19937 rng(100 + m * 17 + n);
    Matrix a = randomMatrix(m, n, rng);
    Vector b = randomVector(m, rng);

    QrResult qr = orianna::mat::householderQr(a, b);
    EXPECT_TRUE(qr.r.isUpperTriangular(1e-9));
    // Orthogonal transforms preserve A^T A and A^T b.
    EXPECT_LT(maxDifference(qr.r.transpose() * qr.r, a.transpose() * a),
              1e-9);
    EXPECT_LT(maxDifference(qr.r.transpose() * qr.rhs,
                            a.transpose() * b),
              1e-9);
}

TEST_P(QrShapes, GivensMatchesHouseholderUpToRowSign)
{
    const auto [m, n] = GetParam();
    std::mt19937 rng(200 + m * 17 + n);
    Matrix a = randomMatrix(m, n, rng);
    Vector b = randomVector(m, rng);

    QrResult hh = orianna::mat::householderQr(a, b);
    // Givens QR rotates the augmented [A | b] in place.
    Matrix aug = a.hstack(b.asColumn());
    orianna::mat::givensQr(aug);
    const Matrix r = aug.block(0, 0, m, n);
    const Vector rhs = aug.col(n);
    EXPECT_TRUE(r.isUpperTriangular(1e-9));
    // R^T R and R^T Q^T b are sign-invariant, so compare through the
    // normal equations.
    EXPECT_LT(maxDifference(r.transpose() * r, hh.r.transpose() * hh.r),
              1e-8);
    EXPECT_LT(maxDifference(r.transpose() * rhs,
                            hh.r.transpose() * hh.rhs),
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::pair{1, 1}, std::pair{3, 2}, std::pair{4, 4},
                      std::pair{6, 3}, std::pair{8, 5}, std::pair{12, 7},
                      std::pair{20, 12}, std::pair{5, 5}));

TEST(Qr, LeastSquaresRecoversExactSolution)
{
    std::mt19937 rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        Matrix a = randomMatrix(8, 4, rng);
        Vector x_true = randomVector(4, rng);
        Vector b = a * x_true;
        Vector x = orianna::mat::leastSquares(a, b);
        EXPECT_LT(maxDifference(x, x_true), 1e-8);
    }
}

TEST(Qr, BackSubstituteSolvesTriangularSystem)
{
    Matrix r{{2.0, 1.0, -1.0}, {0.0, 3.0, 0.5}, {0.0, 0.0, 4.0}};
    Vector x_true{1.0, -2.0, 0.5};
    Vector y = r * x_true;
    Vector x = orianna::mat::backSubstitute(r, y);
    EXPECT_LT(maxDifference(x, x_true), 1e-12);
}

TEST(Qr, BackSubstituteRejectsSingular)
{
    Matrix r{{1.0, 1.0}, {0.0, 0.0}};
    EXPECT_THROW(orianna::mat::backSubstitute(r, Vector{1.0, 1.0}),
                 std::runtime_error);
}

TEST(Qr, MismatchedShapesThrow)
{
    Matrix a(3, 2);
    Vector b(2);
    EXPECT_THROW(orianna::mat::householderQr(a, b), std::invalid_argument);
    // An augmented system needs at least its rhs column.
    Matrix no_rhs(3, 0);
    EXPECT_THROW(orianna::mat::givensQr(no_rhs), std::invalid_argument);
}

// givensQr tallies dispatched rotations and MACs locally and counts
// them once per call. On a garage-sized block — rows spanning both
// sides of the dispatch cutoff, some entries already zero — that
// must match a reference loop that counts every rotation as it goes,
// and rotate every value bit identically.
TEST(Qr, GivensBulkAccountingMatchesPerRotationAccounting)
{
    std::mt19937 rng(7);
    Matrix aug = randomMatrix(48, 37, rng);
    for (std::size_t i = 0; i < aug.rows(); i += 5)
        for (std::size_t j = 0; j < 12; ++j)
            aug(i, j) = 0.0;

    // The per-rotation reference: kernels::givensRotate counts each
    // dispatched call, MACs are added per rotation.
    Matrix want = aug;
    const std::uint64_t ref_calls_before =
        kernels::kernelCallCount(kernels::KernelOp::GivensRotate);
    const MacScope ref_macs;
    {
        const std::size_t m = want.rows();
        const std::size_t n = want.cols() - 1;
        double *p = &want(0, 0);
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t i = m; i-- > j + 1;) {
                const double x = want(j, j);
                const double y = want(i, j);
                if (y == 0.0)
                    continue;
                const double hyp = std::hypot(x, y);
                const double c = x / hyp;
                const double s = y / hyp;
                kernels::givensRotate(p + j * want.cols() + j,
                                      p + i * want.cols() + j, c, s,
                                      n - j);
                MacCounter::add(4 * (n - j));
                const double tj = want(j, n);
                const double ti = want(i, n);
                want(j, n) = c * tj + s * ti;
                want(i, n) = -s * tj + c * ti;
                MacCounter::add(4);
                want(i, j) = 0.0;
            }
    }
    const std::uint64_t ref_macs_total = ref_macs.elapsed();
    const std::uint64_t ref_calls =
        kernels::kernelCallCount(kernels::KernelOp::GivensRotate) -
        ref_calls_before;

    Matrix got = aug;
    const std::uint64_t calls_before =
        kernels::kernelCallCount(kernels::KernelOp::GivensRotate);
    const MacScope macs;
    orianna::mat::givensQr(got);
    EXPECT_EQ(macs.elapsed(), ref_macs_total);
    EXPECT_EQ(kernels::kernelCallCount(kernels::KernelOp::GivensRotate) -
                  calls_before,
              ref_calls);
    EXPECT_GT(ref_calls, 0u);
    for (std::size_t i = 0; i < want.rows(); ++i)
        for (std::size_t j = 0; j < want.cols(); ++j)
            EXPECT_EQ(got(i, j), want(i, j)) << i << "," << j;
}

} // namespace
