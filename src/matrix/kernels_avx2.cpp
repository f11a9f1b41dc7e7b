// AVX2+FMA kernel tier. This TU is the only one compiled with
// -mavx2 -mfma (see src/matrix/CMakeLists.txt), so every intrinsic
// stays behind the runtime CPUID check in simd.cpp: the table below
// is never selected unless the host reports avx2+fma.
//
// These kernels trade the scalar tier's single ascending accumulation
// chain for 4-lane accumulators and fused multiply-add, so results
// match the reference only within the DESIGN.md §10 tolerance (a few
// ULP of the absolute-value accumulation), never bit-exactly. Edge
// rows/columns that don't fill a vector fall back to scalar loops
// inside the same kernel; that mixes chain shapes within one output
// matrix, which the tolerance contract explicitly allows. The one
// exception is the Householder sweep, bit-exact with the scalar tier:
// see sweepPanel.

#include "matrix/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace orianna::mat::kernels {

namespace {

/** Sum of the four lanes of @p v. */
inline double
hsum(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

/** Register tile of the gemm family: 4 x 8 outputs, 8 accumulators. */
template <typename LoadA>
inline void
fullTile(const double *b, double *c, std::size_t ldb, std::size_t ldc,
         std::size_t k, LoadA load)
{
    __m256d acc[4][2];
    for (std::size_t ii = 0; ii < 4; ++ii) {
        acc[ii][0] = _mm256_setzero_pd();
        acc[ii][1] = _mm256_setzero_pd();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const double *brow = b + p * ldb;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        for (std::size_t ii = 0; ii < 4; ++ii) {
            const __m256d aval = _mm256_set1_pd(load(ii, p));
            acc[ii][0] = _mm256_fmadd_pd(aval, b0, acc[ii][0]);
            acc[ii][1] = _mm256_fmadd_pd(aval, b1, acc[ii][1]);
        }
    }
    for (std::size_t ii = 0; ii < 4; ++ii) {
        _mm256_storeu_pd(c + ii * ldc, acc[ii][0]);
        _mm256_storeu_pd(c + ii * ldc + 4, acc[ii][1]);
    }
}

/** Scalar edge tile (mr <= 4, nr <= 8) for the ragged borders. */
template <typename LoadA>
inline void
edgeTile(const double *b, double *c, std::size_t ldb, std::size_t ldc,
         std::size_t k, std::size_t mr, std::size_t nr, LoadA load)
{
    double acc[4][8] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const double *brow = b + p * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const double aval = load(ii, p);
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += aval * brow[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

template <typename MakeLoad>
inline void
gemmTiled(const double *b, double *c, std::size_t m, std::size_t k,
          std::size_t n, MakeLoad makeLoad)
{
    const std::size_t m4 = m - m % 4;
    const std::size_t n8 = n - n % 8;
    for (std::size_t i0 = 0; i0 < m4; i0 += 4) {
        for (std::size_t j0 = 0; j0 < n8; j0 += 8)
            fullTile(b + j0, c + i0 * n + j0, n, n, k, makeLoad(i0));
        if (n8 < n)
            edgeTile(b + n8, c + i0 * n + n8, n, n, k, 4, n - n8,
                     makeLoad(i0));
    }
    if (m4 < m)
        for (std::size_t j0 = 0; j0 < n; j0 += 8)
            edgeTile(b + j0, c + m4 * n + j0, n, n, k, m - m4,
                     n - j0 < 8 ? n - j0 : 8, makeLoad(m4));
}

void
gemmAvx2(const double *a, const double *b, double *c, std::size_t m,
         std::size_t k, std::size_t n)
{
    gemmTiled(b, c, m, k, n, [&](std::size_t i0) {
        return [a, k, i0](std::size_t ii, std::size_t p) {
            return a[(i0 + ii) * k + p];
        };
    });
}

void
gemmTransAAvx2(const double *a, const double *b, double *c,
               std::size_t k, std::size_t m, std::size_t n)
{
    gemmTiled(b, c, m, k, n, [&](std::size_t i0) {
        return [a, m, i0](std::size_t ii, std::size_t p) {
            return a[p * m + i0 + ii];
        };
    });
}

double
dotAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const std::size_t n8 = n - n % 8;
    for (std::size_t i = 0; i < n8; i += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                               _mm256_loadu_pd(b + i), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                               _mm256_loadu_pd(b + i + 4), acc1);
    }
    double acc = hsum(_mm256_add_pd(acc0, acc1));
    for (std::size_t i = n8; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
gemmTransBAvx2(const double *a, const double *b, double *c,
               std::size_t m, std::size_t k, std::size_t n)
{
    // c(i, j) = dot(row i of a, row j of b), both contiguous: four
    // output dots share each 4-wide pass over row i.
    const std::size_t k4 = k - k % 4;
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * k;
        std::size_t j0 = 0;
        for (; j0 < n4; j0 += 4) {
            __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                              _mm256_setzero_pd(), _mm256_setzero_pd()};
            for (std::size_t p = 0; p < k4; p += 4) {
                const __m256d av = _mm256_loadu_pd(arow + p);
                for (std::size_t jj = 0; jj < 4; ++jj)
                    acc[jj] = _mm256_fmadd_pd(
                        av, _mm256_loadu_pd(b + (j0 + jj) * k + p),
                        acc[jj]);
            }
            for (std::size_t jj = 0; jj < 4; ++jj) {
                double sum = hsum(acc[jj]);
                const double *brow = b + (j0 + jj) * k;
                for (std::size_t p = k4; p < k; ++p)
                    sum += arow[p] * brow[p];
                c[i * n + j0 + jj] = sum;
            }
        }
        for (; j0 < n; ++j0)
            c[i * n + j0] = dotAvx2(arow, b + j0 * k, k);
    }
}

void
gemvAvx2(const double *a, const double *x, double *y, std::size_t m,
         std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotAvx2(a + i * n, x, n);
}

void
gemvTransAAvx2(const double *a, const double *x, double *y,
               std::size_t m, std::size_t n)
{
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * n;
        const __m256d xi = _mm256_set1_pd(x[i]);
        for (std::size_t j = 0; j < n4; j += 4)
            _mm256_storeu_pd(
                y + j,
                _mm256_fmadd_pd(xi, _mm256_loadu_pd(arow + j),
                                _mm256_loadu_pd(y + j)));
        for (std::size_t j = n4; j < n; ++j)
            y[j] += x[i] * arow[j];
    }
}

double
dotStridedAvx2(const double *a, std::size_t stride_a, const double *b,
               std::size_t stride_b, std::size_t n)
{
    if (stride_a == 1 && stride_b == 1)
        return dotAvx2(a, b, n);
    // Strided operands gather poorly; stay scalar.
    return scalar::dotStrided(a, stride_a, b, stride_b, n);
}

double
fusedSubtractDotAvx2(double acc, const double *a, const double *x,
                     std::size_t n)
{
    return acc - dotAvx2(a, x, n);
}

void
axpyNegStridedAvx2(double *y, std::size_t stride_y, double alpha,
                   const double *x, std::size_t n)
{
    if (stride_y != 1) {
        scalar::axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    const __m256d av = _mm256_set1_pd(alpha);
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < n4; i += 4)
        _mm256_storeu_pd(
            y + i,
            _mm256_fnmadd_pd(av, _mm256_loadu_pd(x + i),
                             _mm256_loadu_pd(y + i)));
    for (std::size_t i = n4; i < n; ++i)
        y[i] -= alpha * x[i];
}

void
givensRotateAvx2(double *rj, double *ri, double c, double s,
                 std::size_t n)
{
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sv = _mm256_set1_pd(s);
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < n4; i += 4) {
        const __m256d a = _mm256_loadu_pd(rj + i);
        const __m256d b = _mm256_loadu_pd(ri + i);
        _mm256_storeu_pd(
            rj + i, _mm256_fmadd_pd(cv, a, _mm256_mul_pd(sv, b)));
        _mm256_storeu_pd(
            ri + i, _mm256_fnmadd_pd(sv, a, _mm256_mul_pd(cv, b)));
    }
    for (std::size_t i = n4; i < n; ++i) {
        const double a = rj[i];
        const double b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
}

// GCC contracts even separate _mm256_mul_pd/_mm256_add_pd intrinsics
// into FMA in this -mfma TU; the bit-exact sweep opts out per function.
#if defined(__GNUC__) && !defined(__clang__)
#define ORIANNA_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define ORIANNA_NO_FP_CONTRACT
#endif

/** The 256-bit operations of the Householder sweep, per precision. */
struct LanesF64
{
    using T = double;
    using V = __m256d;
    static constexpr std::size_t kWidth = 4;
    /** Lanes below @p lanes active (maskload/maskstore operand). */
    static __m256i mask(std::size_t lanes)
    {
        return _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(static_cast<long long>(lanes)),
            _mm256_setr_epi64x(0, 1, 2, 3));
    }
    static V set1(T x) { return _mm256_set1_pd(x); }
    static V load(const T *p) { return _mm256_loadu_pd(p); }
    static void store(T *p, V x) { _mm256_storeu_pd(p, x); }
    static V load(const T *p, __m256i m) { return _mm256_maskload_pd(p, m); }
    static void store(T *p, __m256i m, V x) { _mm256_maskstore_pd(p, m, x); }
    static V add(V a, V b) { return _mm256_add_pd(a, b); }
    static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
    static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
    static V div(V a, V b) { return _mm256_div_pd(a, b); }
};

struct LanesF32
{
    using T = float;
    using V = __m256;
    static constexpr std::size_t kWidth = 8;
    static __m256i mask(std::size_t lanes)
    {
        return _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(lanes)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static V set1(T x) { return _mm256_set1_ps(x); }
    static V load(const T *p) { return _mm256_loadu_ps(p); }
    static void store(T *p, V x) { _mm256_storeu_ps(p, x); }
    static V load(const T *p, __m256i m) { return _mm256_maskload_ps(p, m); }
    static void store(T *p, __m256i m, V x) { _mm256_maskstore_ps(p, m, x); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V div(V a, V b) { return _mm256_div_ps(a, b); }
};

/**
 * One panel of NV vectors of columns of the Householder sweep; the
 * last vector loads and stores only the lanes in @p tail. Lane j of
 * w[q] is column j's chain w += v[i] * a[i][j] over ascending i from
 * +0, the scalar tier's order exactly, and the update is a multiply
 * then a subtract: vectorizing across independent columns changes no
 * element's operations, so the sweep is bit-exact with
 * scalar::householderSweep as long as nothing fuses them. Masked-off
 * lanes are never stored (nor faulted on), whatever they compute.
 */
template <typename L, std::size_t NV>
ORIANNA_NO_FP_CONTRACT inline void
sweepPanel(typename L::T *a, std::size_t lda, const typename L::T *v,
           typename L::V vnorm2, std::size_t m, __m256i tail)
{
    // The q loops must unroll for w to live in registers.
    using V = typename L::V;
    constexpr std::size_t W = L::kWidth;
    V w[NV];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < NV; ++q)
        w[q] = L::set1(0);
    for (std::size_t i = 0; i < m; ++i) {
        const V vi = L::set1(v[i]);
        const typename L::T *row = a + i * lda;
#pragma GCC unroll 8
        for (std::size_t q = 0; q + 1 < NV; ++q)
            w[q] = L::add(w[q], L::mul(vi, L::load(row + q * W)));
        w[NV - 1] = L::add(w[NV - 1],
                           L::mul(vi, L::load(row + (NV - 1) * W, tail)));
    }
    const V two = L::set1(2);
#pragma GCC unroll 8
    for (std::size_t q = 0; q < NV; ++q)
        w[q] = L::div(L::mul(two, w[q]), vnorm2);
    for (std::size_t i = 0; i < m; ++i) {
        const V vi = L::set1(v[i]);
        typename L::T *row = a + i * lda;
#pragma GCC unroll 8
        for (std::size_t q = 0; q + 1 < NV; ++q)
            L::store(row + q * W,
                     L::sub(L::load(row + q * W), L::mul(w[q], vi)));
        typename L::T *last = row + (NV - 1) * W;
        L::store(last, tail,
                 L::sub(L::load(last, tail), L::mul(w[NV - 1], vi)));
    }
}

/**
 * The sweep over n columns: panels of 8 vectors, whose eight
 * independent add chains hide the add latency, then one panel of
 * the 1-8 vectors left, its last vector masked to the columns there.
 */
template <typename L>
ORIANNA_NO_FP_CONTRACT void
householderSweepLanes(typename L::T *a, std::size_t lda,
                      const typename L::T *v, typename L::T vnorm2,
                      std::size_t m, std::size_t n)
{
    const typename L::V vn = L::set1(vnorm2);
    constexpr std::size_t W = L::kWidth;
    std::size_t j = 0;
    for (; j + 8 * W <= n; j += 8 * W)
        sweepPanel<L, 8>(a + j, lda, v, vn, m, L::mask(W));
    if (j == n)
        return;
    const std::size_t rest = n - j;
    const __m256i tail = L::mask(rest - (rest - 1) / W * W);
    a += j;
    switch ((rest + W - 1) / W) {
    case 1:
        return sweepPanel<L, 1>(a, lda, v, vn, m, tail);
    case 2:
        return sweepPanel<L, 2>(a, lda, v, vn, m, tail);
    case 3:
        return sweepPanel<L, 3>(a, lda, v, vn, m, tail);
    case 4:
        return sweepPanel<L, 4>(a, lda, v, vn, m, tail);
    case 5:
        return sweepPanel<L, 5>(a, lda, v, vn, m, tail);
    case 6:
        return sweepPanel<L, 6>(a, lda, v, vn, m, tail);
    case 7:
        return sweepPanel<L, 7>(a, lda, v, vn, m, tail);
    default:
        return sweepPanel<L, 8>(a, lda, v, vn, m, tail);
    }
}

void
householderSweepAvx2(double *a, std::size_t lda, const double *v,
                     double vnorm2, std::size_t m, std::size_t n)
{
    householderSweepLanes<LanesF64>(a, lda, v, vnorm2, m, n);
}

const KernelTable kAvx2Table = {
    SimdTier::Avx2,     gemmAvx2,
    gemmTransAAvx2,     gemmTransBAvx2,
    scalar::transpose,  gemvAvx2,
    gemvTransAAvx2,     dotAvx2,
    dotStridedAvx2,     fusedSubtractDotAvx2,
    axpyNegStridedAvx2, givensRotateAvx2,
    householderSweepAvx2,
};

// --- fp32 tier (DESIGN.md §12) --------------------------------------
//
// Same tiling as the fp64 kernels with 8-lane __m256 registers: each
// 4 x 16 gemm tile covers twice the output of the fp64 4 x 8 tile at
// the same register budget, which is where the fp32 throughput win
// over fp64 comes from (bench_micro_kernels reports both).

/** Sum of the eight lanes of @p v. */
inline float
hsumf(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum = _mm_add_ps(lo, hi);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
    return _mm_cvtss_f32(sum);
}

/** Register tile of the fp32 gemm family: 4 x 16 outputs. */
template <typename LoadA>
inline void
fullTileF(const float *b, float *c, std::size_t ldb, std::size_t ldc,
          std::size_t k, LoadA load)
{
    __m256 acc[4][2];
    for (std::size_t ii = 0; ii < 4; ++ii) {
        acc[ii][0] = _mm256_setzero_ps();
        acc[ii][1] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t ii = 0; ii < 4; ++ii) {
            const __m256 aval = _mm256_set1_ps(load(ii, p));
            acc[ii][0] = _mm256_fmadd_ps(aval, b0, acc[ii][0]);
            acc[ii][1] = _mm256_fmadd_ps(aval, b1, acc[ii][1]);
        }
    }
    for (std::size_t ii = 0; ii < 4; ++ii) {
        _mm256_storeu_ps(c + ii * ldc, acc[ii][0]);
        _mm256_storeu_ps(c + ii * ldc + 8, acc[ii][1]);
    }
}

/** Scalar edge tile (mr <= 4, nr <= 16) for the ragged borders. */
template <typename LoadA>
inline void
edgeTileF(const float *b, float *c, std::size_t ldb, std::size_t ldc,
          std::size_t k, std::size_t mr, std::size_t nr, LoadA load)
{
    float acc[4][16] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float aval = load(ii, p);
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += aval * brow[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

template <typename MakeLoad>
inline void
gemmTiledF(const float *b, float *c, std::size_t m, std::size_t k,
           std::size_t n, MakeLoad makeLoad)
{
    const std::size_t m4 = m - m % 4;
    const std::size_t n16 = n - n % 16;
    for (std::size_t i0 = 0; i0 < m4; i0 += 4) {
        for (std::size_t j0 = 0; j0 < n16; j0 += 16)
            fullTileF(b + j0, c + i0 * n + j0, n, n, k, makeLoad(i0));
        if (n16 < n)
            edgeTileF(b + n16, c + i0 * n + n16, n, n, k, 4, n - n16,
                      makeLoad(i0));
    }
    if (m4 < m)
        for (std::size_t j0 = 0; j0 < n; j0 += 16)
            edgeTileF(b + j0, c + m4 * n + j0, n, n, k, m - m4,
                      n - j0 < 16 ? n - j0 : 16, makeLoad(m4));
}

void
gemmAvx2F(const float *a, const float *b, float *c, std::size_t m,
          std::size_t k, std::size_t n)
{
    gemmTiledF(b, c, m, k, n, [&](std::size_t i0) {
        return [a, k, i0](std::size_t ii, std::size_t p) {
            return a[(i0 + ii) * k + p];
        };
    });
}

void
gemmTransAAvx2F(const float *a, const float *b, float *c,
                std::size_t k, std::size_t m, std::size_t n)
{
    gemmTiledF(b, c, m, k, n, [&](std::size_t i0) {
        return [a, m, i0](std::size_t ii, std::size_t p) {
            return a[p * m + i0 + ii];
        };
    });
}

float
dotAvx2F(const float *a, const float *b, std::size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const std::size_t n16 = n - n % 16;
    for (std::size_t i = 0; i < n16; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    float acc = hsumf(_mm256_add_ps(acc0, acc1));
    for (std::size_t i = n16; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
gemmTransBAvx2F(const float *a, const float *b, float *c,
                std::size_t m, std::size_t k, std::size_t n)
{
    const std::size_t k8 = k - k % 8;
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        std::size_t j0 = 0;
        for (; j0 < n4; j0 += 4) {
            __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                             _mm256_setzero_ps(), _mm256_setzero_ps()};
            for (std::size_t p = 0; p < k8; p += 8) {
                const __m256 av = _mm256_loadu_ps(arow + p);
                for (std::size_t jj = 0; jj < 4; ++jj)
                    acc[jj] = _mm256_fmadd_ps(
                        av, _mm256_loadu_ps(b + (j0 + jj) * k + p),
                        acc[jj]);
            }
            for (std::size_t jj = 0; jj < 4; ++jj) {
                float sum = hsumf(acc[jj]);
                const float *brow = b + (j0 + jj) * k;
                for (std::size_t p = k8; p < k; ++p)
                    sum += arow[p] * brow[p];
                c[i * n + j0 + jj] = sum;
            }
        }
        for (; j0 < n; ++j0)
            c[i * n + j0] = dotAvx2F(arow, b + j0 * k, k);
    }
}

void
gemvAvx2F(const float *a, const float *x, float *y, std::size_t m,
          std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotAvx2F(a + i * n, x, n);
}

void
gemvTransAAvx2F(const float *a, const float *x, float *y,
                std::size_t m, std::size_t n)
{
    const std::size_t n8 = n - n % 8;
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * n;
        const __m256 xi = _mm256_set1_ps(x[i]);
        for (std::size_t j = 0; j < n8; j += 8)
            _mm256_storeu_ps(
                y + j,
                _mm256_fmadd_ps(xi, _mm256_loadu_ps(arow + j),
                                _mm256_loadu_ps(y + j)));
        for (std::size_t j = n8; j < n; ++j)
            y[j] += x[i] * arow[j];
    }
}

float
dotStridedAvx2F(const float *a, std::size_t stride_a, const float *b,
                std::size_t stride_b, std::size_t n)
{
    if (stride_a == 1 && stride_b == 1)
        return dotAvx2F(a, b, n);
    return scalar::dotStrided(a, stride_a, b, stride_b, n);
}

float
fusedSubtractDotAvx2F(float acc, const float *a, const float *x,
                      std::size_t n)
{
    return acc - dotAvx2F(a, x, n);
}

void
axpyNegStridedAvx2F(float *y, std::size_t stride_y, float alpha,
                    const float *x, std::size_t n)
{
    if (stride_y != 1) {
        scalar::axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    const __m256 av = _mm256_set1_ps(alpha);
    const std::size_t n8 = n - n % 8;
    for (std::size_t i = 0; i < n8; i += 8)
        _mm256_storeu_ps(
            y + i,
            _mm256_fnmadd_ps(av, _mm256_loadu_ps(x + i),
                             _mm256_loadu_ps(y + i)));
    for (std::size_t i = n8; i < n; ++i)
        y[i] -= alpha * x[i];
}

void
givensRotateAvx2F(float *rj, float *ri, float c, float s,
                  std::size_t n)
{
    const __m256 cv = _mm256_set1_ps(c);
    const __m256 sv = _mm256_set1_ps(s);
    const std::size_t n8 = n - n % 8;
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256 a = _mm256_loadu_ps(rj + i);
        const __m256 b = _mm256_loadu_ps(ri + i);
        _mm256_storeu_ps(
            rj + i, _mm256_fmadd_ps(cv, a, _mm256_mul_ps(sv, b)));
        _mm256_storeu_ps(
            ri + i, _mm256_fnmadd_ps(sv, a, _mm256_mul_ps(cv, b)));
    }
    for (std::size_t i = n8; i < n; ++i) {
        const float a = rj[i];
        const float b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
}

void
householderSweepAvx2F(float *a, std::size_t lda, const float *v,
                      float vnorm2, std::size_t m, std::size_t n)
{
    householderSweepLanes<LanesF32>(a, lda, v, vnorm2, m, n);
}

const KernelTable32 kAvx2Table32 = {
    SimdTier::Avx2,      gemmAvx2F,
    gemmTransAAvx2F,     gemmTransBAvx2F,
    scalar::transpose,   gemvAvx2F,
    gemvTransAAvx2F,     dotAvx2F,
    dotStridedAvx2F,     fusedSubtractDotAvx2F,
    axpyNegStridedAvx2F, givensRotateAvx2F,
    householderSweepAvx2F,
};

} // namespace

const KernelTable *
avx2Table()
{
    return &kAvx2Table;
}

const KernelTable32 *
avx2Table32()
{
    return &kAvx2Table32;
}

} // namespace orianna::mat::kernels

#else // The toolchain compiled this TU without AVX2 flags.

namespace orianna::mat::kernels {

const KernelTable *
avx2Table()
{
    return nullptr;
}

const KernelTable32 *
avx2Table32()
{
    return nullptr;
}

} // namespace orianna::mat::kernels

#endif
