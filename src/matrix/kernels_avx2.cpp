// AVX2+FMA kernel tier. This TU is the only one compiled with
// -mavx2 -mfma (see src/matrix/CMakeLists.txt), so every intrinsic
// stays behind the runtime CPUID check in simd.cpp: the tables below
// are never selected unless the host reports avx2+fma.
//
// These kernels trade the scalar tier's single ascending accumulation
// chain for vector accumulators and fused multiply-add, so results
// match the reference only within the DESIGN.md §10 tolerance (a few
// ULP of the absolute-value accumulation), never bit-exactly. Edge
// rows/columns that don't fill a vector fall back to scalar loops
// inside the same kernel; that mixes chain shapes within one output
// matrix, which the tolerance contract explicitly allows. The one
// exception is the Householder sweep, bit-exact with the scalar tier:
// see sweepPanel.
//
// Each kernel is written once over a lane-traits struct (LanesF64:
// 4 doubles per __m256d, LanesF32: 8 floats per __m256) and the two
// tables instantiate it per precision (DESIGN.md §12). The fp32 gemm
// tile covers 4 x 16 outputs against fp64's 4 x 8 at the same register
// budget, which is where the fp32 throughput win over fp64 comes from
// (bench_micro_kernels reports both).

#include "matrix/simd.hpp"

#include <immintrin.h>

namespace orianna::mat::kernels {

namespace {

/** The 256-bit operations of the kernels below, per precision. */
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
    static V zero() { return _mm256_setzero_pd(); }
    static V set1(T x) { return _mm256_set1_pd(x); }
    static V load(const T *p) { return _mm256_loadu_pd(p); }
    static void store(T *p, V x) { _mm256_storeu_pd(p, x); }
    static V load(const T *p, __m256i m) { return _mm256_maskload_pd(p, m); }
    static void store(T *p, __m256i m, V x) { _mm256_maskstore_pd(p, m, x); }
    static V add(V a, V b) { return _mm256_add_pd(a, b); }
    static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
    static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
    static V div(V a, V b) { return _mm256_div_pd(a, b); }
    /** a * b + c with one rounding. */
    static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
    /** c - a * b with one rounding. */
    static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
    /** Sum of the four lanes of @p v. */
    static T hsum(V v)
    {
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        const __m128d pair = _mm_add_pd(lo, hi);
        const __m128d swapped = _mm_unpackhi_pd(pair, pair);
        return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
    }
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
    static V zero() { return _mm256_setzero_ps(); }
    static V set1(T x) { return _mm256_set1_ps(x); }
    static V load(const T *p) { return _mm256_loadu_ps(p); }
    static void store(T *p, V x) { _mm256_storeu_ps(p, x); }
    static V load(const T *p, __m256i m) { return _mm256_maskload_ps(p, m); }
    static void store(T *p, __m256i m, V x) { _mm256_maskstore_ps(p, m, x); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V div(V a, V b) { return _mm256_div_ps(a, b); }
    static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
    static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
    /** Sum of the eight lanes of @p v. */
    static T hsum(V v)
    {
        const __m128 lo = _mm256_castps256_ps128(v);
        const __m128 hi = _mm256_extractf128_ps(v, 1);
        __m128 sum = _mm_add_ps(lo, hi);
        sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
        sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
        return _mm_cvtss_f32(sum);
    }
};

/** Register tile of the gemm family: 4 rows x 2 vectors, 8 accumulators. */
template <typename L, typename LoadA>
inline void
fullTile(const typename L::T *b, typename L::T *c, std::size_t ldb,
         std::size_t ldc, std::size_t k, LoadA load)
{
    using V = typename L::V;
    constexpr std::size_t W = L::kWidth;
    V acc[4][2];
    for (std::size_t ii = 0; ii < 4; ++ii) {
        acc[ii][0] = L::zero();
        acc[ii][1] = L::zero();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const typename L::T *brow = b + p * ldb;
        const V b0 = L::load(brow);
        const V b1 = L::load(brow + W);
        for (std::size_t ii = 0; ii < 4; ++ii) {
            const V aval = L::set1(load(ii, p));
            acc[ii][0] = L::fmadd(aval, b0, acc[ii][0]);
            acc[ii][1] = L::fmadd(aval, b1, acc[ii][1]);
        }
    }
    for (std::size_t ii = 0; ii < 4; ++ii) {
        L::store(c + ii * ldc, acc[ii][0]);
        L::store(c + ii * ldc + W, acc[ii][1]);
    }
}

/** Scalar edge tile (mr <= 4, nr <= 2 vectors) for the ragged borders. */
template <typename L, typename LoadA>
inline void
edgeTile(const typename L::T *b, typename L::T *c, std::size_t ldb,
         std::size_t ldc, std::size_t k, std::size_t mr, std::size_t nr,
         LoadA load)
{
    using T = typename L::T;
    T acc[4][2 * L::kWidth] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const T *brow = b + p * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const T aval = load(ii, p);
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += aval * brow[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

template <typename L, typename MakeLoad>
inline void
gemmTiled(const typename L::T *b, typename L::T *c, std::size_t m,
          std::size_t k, std::size_t n, MakeLoad makeLoad)
{
    constexpr std::size_t NR = 2 * L::kWidth;
    const std::size_t m4 = m - m % 4;
    const std::size_t nfull = n - n % NR;
    for (std::size_t i0 = 0; i0 < m4; i0 += 4) {
        for (std::size_t j0 = 0; j0 < nfull; j0 += NR)
            fullTile<L>(b + j0, c + i0 * n + j0, n, n, k, makeLoad(i0));
        if (nfull < n)
            edgeTile<L>(b + nfull, c + i0 * n + nfull, n, n, k, 4,
                        n - nfull, makeLoad(i0));
    }
    if (m4 < m)
        for (std::size_t j0 = 0; j0 < n; j0 += NR)
            edgeTile<L>(b + j0, c + m4 * n + j0, n, n, k, m - m4,
                        n - j0 < NR ? n - j0 : NR, makeLoad(m4));
}

template <typename L, typename T = typename L::T>
void
gemmAvx2(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
         std::size_t n)
{
    gemmTiled<L>(b, c, m, k, n, [&](std::size_t i0) {
        return [a, k, i0](std::size_t ii, std::size_t p) {
            return a[(i0 + ii) * k + p];
        };
    });
}

template <typename L, typename T = typename L::T>
void
gemmTransAAvx2(const T *a, const T *b, T *c, std::size_t k,
               std::size_t m, std::size_t n)
{
    gemmTiled<L>(b, c, m, k, n, [&](std::size_t i0) {
        return [a, m, i0](std::size_t ii, std::size_t p) {
            return a[p * m + i0 + ii];
        };
    });
}

template <typename L, typename T = typename L::T>
T
dotAvx2(const T *a, const T *b, std::size_t n)
{
    using V = typename L::V;
    constexpr std::size_t W = L::kWidth;
    V acc0 = L::zero();
    V acc1 = L::zero();
    const std::size_t nfull = n - n % (2 * W);
    for (std::size_t i = 0; i < nfull; i += 2 * W) {
        acc0 = L::fmadd(L::load(a + i), L::load(b + i), acc0);
        acc1 = L::fmadd(L::load(a + i + W), L::load(b + i + W), acc1);
    }
    T acc = L::hsum(L::add(acc0, acc1));
    for (std::size_t i = nfull; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

template <typename L, typename T = typename L::T>
void
gemmTransBAvx2(const T *a, const T *b, T *c, std::size_t m,
               std::size_t k, std::size_t n)
{
    // c(i, j) = dot(row i of a, row j of b), both contiguous: four
    // output dots share each one-vector pass over row i.
    using V = typename L::V;
    constexpr std::size_t W = L::kWidth;
    const std::size_t kfull = k - k % W;
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < m; ++i) {
        const T *arow = a + i * k;
        std::size_t j0 = 0;
        for (; j0 < n4; j0 += 4) {
            V acc[4] = {L::zero(), L::zero(), L::zero(), L::zero()};
            for (std::size_t p = 0; p < kfull; p += W) {
                const V av = L::load(arow + p);
                for (std::size_t jj = 0; jj < 4; ++jj)
                    acc[jj] = L::fmadd(
                        av, L::load(b + (j0 + jj) * k + p), acc[jj]);
            }
            for (std::size_t jj = 0; jj < 4; ++jj) {
                T sum = L::hsum(acc[jj]);
                const T *brow = b + (j0 + jj) * k;
                for (std::size_t p = kfull; p < k; ++p)
                    sum += arow[p] * brow[p];
                c[i * n + j0 + jj] = sum;
            }
        }
        for (; j0 < n; ++j0)
            c[i * n + j0] = dotAvx2<L>(arow, b + j0 * k, k);
    }
}

template <typename L, typename T = typename L::T>
void
gemvAvx2(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotAvx2<L>(a + i * n, x, n);
}

template <typename L, typename T = typename L::T>
void
gemvTransAAvx2(const T *a, const T *x, T *y, std::size_t m,
               std::size_t n)
{
    constexpr std::size_t W = L::kWidth;
    const std::size_t nfull = n - n % W;
    for (std::size_t i = 0; i < m; ++i) {
        const T *arow = a + i * n;
        const typename L::V xi = L::set1(x[i]);
        for (std::size_t j = 0; j < nfull; j += W)
            L::store(y + j,
                     L::fmadd(xi, L::load(arow + j), L::load(y + j)));
        for (std::size_t j = nfull; j < n; ++j)
            y[j] += x[i] * arow[j];
    }
}

template <typename L, typename T = typename L::T>
T
dotStridedAvx2(const T *a, std::size_t stride_a, const T *b,
               std::size_t stride_b, std::size_t n)
{
    if (stride_a == 1 && stride_b == 1)
        return dotAvx2<L>(a, b, n);
    // Strided operands gather poorly; stay scalar.
    return scalar::dotStrided(a, stride_a, b, stride_b, n);
}

template <typename L, typename T = typename L::T>
T
fusedSubtractDotAvx2(T acc, const T *a, const T *x, std::size_t n)
{
    return acc - dotAvx2<L>(a, x, n);
}

template <typename L, typename T = typename L::T>
void
axpyNegStridedAvx2(T *y, std::size_t stride_y, T alpha, const T *x,
                   std::size_t n)
{
    if (stride_y != 1) {
        scalar::axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    constexpr std::size_t W = L::kWidth;
    const typename L::V av = L::set1(alpha);
    const std::size_t nfull = n - n % W;
    for (std::size_t i = 0; i < nfull; i += W)
        L::store(y + i, L::fnmadd(av, L::load(x + i), L::load(y + i)));
    for (std::size_t i = nfull; i < n; ++i)
        y[i] -= alpha * x[i];
}

template <typename L, typename T = typename L::T>
void
givensRotateAvx2(T *rj, T *ri, T c, T s, std::size_t n)
{
    using V = typename L::V;
    constexpr std::size_t W = L::kWidth;
    const V cv = L::set1(c);
    const V sv = L::set1(s);
    const std::size_t nfull = n - n % W;
    for (std::size_t i = 0; i < nfull; i += W) {
        const V a = L::load(rj + i);
        const V b = L::load(ri + i);
        L::store(rj + i, L::fmadd(cv, a, L::mul(sv, b)));
        L::store(ri + i, L::fnmadd(sv, a, L::mul(cv, b)));
    }
    for (std::size_t i = nfull; i < n; ++i) {
        const T a = rj[i];
        const T b = ri[i];
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
        w[q] = L::zero();
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
template <typename L, typename T = typename L::T>
ORIANNA_NO_FP_CONTRACT void
householderSweepAvx2(T *a, std::size_t lda, const T *v, T vnorm2,
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

template <typename L>
const KernelTableT<typename L::T> kAvx2Table = {
    SimdTier::Avx2,            gemmAvx2<L>,
    gemmTransAAvx2<L>,         gemmTransBAvx2<L>,
    scalar::transpose,         gemvAvx2<L>,
    gemvTransAAvx2<L>,         dotAvx2<L>,
    dotStridedAvx2<L>,         fusedSubtractDotAvx2<L>,
    axpyNegStridedAvx2<L>,     givensRotateAvx2<L>,
    householderSweepAvx2<L>,
};

} // namespace

const KernelTable *
avx2Table()
{
    return &kAvx2Table<LanesF64>;
}

const KernelTable32 *
avx2Table32()
{
    return &kAvx2Table<LanesF32>;
}

} // namespace orianna::mat::kernels
