// Scalar reference kernels: the always-compiled tier of the SIMD
// dispatch layer (simd.hpp, DESIGN.md §10). Every function here keeps
// the exact floating-point accumulation order of the naive loops it
// replaces — each output element is a single dependency chain over
// ascending inner index — so this tier is bit-identical to the
// reference for finite inputs, the property the runtime relies on for
// byte-identical schedules and deltas. Speed comes from register
// tiling (outputs written once), pointer arithmetic and cache-blocked
// traversal only; no reassociation.
//
// Both precisions (DESIGN.md §12) share one templated body per
// kernel. simd.hpp declares the scalar:: templates; this TU holds the
// only definitions and instantiates them explicitly for double and
// float at its end. A definition in a header would also be
// instantiated in the -mfma AVX2 TU, where GCC contracts
// `acc += a * b` into FMA: one specialization with two bodies (an ODR
// violation) whose linked copy could change scalar-tier bits.

#include "matrix/simd.hpp"

#include <algorithm>

namespace orianna::mat::kernels {

namespace {

// Register-tile shape of the GEMM microkernels. MR x NR accumulators
// live in registers for the whole k loop and are stored exactly once
// (write-once), so the output is never re-read from memory and each
// element remains a single accumulation chain over ascending k.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 8;

/**
 * Generic edge tile: mr x nr accumulators (mr <= MR, nr <= NR) over
 * the full k range. load(ii, p) supplies a(i0+ii, p) so the same body
 * serves the straight and transposed-A kernels.
 */
template <typename T, typename LoadA>
inline void
tile(const T *b, T *c, std::size_t ldb, std::size_t ldc, std::size_t k,
     std::size_t mr, std::size_t nr, LoadA load)
{
    T acc[MR][NR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const T *brow = b + p * ldb;
        T avals[MR];
        for (std::size_t ii = 0; ii < mr; ++ii)
            avals[ii] = load(ii, p);
        for (std::size_t ii = 0; ii < mr; ++ii)
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += avals[ii] * brow[jj];
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

} // namespace

namespace scalar {

template <typename T>
void
gemm(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
     std::size_t n)
{
    for (std::size_t i0 = 0; i0 < m; i0 += MR) {
        const std::size_t mr = std::min(MR, m - i0);
        for (std::size_t j0 = 0; j0 < n; j0 += NR) {
            const std::size_t nr = std::min(NR, n - j0);
            tile(b + j0, c + i0 * n + j0, n, n, k, mr, nr,
                 [&](std::size_t ii, std::size_t p) {
                     return a[(i0 + ii) * k + p];
                 });
        }
    }
}

template <typename T>
void
gemmTransA(const T *a, const T *b, T *c, std::size_t k, std::size_t m,
           std::size_t n)
{
    for (std::size_t i0 = 0; i0 < m; i0 += MR) {
        const std::size_t mr = std::min(MR, m - i0);
        for (std::size_t j0 = 0; j0 < n; j0 += NR) {
            const std::size_t nr = std::min(NR, n - j0);
            // a^T(i, p) = a(p, i): consecutive ii are adjacent in
            // memory, so the operand loads stay contiguous.
            tile(b + j0, c + i0 * n + j0, n, n, k, mr, nr,
                 [&](std::size_t ii, std::size_t p) {
                     return a[p * m + i0 + ii];
                 });
        }
    }
}

template <typename T>
void
gemmTransB(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
           std::size_t n)
{
    // c(i, j) is a dot of row i of a with row j of b — both
    // contiguous. Tile over j so NR output dots share each pass over
    // row i of a.
    for (std::size_t i = 0; i < m; ++i) {
        const T *arow = a + i * k;
        for (std::size_t j0 = 0; j0 < n; j0 += NR) {
            const std::size_t nr = std::min(NR, n - j0);
            T acc[NR] = {};
            for (std::size_t p = 0; p < k; ++p) {
                const T aval = arow[p];
                for (std::size_t jj = 0; jj < nr; ++jj)
                    acc[jj] += aval * b[(j0 + jj) * k + p];
            }
            for (std::size_t jj = 0; jj < nr; ++jj)
                c[i * n + j0 + jj] = acc[jj];
        }
    }
}

template <typename T>
void
transpose(const T *a, T *out, std::size_t m, std::size_t n)
{
    // Square blocking keeps one side of every block in cache; 32x32
    // doubles = 8 KiB per operand block.
    constexpr std::size_t B = 32;
    for (std::size_t i0 = 0; i0 < m; i0 += B) {
        const std::size_t i1 = std::min(i0 + B, m);
        for (std::size_t j0 = 0; j0 < n; j0 += B) {
            const std::size_t j1 = std::min(j0 + B, n);
            for (std::size_t i = i0; i < i1; ++i)
                for (std::size_t j = j0; j < j1; ++j)
                    out[j * m + i] = a[i * n + j];
        }
    }
}

template <typename T>
T
dot(const T *a, const T *b, std::size_t n)
{
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

template <typename T>
void
gemv(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dot(a + i * n, x, n);
}

template <typename T>
void
gemvTransA(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    // i outer keeps the accumulation over ascending i per output —
    // the same order as materializing a^T — while streaming the rows
    // of a contiguously.
    for (std::size_t i = 0; i < m; ++i) {
        const T *arow = a + i * n;
        const T xi = x[i];
        for (std::size_t j = 0; j < n; ++j)
            y[j] += xi * arow[j];
    }
}

template <typename T>
T
dotStrided(const T *a, std::size_t stride_a, const T *b,
           std::size_t stride_b, std::size_t n)
{
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i * stride_a] * b[i * stride_b];
    return acc;
}

template <typename T>
T
fusedSubtractDot(T acc, const T *a, const T *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc -= a[i] * x[i];
    return acc;
}

template <typename T>
void
axpyNegStrided(T *y, std::size_t stride_y, T alpha, const T *x,
               std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i * stride_y] -= alpha * x[i];
}

template <typename T>
void
givensRotate(T *rj, T *ri, T c, T s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const T a = rj[i];
        const T b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
}

template <typename T>
void
householderSweep(T *a, std::size_t lda, const T *v, T vnorm2,
                 std::size_t m, std::size_t n)
{
    // Row sweeps over panels of NR columns: the rows stream through
    // twice per panel (projections w, then the update) along
    // contiguous memory, and each w[jj] is the single ascending chain
    // the column-at-a-time dot/axpy pair computes.
    for (std::size_t j0 = 0; j0 < n; j0 += NR) {
        const std::size_t nr = std::min(NR, n - j0);
        T w[NR] = {};
        for (std::size_t i = 0; i < m; ++i) {
            const T *row = a + i * lda + j0;
            for (std::size_t jj = 0; jj < nr; ++jj)
                w[jj] += v[i] * row[jj];
        }
        for (std::size_t jj = 0; jj < nr; ++jj)
            w[jj] = T(2) * w[jj] / vnorm2;
        for (std::size_t i = 0; i < m; ++i) {
            T *row = a + i * lda + j0;
            for (std::size_t jj = 0; jj < nr; ++jj)
                row[jj] -= w[jj] * v[i];
        }
    }
}

// The only instantiations of the scalar tier (see the top of the file).
#define ORIANNA_SCALAR_KERNELS(T)                                      \
    template void gemm(const T *, const T *, T *, std::size_t,         \
                       std::size_t, std::size_t);                      \
    template void gemmTransA(const T *, const T *, T *, std::size_t,   \
                             std::size_t, std::size_t);                \
    template void gemmTransB(const T *, const T *, T *, std::size_t,   \
                             std::size_t, std::size_t);                \
    template void transpose(const T *, T *, std::size_t, std::size_t); \
    template void gemv(const T *, const T *, T *, std::size_t,         \
                       std::size_t);                                   \
    template void gemvTransA(const T *, const T *, T *, std::size_t,   \
                             std::size_t);                             \
    template T dot(const T *, const T *, std::size_t);                 \
    template T dotStrided(const T *, std::size_t, const T *,           \
                          std::size_t, std::size_t);                   \
    template T fusedSubtractDot(T, const T *, const T *, std::size_t); \
    template void axpyNegStrided(T *, std::size_t, T, const T *,       \
                                 std::size_t);                         \
    template void givensRotate(T *, T *, T, T, std::size_t);           \
    template void householderSweep(T *, std::size_t, const T *, T,     \
                                   std::size_t, std::size_t);

ORIANNA_SCALAR_KERNELS(double)
ORIANNA_SCALAR_KERNELS(float)

#undef ORIANNA_SCALAR_KERNELS

} // namespace scalar

} // namespace orianna::mat::kernels
