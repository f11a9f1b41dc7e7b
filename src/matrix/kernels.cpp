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
// Both precisions (DESIGN.md §12) share one set of templated bodies;
// the scalar:: overload pairs below instantiate them for double and
// float, so the fp64 codegen is unchanged by the fp32 addition.

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

template <typename T>
void
gemmImpl(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
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
gemmTransAImpl(const T *a, const T *b, T *c, std::size_t k,
               std::size_t m, std::size_t n)
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
gemmTransBImpl(const T *a, const T *b, T *c, std::size_t m,
               std::size_t k, std::size_t n)
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
transposeImpl(const T *a, T *out, std::size_t m, std::size_t n)
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
dotImpl(const T *a, const T *b, std::size_t n)
{
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

template <typename T>
void
gemvImpl(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotImpl(a + i * n, x, n);
}

template <typename T>
void
gemvTransAImpl(const T *a, const T *x, T *y, std::size_t m,
               std::size_t n)
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
dotStridedImpl(const T *a, std::size_t stride_a, const T *b,
               std::size_t stride_b, std::size_t n)
{
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i * stride_a] * b[i * stride_b];
    return acc;
}

template <typename T>
T
fusedSubtractDotImpl(T acc, const T *a, const T *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc -= a[i] * x[i];
    return acc;
}

template <typename T>
void
axpyNegStridedImpl(T *y, std::size_t stride_y, T alpha, const T *x,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i * stride_y] -= alpha * x[i];
}

template <typename T>
void
givensRotateImpl(T *rj, T *ri, T c, T s, std::size_t n)
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
householderSweepImpl(T *a, std::size_t lda, const T *v, T vnorm2,
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

} // namespace

namespace scalar {

void
gemm(const double *a, const double *b, double *c, std::size_t m,
     std::size_t k, std::size_t n)
{
    gemmImpl(a, b, c, m, k, n);
}

void
gemm(const float *a, const float *b, float *c, std::size_t m,
     std::size_t k, std::size_t n)
{
    gemmImpl(a, b, c, m, k, n);
}

void
gemmTransA(const double *a, const double *b, double *c, std::size_t k,
           std::size_t m, std::size_t n)
{
    gemmTransAImpl(a, b, c, k, m, n);
}

void
gemmTransA(const float *a, const float *b, float *c, std::size_t k,
           std::size_t m, std::size_t n)
{
    gemmTransAImpl(a, b, c, k, m, n);
}

void
gemmTransB(const double *a, const double *b, double *c, std::size_t m,
           std::size_t k, std::size_t n)
{
    gemmTransBImpl(a, b, c, m, k, n);
}

void
gemmTransB(const float *a, const float *b, float *c, std::size_t m,
           std::size_t k, std::size_t n)
{
    gemmTransBImpl(a, b, c, m, k, n);
}

void
transpose(const double *a, double *out, std::size_t m, std::size_t n)
{
    transposeImpl(a, out, m, n);
}

void
transpose(const float *a, float *out, std::size_t m, std::size_t n)
{
    transposeImpl(a, out, m, n);
}

void
gemv(const double *a, const double *x, double *y, std::size_t m,
     std::size_t n)
{
    gemvImpl(a, x, y, m, n);
}

void
gemv(const float *a, const float *x, float *y, std::size_t m,
     std::size_t n)
{
    gemvImpl(a, x, y, m, n);
}

void
gemvTransA(const double *a, const double *x, double *y, std::size_t m,
           std::size_t n)
{
    gemvTransAImpl(a, x, y, m, n);
}

void
gemvTransA(const float *a, const float *x, float *y, std::size_t m,
           std::size_t n)
{
    gemvTransAImpl(a, x, y, m, n);
}

double
dot(const double *a, const double *b, std::size_t n)
{
    return dotImpl(a, b, n);
}

float
dot(const float *a, const float *b, std::size_t n)
{
    return dotImpl(a, b, n);
}

double
dotStrided(const double *a, std::size_t stride_a, const double *b,
           std::size_t stride_b, std::size_t n)
{
    return dotStridedImpl(a, stride_a, b, stride_b, n);
}

float
dotStrided(const float *a, std::size_t stride_a, const float *b,
           std::size_t stride_b, std::size_t n)
{
    return dotStridedImpl(a, stride_a, b, stride_b, n);
}

double
fusedSubtractDot(double acc, const double *a, const double *x,
                 std::size_t n)
{
    return fusedSubtractDotImpl(acc, a, x, n);
}

float
fusedSubtractDot(float acc, const float *a, const float *x,
                 std::size_t n)
{
    return fusedSubtractDotImpl(acc, a, x, n);
}

void
axpyNegStrided(double *y, std::size_t stride_y, double alpha,
               const double *x, std::size_t n)
{
    axpyNegStridedImpl(y, stride_y, alpha, x, n);
}

void
axpyNegStrided(float *y, std::size_t stride_y, float alpha,
               const float *x, std::size_t n)
{
    axpyNegStridedImpl(y, stride_y, alpha, x, n);
}

void
givensRotate(double *rj, double *ri, double c, double s, std::size_t n)
{
    givensRotateImpl(rj, ri, c, s, n);
}

void
givensRotate(float *rj, float *ri, float c, float s, std::size_t n)
{
    givensRotateImpl(rj, ri, c, s, n);
}

void
householderSweep(double *a, std::size_t lda, const double *v,
                 double vnorm2, std::size_t m, std::size_t n)
{
    householderSweepImpl(a, lda, v, vnorm2, m, n);
}

void
householderSweep(float *a, std::size_t lda, const float *v,
                 float vnorm2, std::size_t m, std::size_t n)
{
    householderSweepImpl(a, lda, v, vnorm2, m, n);
}

} // namespace scalar

} // namespace orianna::mat::kernels
