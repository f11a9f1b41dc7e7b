#pragma once

#include <cstddef>

#include "matrix/simd.hpp"

namespace orianna::mat::kernels {

/**
 * Dense microkernels shared by the Matrix operators and the QR /
 * back-substitution paths.
 *
 * Since the SIMD layer (simd.hpp, DESIGN.md §10) every entry point
 * here is a dispatcher: it counts the call and forwards to the active
 * KernelTable, selected once at startup (scalar reference, AVX2,
 * NEON, ... — ORIANNA_SIMD overrides). Under the scalar table each
 * output element is a single dependency chain over ascending inner
 * index, bit-identical to the naive reference loops — the property
 * the runtime relies on for byte-identical schedules and deltas.
 * Fast-path tables may reassociate the chains (wide accumulators,
 * FMA) and match the reference only within the documented tolerance.
 *
 * Every entry point is templated on the scalar type (double = the
 * reference precision, float = the fp32 accelerator mode, DESIGN.md
 * §12) and dispatches through the active table of that precision;
 * both tables always belong to the same tier.
 *
 * All matrices are row-major. Output buffers must be zero-initialized
 * where the kernel accumulates (gemm, gemmTransA, gemv).
 *
 * The short-vector helpers (dot, dotStrided, fusedSubtractDot,
 * axpyNegStrided, givensRotate) and householderSweep only dispatch
 * above kMicroDispatchCutoff elements: below it the inlined scalar loop
 * beats any indirect call, and the scalar loop is bit-identical to
 * the reference chain, so the parity contract is unaffected.
 */

/** Below this length the inline scalar loop wins over dispatch. */
inline constexpr std::size_t kMicroDispatchCutoff = 16;

/** c (m x n) += a (m x k) * b (k x n); c must start zeroed. */
template <typename T>
inline void
gemm(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
     std::size_t n)
{
    countKernelCall(KernelOp::Gemm);
    activeKernelsT<T>().gemm(a, b, c, m, k, n);
}

/**
 * c (m x n) += a^T * b with a stored k x m, b stored k x n; c must
 * start zeroed. The fused transpose-multiply: equivalent to
 * materializing a^T and calling gemm, without the copy.
 */
template <typename T>
inline void
gemmTransA(const T *a, const T *b, T *c, std::size_t k, std::size_t m,
           std::size_t n)
{
    countKernelCall(KernelOp::GemmTransA);
    activeKernelsT<T>().gemmTransA(a, b, c, k, m, n);
}

/**
 * c (m x n) += a * b^T with a stored m x k, b stored n x k; c must
 * start zeroed. Both operands stream along contiguous rows.
 */
template <typename T>
inline void
gemmTransB(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
           std::size_t n)
{
    countKernelCall(KernelOp::GemmTransB);
    activeKernelsT<T>().gemmTransB(a, b, c, m, k, n);
}

/** out (n x m) = transpose of a (m x n), cache-blocked. */
template <typename T>
inline void
transpose(const T *a, T *out, std::size_t m, std::size_t n)
{
    countKernelCall(KernelOp::Transpose);
    activeKernelsT<T>().transpose(a, out, m, n);
}

/** y (m) = a (m x n) * x (n). */
template <typename T>
inline void
gemv(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    countKernelCall(KernelOp::Gemv);
    activeKernelsT<T>().gemv(a, x, y, m, n);
}

/** y (n) += a^T x with a stored m x n, x of size m; y must start zeroed. */
template <typename T>
inline void
gemvTransA(const T *a, const T *x, T *y, std::size_t m, std::size_t n)
{
    countKernelCall(KernelOp::GemvTransA);
    activeKernelsT<T>().gemvTransA(a, x, y, m, n);
}

/** Dot product over ascending index (single chain below the cutoff). */
template <typename T>
inline T
dot(const T *a, const T *b, std::size_t n)
{
    if (n >= kMicroDispatchCutoff) {
        countKernelCall(KernelOp::Dot);
        return activeKernelsT<T>().dot(a, b, n);
    }
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

/** Dot product with strided operands (e.g. a matrix column). */
template <typename T>
inline T
dotStrided(const T *a, std::size_t stride_a, const T *b,
           std::size_t stride_b, std::size_t n)
{
    if (n >= kMicroDispatchCutoff) {
        countKernelCall(KernelOp::DotStrided);
        return activeKernelsT<T>().dotStrided(a, stride_a, b, stride_b,
                                              n);
    }
    T acc = T(0);
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i * stride_a] * b[i * stride_b];
    return acc;
}

/** acc - sum_i a[i] * x[i], subtracting in ascending order (back-sub row). */
template <typename T>
inline T
fusedSubtractDot(T acc, const T *a, const T *x, std::size_t n)
{
    if (n >= kMicroDispatchCutoff) {
        countKernelCall(KernelOp::FusedSubtractDot);
        return activeKernelsT<T>().fusedSubtractDot(acc, a, x, n);
    }
    for (std::size_t i = 0; i < n; ++i)
        acc -= a[i] * x[i];
    return acc;
}

/** y[i] -= alpha * x[i] over a strided destination (Householder update). */
template <typename T>
inline void
axpyNegStrided(T *y, std::size_t stride_y, T alpha, const T *x,
               std::size_t n)
{
    if (n >= kMicroDispatchCutoff) {
        countKernelCall(KernelOp::AxpyNegStrided);
        activeKernelsT<T>().axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        y[i * stride_y] -= alpha * x[i];
}

/**
 * givensRotate through an already-loaded @p table, uncounted: returns
 * whether the call dispatched, for the caller to count in bulk
 * (countKernelCalls). Rotation loops load the table once per call.
 */
template <typename T>
inline bool
givensRotateWith(const KernelTableT<T> &table, T *rj, T *ri, T c, T s,
                 std::size_t n)
{
    if (n >= kMicroDispatchCutoff) {
        table.givensRotate(rj, ri, c, s, n);
        return true;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const T a = rj[i];
        const T b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
    return false;
}

/** In-place Givens rotation of two row segments: (rj, ri) <- G(c,s). */
template <typename T>
inline void
givensRotate(T *rj, T *ri, T c, T s, std::size_t n)
{
    if (givensRotateWith(activeKernelsT<T>(), rj, ri, c, s, n))
        countKernelCall(KernelOp::GivensRotate);
}

/**
 * Apply the Householder reflector I - 2 v v^T / vnorm2 to the m x n
 * block at @p a (row stride @p lda), v of length m. Per column j:
 * w = sum_i v[i] * a[i][j] accumulated from +0 in ascending i, then
 * a[i][j] -= (2 * w / vnorm2) * v[i]: the operation order of a
 * strided dot/axpy pair per column. Unlike the other entries this one
 * is bit-exact on every tier (DESIGN.md §10): fast tiers vectorize
 * across columns with a separate multiply and add, never FMA or a
 * reassociated chain. Blocks below kMicroDispatchCutoff elements run
 * the column loop inline.
 */
template <typename T>
inline void
householderSweep(T *a, std::size_t lda, const T *v, T vnorm2,
                 std::size_t m, std::size_t n)
{
    if (m * n >= kMicroDispatchCutoff) {
        countKernelCall(KernelOp::HouseholderSweep);
        activeKernelsT<T>().householderSweep(a, lda, v, vnorm2, m, n);
        return;
    }
    for (std::size_t j = 0; j < n; ++j) {
        T w = T(0);
        for (std::size_t i = 0; i < m; ++i)
            w += v[i] * a[i * lda + j];
        const T beta = T(2) * w / vnorm2;
        for (std::size_t i = 0; i < m; ++i)
            a[i * lda + j] -= beta * v[i];
    }
}

} // namespace orianna::mat::kernels
