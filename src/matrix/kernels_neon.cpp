// NEON kernel tier (aarch64 only — Advanced SIMD is part of the base
// ISA there, so no runtime feature check beyond compilation). A
// deliberately modest tier: 2-lane float64x2_t vectorization of the
// reduction-heavy kernels (dot and the gemm family built on it, the
// Givens rotation), scalar reference pointers for the rest. Like the
// AVX2 tier it reassociates accumulation chains, so results match the
// scalar reference only within the DESIGN.md §10 tolerance.

#include "matrix/simd.hpp"

#if defined(ORIANNA_SIMD_NEON) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace orianna::mat::kernels {

namespace {

double
dotNeon(const double *a, const double *b, std::size_t n)
{
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < n4; i += 4) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
        acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2),
                         vld1q_f64(b + i + 2));
    }
    double acc = vaddvq_f64(vaddq_f64(acc0, acc1));
    for (std::size_t i = n4; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
gemmTransBNeon(const double *a, const double *b, double *c,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c[i * n + j] = dotNeon(a + i * k, b + j * k, k);
}

void
gemvNeon(const double *a, const double *x, double *y, std::size_t m,
         std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotNeon(a + i * n, x, n);
}

void
gemvTransANeon(const double *a, const double *x, double *y,
               std::size_t m, std::size_t n)
{
    const std::size_t n2 = n - n % 2;
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * n;
        const float64x2_t xi = vdupq_n_f64(x[i]);
        for (std::size_t j = 0; j < n2; j += 2)
            vst1q_f64(y + j,
                      vfmaq_f64(vld1q_f64(y + j), xi, vld1q_f64(arow + j)));
        for (std::size_t j = n2; j < n; ++j)
            y[j] += x[i] * arow[j];
    }
}

double
dotStridedNeon(const double *a, std::size_t stride_a, const double *b,
               std::size_t stride_b, std::size_t n)
{
    if (stride_a == 1 && stride_b == 1)
        return dotNeon(a, b, n);
    return scalar::dotStrided(a, stride_a, b, stride_b, n);
}

double
fusedSubtractDotNeon(double acc, const double *a, const double *x,
                     std::size_t n)
{
    return acc - dotNeon(a, x, n);
}

void
axpyNegStridedNeon(double *y, std::size_t stride_y, double alpha,
                   const double *x, std::size_t n)
{
    if (stride_y != 1) {
        scalar::axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    const float64x2_t av = vdupq_n_f64(alpha);
    const std::size_t n2 = n - n % 2;
    for (std::size_t i = 0; i < n2; i += 2)
        vst1q_f64(y + i,
                  vfmsq_f64(vld1q_f64(y + i), av, vld1q_f64(x + i)));
    for (std::size_t i = n2; i < n; ++i)
        y[i] -= alpha * x[i];
}

void
givensRotateNeon(double *rj, double *ri, double c, double s,
                 std::size_t n)
{
    const float64x2_t cv = vdupq_n_f64(c);
    const float64x2_t sv = vdupq_n_f64(s);
    const std::size_t n2 = n - n % 2;
    for (std::size_t i = 0; i < n2; i += 2) {
        const float64x2_t a = vld1q_f64(rj + i);
        const float64x2_t b = vld1q_f64(ri + i);
        vst1q_f64(rj + i, vfmaq_f64(vmulq_f64(sv, b), cv, a));
        vst1q_f64(ri + i, vfmsq_f64(vmulq_f64(cv, b), sv, a));
    }
    for (std::size_t i = n2; i < n; ++i) {
        const double a = rj[i];
        const double b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
}

const KernelTable kNeonTable = {
    SimdTier::Neon,     scalar::gemm,
    scalar::gemmTransA, gemmTransBNeon,
    scalar::transpose,  gemvNeon,
    gemvTransANeon,     dotNeon,
    dotStridedNeon,     fusedSubtractDotNeon,
    axpyNegStridedNeon, givensRotateNeon,
    scalar::householderSweep,
};

// --- fp32 tier (DESIGN.md §12): 4-lane float32x4_t versions ---------

float
dotNeonF(const float *a, const float *b, std::size_t n)
{
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    const std::size_t n8 = n - n % 8;
    for (std::size_t i = 0; i < n8; i += 8) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
        acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4),
                         vld1q_f32(b + i + 4));
    }
    float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
    for (std::size_t i = n8; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
gemmTransBNeonF(const float *a, const float *b, float *c,
                std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c[i * n + j] = dotNeonF(a + i * k, b + j * k, k);
}

void
gemvNeonF(const float *a, const float *x, float *y, std::size_t m,
          std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        y[i] = dotNeonF(a + i * n, x, n);
}

void
gemvTransANeonF(const float *a, const float *x, float *y,
                std::size_t m, std::size_t n)
{
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * n;
        const float32x4_t xi = vdupq_n_f32(x[i]);
        for (std::size_t j = 0; j < n4; j += 4)
            vst1q_f32(y + j, vfmaq_f32(vld1q_f32(y + j), xi,
                                       vld1q_f32(arow + j)));
        for (std::size_t j = n4; j < n; ++j)
            y[j] += x[i] * arow[j];
    }
}

float
dotStridedNeonF(const float *a, std::size_t stride_a, const float *b,
                std::size_t stride_b, std::size_t n)
{
    if (stride_a == 1 && stride_b == 1)
        return dotNeonF(a, b, n);
    return scalar::dotStrided(a, stride_a, b, stride_b, n);
}

float
fusedSubtractDotNeonF(float acc, const float *a, const float *x,
                      std::size_t n)
{
    return acc - dotNeonF(a, x, n);
}

void
axpyNegStridedNeonF(float *y, std::size_t stride_y, float alpha,
                    const float *x, std::size_t n)
{
    if (stride_y != 1) {
        scalar::axpyNegStrided(y, stride_y, alpha, x, n);
        return;
    }
    const float32x4_t av = vdupq_n_f32(alpha);
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < n4; i += 4)
        vst1q_f32(y + i,
                  vfmsq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
    for (std::size_t i = n4; i < n; ++i)
        y[i] -= alpha * x[i];
}

void
givensRotateNeonF(float *rj, float *ri, float c, float s,
                  std::size_t n)
{
    const float32x4_t cv = vdupq_n_f32(c);
    const float32x4_t sv = vdupq_n_f32(s);
    const std::size_t n4 = n - n % 4;
    for (std::size_t i = 0; i < n4; i += 4) {
        const float32x4_t a = vld1q_f32(rj + i);
        const float32x4_t b = vld1q_f32(ri + i);
        vst1q_f32(rj + i, vfmaq_f32(vmulq_f32(sv, b), cv, a));
        vst1q_f32(ri + i, vfmsq_f32(vmulq_f32(cv, b), sv, a));
    }
    for (std::size_t i = n4; i < n; ++i) {
        const float a = rj[i];
        const float b = ri[i];
        rj[i] = c * a + s * b;
        ri[i] = -s * a + c * b;
    }
}

const KernelTable32 kNeonTable32 = {
    SimdTier::Neon,      scalar::gemm,
    scalar::gemmTransA,  gemmTransBNeonF,
    scalar::transpose,   gemvNeonF,
    gemvTransANeonF,     dotNeonF,
    dotStridedNeonF,     fusedSubtractDotNeonF,
    axpyNegStridedNeonF, givensRotateNeonF,
    scalar::householderSweep,
};

} // namespace

const KernelTable *
neonTable()
{
    return &kNeonTable;
}

const KernelTable32 *
neonTable32()
{
    return &kNeonTable32;
}

} // namespace orianna::mat::kernels

#else // Compiled on a host without NEON; tier stays unregistered.

namespace orianna::mat::kernels {

const KernelTable *
neonTable()
{
    return nullptr;
}

const KernelTable32 *
neonTable32()
{
    return nullptr;
}

} // namespace orianna::mat::kernels

#endif
