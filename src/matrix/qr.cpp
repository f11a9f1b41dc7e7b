#include "matrix/qr.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "matrix/kernels.hpp"
#include "matrix/mac_counter.hpp"

namespace orianna::mat {

template <typename T>
QrResultT<T>
householderQr(MatrixT<T> a, VectorT<T> b)
{
    if (a.rows() != b.size())
        throw std::invalid_argument("householderQr: A/b row mismatch");

    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    // Row-major base pointers; all column accesses below stride by n.
    T *rp = m > 0 && n > 0 ? &a(0, 0) : nullptr;
    T *rhsp = m > 0 ? &b[0] : nullptr;
    const std::size_t steps = std::min(m == 0 ? 0 : m - 1, n);
    // One reflector buffer for every step; step k uses m - k entries.
    std::vector<T> v(steps > 0 ? m : 0);
    T *vp = v.data();
    for (std::size_t k = 0; k < steps; ++k) {
        // Build the Householder reflector for column k below row k.
        T *col_k = rp + k * n + k;
        const T sigma =
            kernels::dotStrided(col_k, n, col_k, n, m - k);
        MacCounter::add(m - k);
        T alpha = std::sqrt(sigma);
        if (alpha == T(0))
            continue;
        if (a(k, k) > T(0))
            alpha = -alpha;

        vp[0] = a(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            vp[i - k] = a(i, k);
        const T vnorm2 = sigma - T(2) * alpha * a(k, k) + alpha * alpha;
        if (vnorm2 == T(0))
            continue;

        // Apply I - 2 v v^T / (v^T v) to the trailing columns and rhs.
        // With two or more columns the row sweep computes exactly the
        // per-column strided dot/axpy chains; a single column has
        // stride 1, where dotStrided/axpyNegStrided take the tier's
        // contiguous kernels, so it keeps that path.
        if (n == 1) {
            const T dot = kernels::dotStrided(vp, 1, col_k, 1, m - k);
            const T beta = T(2) * dot / vnorm2;
            kernels::axpyNegStrided(col_k, 1, beta, vp, m - k);
        } else {
            kernels::householderSweep(col_k, n, vp, vnorm2, m - k, n - k);
        }
        MacCounter::add(2 * (m - k) * (n - k));
        const T dot = kernels::dot(vp, rhsp + k, m - k);
        const T beta = T(2) * dot / vnorm2;
        kernels::axpyNegStrided(rhsp + k, 1, beta, vp, m - k);
        MacCounter::add(2 * (m - k));
    }
    return {std::move(a), std::move(b)};
}

template <typename T>
void
givensQr(MatrixT<T> &aug)
{
    if (aug.cols() == 0)
        throw std::invalid_argument("givensQr: no rhs column");

    const std::size_t m = aug.rows();
    const std::size_t n = aug.cols() - 1; // Column n is the rhs.
    const std::size_t stride = aug.cols();
    T *p = m > 0 ? &aug(0, 0) : nullptr;

    // One table load per call; dispatched rotations and MACs are
    // tallied locally and counted once at the end.
    const kernels::KernelTableT<T> &table = kernels::activeKernelsT<T>();
    std::uint64_t dispatched = 0;
    std::uint64_t macs = 0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = m; i-- > j + 1;) {
            const T x = aug(j, j);
            const T y = aug(i, j);
            if (y == T(0))
                continue;
            const T hyp = std::hypot(x, y);
            const T c = x / hyp;
            const T s = y / hyp;
            dispatched += kernels::givensRotateWith(
                table, p + j * stride + j, p + i * stride + j, c, s,
                n - j);
            const T tj = aug(j, n);
            const T ti = aug(i, n);
            aug(j, n) = c * tj + s * ti;
            aug(i, n) = -s * tj + c * ti;
            macs += 4 * (n - j) + 4;
            aug(i, j) = T(0);
        }
    }
    kernels::countKernelCalls(kernels::KernelOp::GivensRotate, dispatched);
    MacCounter::add(macs);
}

template <typename T>
VectorT<T>
backSubstitute(const MatrixT<T> &r, const VectorT<T> &y)
{
    const std::size_t n = r.cols();
    if (r.rows() < n || y.size() < n)
        throw std::invalid_argument("backSubstitute: system too short");

    VectorT<T> x(n);
    if (n == 0)
        return x;
    const T *rp = r.data().data();
    T *xp = &x[0];
    for (std::size_t ii = n; ii-- > 0;) {
        // Subtract the already-solved tail of row ii in place
        // (ascending j, same chain as the reference loop).
        const T acc = kernels::fusedSubtractDot(
            y[ii], rp + ii * n + ii + 1, xp + ii + 1, n - ii - 1);
        MacCounter::add(n - ii - 1);
        const T diag = r(ii, ii);
        if (std::abs(diag) < T(1e-12))
            throw std::runtime_error("backSubstitute: singular diagonal");
        xp[ii] = acc / diag;
    }
    return x;
}

template <typename T>
VectorT<T>
leastSquares(const MatrixT<T> &a, const VectorT<T> &b)
{
    QrResultT<T> qr = householderQr(a, b);
    const std::size_t n = a.cols();
    MatrixT<T> top = qr.r.block(0, 0, n, n);
    VectorT<T> y(n);
    for (std::size_t i = 0; i < n; ++i)
        y[i] = qr.rhs[i];
    return backSubstitute(top, y);
}

// The only two supported precisions; fp64 instantiates to the exact
// pre-template code, preserving the golden digests.
template QrResultT<double> householderQr(MatrixT<double>,
                                         VectorT<double>);
template QrResultT<float> householderQr(MatrixT<float>, VectorT<float>);
template void givensQr(MatrixT<double> &);
template void givensQr(MatrixT<float> &);
template VectorT<double> backSubstitute(const MatrixT<double> &,
                                        const VectorT<double> &);
template VectorT<float> backSubstitute(const MatrixT<float> &,
                                       const VectorT<float> &);
template VectorT<double> leastSquares(const MatrixT<double> &,
                                      const VectorT<double> &);
template VectorT<float> leastSquares(const MatrixT<float> &,
                                     const VectorT<float> &);

} // namespace orianna::mat
