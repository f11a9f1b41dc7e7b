#pragma once

#include "matrix/dense.hpp"

namespace orianna::mat {

/**
 * Result of an orthogonal triangularization of the stacked system
 * [A | b]: R is upper trapezoidal with the same shape as A, and rhs is
 * Q^T b. Q itself is never materialized; factor-graph elimination only
 * needs R and Q^T b (Sec. 2.2 of the paper).
 *
 * Like the dense types, the QR kernels exist in both precisions
 * (DESIGN.md §12): T = double is the reference, T = float the fp32
 * accelerator mode. Only those two instantiations are defined
 * (explicitly, in qr.cpp).
 */
template <typename T> struct QrResultT
{
    MatrixT<T> r;   //!< Upper-trapezoidal factor, same shape as A.
    VectorT<T> rhs; //!< Q^T b, same length as b.
};

using QrResult = QrResultT<double>;
using QrResultF = QrResultT<float>;

/**
 * Householder QR of the augmented system [A | b].
 *
 * This is the software-reference kernel used by the CPU baselines and
 * the Gauss-Newton solver. A and b are factored in place and returned
 * as R and Q^T b, so a caller that no longer needs them moves them in.
 * Cost is accounted through MacCounter.
 */
template <typename T>
QrResultT<T> householderQr(MatrixT<T> a, VectorT<T> b);

/**
 * Givens-rotation QR of the augmented system [A | b], in place: @p aug
 * holds A in its leading cols() - 1 columns and b in the last one; on
 * return they hold R (upper trapezoidal) and Q^T b.
 *
 * Functional model of the hardware QR template (a Givens array is the
 * standard systolic QR structure the paper's template follows, cf.
 * prior factor-graph accelerators [19][21][36]), which streams the
 * rhs through the array beside A. Produces the same R and Q^T b as
 * householderQr up to row signs; the accelerator simulator executes
 * this kernel so software/accelerator accuracy can be compared
 * honestly.
 *
 * @throws std::invalid_argument when @p aug has no rhs column.
 */
template <typename T> void givensQr(MatrixT<T> &aug);

/**
 * Solve R x = y by back substitution for square upper-triangular R
 * (the top rows of a QR result).
 *
 * @throws std::runtime_error when a diagonal entry is (near) zero.
 */
template <typename T>
VectorT<T> backSubstitute(const MatrixT<T> &r, const VectorT<T> &y);

/**
 * Least-squares solve of min ||A x - b||_2 via Householder QR and back
 * substitution. Requires A to have full column rank.
 */
template <typename T>
VectorT<T> leastSquares(const MatrixT<T> &a, const VectorT<T> &b);

} // namespace orianna::mat
