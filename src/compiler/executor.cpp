#include "compiler/executor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "lie/so.hpp"
#include "matrix/qr.hpp"

namespace orianna::comp {

namespace {

/**
 * Widen/narrow shims around the extended-precision special-function
 * units (lie::, camera projection, SDF lookups) and the host
 * boundary (LOADC/LOADV payloads in, deltas out). For T = double both
 * directions are the identity, so the fp64 interpreter compiles to
 * the exact pre-template code.
 */
template <typename T> struct Ext;

template <> struct Ext<double>
{
    static const Vector &in(const Vector &v) { return v; }
    static const Matrix &in(const Matrix &m) { return m; }
    static Vector out(Vector v) { return v; }
    static Matrix out(Matrix m) { return m; }
};

template <> struct Ext<float>
{
    static Vector in(const mat::VectorF &v) { return mat::toDouble(v); }
    static Matrix in(const mat::MatrixF &m) { return mat::toDouble(m); }
    static mat::VectorF out(const Vector &v) { return mat::toFloat(v); }
    static mat::MatrixF out(const Matrix &m) { return mat::toFloat(m); }
};

/** Elementwise hinge max(0, eps - x). */
template <typename T>
mat::VectorT<T>
hinge(const mat::VectorT<T> &v, double eps)
{
    mat::VectorT<T> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = std::max(T(0), T(eps) - v[i]);
    return out;
}

template <typename T>
mat::MatrixT<T>
hingeJacobian(const mat::VectorT<T> &v, double eps)
{
    mat::MatrixT<T> j(v.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        j(i, i) = (v[i] < T(eps)) ? T(-1) : T(0);
    return j;
}

Vector
project(const Vector &p, const fg::CameraModel &c)
{
    if (p.size() != 3)
        throw std::invalid_argument("PROJ: point must be 3-D");
    if (p[2] <= 1e-9)
        throw std::runtime_error("PROJ: point behind camera");
    return Vector{c.fx * p[0] / p[2] + c.cx, c.fy * p[1] / p[2] + c.cy};
}

Matrix
projectJacobian(const Vector &p, const fg::CameraModel &c)
{
    const double iz = 1.0 / p[2];
    Matrix j(2, 3);
    j(0, 0) = c.fx * iz;
    j(0, 2) = -c.fx * p[0] * iz * iz;
    j(1, 1) = c.fy * iz;
    j(1, 2) = -c.fy * p[1] * iz * iz;
    return j;
}

/** Row-scale by 1/sigma (whitening) for matrices, in place. */
template <typename T>
void
scaleRowsInPlace(mat::MatrixT<T> &m, const Vector &sigmas)
{
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            m(i, j) /= T(sigmas[i]);
}

template <typename T>
mat::MatrixT<T>
scaleRows(const mat::MatrixT<T> &m, const Vector &sigmas)
{
    mat::MatrixT<T> out = m;
    scaleRowsInPlace(out, sigmas);
    return out;
}

template <typename T>
mat::VectorT<T>
scaleRows(const mat::VectorT<T> &v, const Vector &sigmas)
{
    mat::VectorT<T> out = v;
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] /= T(sigmas[i]);
    return out;
}

/**
 * The matrix in @p slot, reshaped to @p rows by @p cols and zeroed.
 * A warm slot keeps its storage, so steady-state frames assemble
 * matrices without allocating.
 */
template <typename T>
mat::MatrixT<T> &
zeroedMatrix(SlotValueT<T> &slot, std::size_t rows, std::size_t cols)
{
    auto *m = std::get_if<mat::MatrixT<T>>(&slot);
    if (m == nullptr)
        m = &slot.template emplace<mat::MatrixT<T>>();
    m->setZero(rows, cols);
    return *m;
}

} // namespace

template <typename T>
void
ExecutorT<T>::reset()
{
    slots_.assign(program_->valueSlots, std::monostate{});
}

template <typename T>
void
ExecutorT<T>::corruptSlot(std::uint32_t index)
{
    const T nan = std::numeric_limits<T>::quiet_NaN();
    SlotValueT<T> &slot = slots_.at(index);
    if (std::holds_alternative<mat::MatrixT<T>>(slot)) {
        mat::MatrixT<T> &m = std::get<mat::MatrixT<T>>(slot);
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                m(i, j) = nan;
    } else if (std::holds_alternative<mat::VectorT<T>>(slot)) {
        mat::VectorT<T> &v = std::get<mat::VectorT<T>>(slot);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = nan;
    }
}

template <typename T>
const mat::MatrixT<T> &
ExecutorT<T>::matrixAt(std::uint32_t slot) const
{
    if (!std::holds_alternative<mat::MatrixT<T>>(slots_[slot]))
        throw std::logic_error("Executor: slot is not a matrix");
    return std::get<mat::MatrixT<T>>(slots_[slot]);
}

template <typename T>
const mat::VectorT<T> &
ExecutorT<T>::vectorAt(std::uint32_t slot) const
{
    if (!std::holds_alternative<mat::VectorT<T>>(slots_[slot]))
        throw std::logic_error("Executor: slot is not a vector");
    return std::get<mat::VectorT<T>>(slots_[slot]);
}

template <typename T>
void
ExecutorT<T>::step(std::size_t index, const fg::Values &values)
{
    const Instruction &inst = program_->instructions[index];
    auto &dst = slots_[inst.dst];

    auto isVec = [&](std::uint32_t s) {
        return std::holds_alternative<mat::VectorT<T>>(slots_[s]);
    };

    switch (inst.op) {
      case IsaOp::LOADC: {
        const Payload &constant = program_->payload(inst);
        if (constant.constVec.size() > 0)
            dst = Ext<T>::out(constant.constVec);
        else
            dst = Ext<T>::out(constant.constMat);
        break;
      }
      case IsaOp::LOADV:
        switch (inst.component) {
          case VarComponent::Phi:
            dst = Ext<T>::out(values.pose(inst.key).phi());
            break;
          case VarComponent::Translation:
            dst = Ext<T>::out(values.pose(inst.key).t());
            break;
          case VarComponent::Whole:
            dst = Ext<T>::out(values.vector(inst.key));
            break;
        }
        break;
      case IsaOp::EXP:
        dst = Ext<T>::out(lie::expSo(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::LOG:
        dst = Ext<T>::out(lie::logSo(Ext<T>::in(matrixAt(inst.srcs[0]))));
        break;
      case IsaOp::RT:
        dst = matrixAt(inst.srcs[0]).transpose();
        break;
      case IsaOp::RR:
      case IsaOp::MM: {
        const mat::MatrixT<T> &a = matrixAt(inst.srcs[0]);
        if (isVec(inst.srcs[1])) {
            // Vector operand treated as a column matrix.
            dst = a * vectorAt(inst.srcs[1]).asColumn();
        } else {
            dst = a * matrixAt(inst.srcs[1]);
        }
        break;
      }
      case IsaOp::RV:
      case IsaOp::MV:
        dst = matrixAt(inst.srcs[0]) * vectorAt(inst.srcs[1]);
        break;
      case IsaOp::VADD:
        if (isVec(inst.srcs[0]))
            dst = vectorAt(inst.srcs[0]) + vectorAt(inst.srcs[1]);
        else
            dst = matrixAt(inst.srcs[0]) + matrixAt(inst.srcs[1]);
        break;
      case IsaOp::VSUB:
        if (isVec(inst.srcs[0]))
            dst = vectorAt(inst.srcs[0]) - vectorAt(inst.srcs[1]);
        else
            dst = matrixAt(inst.srcs[0]) - matrixAt(inst.srcs[1]);
        break;
      case IsaOp::NEG:
        if (isVec(inst.srcs[0]))
            dst = -vectorAt(inst.srcs[0]);
        else
            dst = -matrixAt(inst.srcs[0]);
        break;
      case IsaOp::HAT:
        dst = Ext<T>::out(lie::hat(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::JR:
        dst = Ext<T>::out(
            lie::rightJacobian(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::JRINV:
        dst = Ext<T>::out(
            lie::rightJacobianInv(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::PROJ:
        dst = Ext<T>::out(project(Ext<T>::in(vectorAt(inst.srcs[0])),
                                  program_->payload(inst).camera));
        break;
      case IsaOp::PROJJ:
        dst = Ext<T>::out(
            projectJacobian(Ext<T>::in(vectorAt(inst.srcs[0])),
                            program_->payload(inst).camera));
        break;
      case IsaOp::SDF:
        dst = Ext<T>::out(Vector{program_->payload(inst).sdf->distance(
            Ext<T>::in(vectorAt(inst.srcs[0])))});
        break;
      case IsaOp::SDFJ: {
        const Vector g = program_->payload(inst).sdf->gradient(
            Ext<T>::in(vectorAt(inst.srcs[0])));
        Matrix j(1, g.size());
        for (std::size_t i = 0; i < g.size(); ++i)
            j(0, i) = g[i];
        dst = Ext<T>::out(std::move(j));
        break;
      }
      case IsaOp::HINGE:
        dst = hinge(vectorAt(inst.srcs[0]),
                    program_->payload(inst).hingeEps);
        break;
      case IsaOp::HINGEJ:
        dst = hingeJacobian(vectorAt(inst.srcs[0]),
                            program_->payload(inst).hingeEps);
        break;
      case IsaOp::NORM:
        dst = mat::VectorT<T>{vectorAt(inst.srcs[0]).norm()};
        break;
      case IsaOp::HUBERW: {
        const T norm = vectorAt(inst.srcs[0]).norm();
        const T k = T(program_->payload(inst).hingeEps);
        dst = mat::VectorT<T>{(k <= T(0) || norm <= k)
                                  ? T(1)
                                  : std::sqrt(k / norm)};
        break;
      }
      case IsaOp::SMUL: {
        const T scale = vectorAt(inst.srcs[1])[0];
        if (isVec(inst.srcs[0]))
            dst = vectorAt(inst.srcs[0]) * scale;
        else
            dst = matrixAt(inst.srcs[0]) * scale;
        break;
      }
      case IsaOp::NORMJ: {
        const mat::VectorT<T> &v = vectorAt(inst.srcs[0]);
        const T n = v.norm();
        mat::MatrixT<T> j(1, v.size());
        if (n > T(1e-12))
            for (std::size_t i = 0; i < v.size(); ++i)
                j(0, i) = v[i] / n;
        dst = std::move(j);
        break;
      }
      case IsaOp::SCALER: {
        const Vector &sigmas = program_->payload(inst).constVec;
        if (isVec(inst.srcs[0]))
            dst = scaleRows(vectorAt(inst.srcs[0]), sigmas);
        else
            dst = scaleRows(matrixAt(inst.srcs[0]), sigmas);
        break;
      }
      case IsaOp::GATHER:
      case IsaOp::GSCALE: {
        // Placement k copies srcs[k]. All-rhs placements at column
        // zero assemble a vector; otherwise a dense matrix is built
        // from the placements, in the destination's storage. GSCALE
        // (fused GATHER + SCALER) then whitens rows exactly like
        // SCALER — same FLOPs, same order, so fusion stays
        // bit-identical.
        const bool whiten = inst.op == IsaOp::GSCALE;
        const Payload &layout = program_->payload(inst);
        const std::vector<GatherPlacement> &places = layout.placements;
        bool vector_gather = !places.empty();
        for (const GatherPlacement &p : places)
            vector_gather = vector_gather && p.isRhs && p.colBegin == 0;
        if (vector_gather) {
            mat::VectorT<T> out(inst.rows);
            for (std::size_t k = 0; k < places.size(); ++k)
                out.setSegment(places[k].rowBegin, vectorAt(inst.srcs[k]));
            if (whiten)
                dst = scaleRows(out, layout.constVec);
            else
                dst = std::move(out);
            break;
        }
        mat::MatrixT<T> &out = zeroedMatrix(dst, inst.rows, inst.cols);
        for (std::size_t k = 0; k < places.size(); ++k) {
            const GatherPlacement &p = places[k];
            if (p.isRhs) {
                const mat::VectorT<T> &v = vectorAt(inst.srcs[k]);
                for (std::size_t i = 0; i < v.size(); ++i)
                    out(p.rowBegin + i, p.colBegin) = v[i];
            } else {
                out.setBlock(p.rowBegin, p.colBegin,
                             matrixAt(inst.srcs[k]));
            }
        }
        if (whiten)
            scaleRowsInPlace(out, layout.constVec);
        break;
      }
      case IsaOp::QR:
        // Givens-array template on the augmented [A | b], rotated in
        // the destination's storage (the copy reuses it when warm);
        // the last column is the rhs, carried through the rotations.
        dst = matrixAt(inst.srcs[0]);
        mat::givensQr(std::get<mat::MatrixT<T>>(dst));
        break;
      case IsaOp::EXTRACT: {
        const mat::MatrixT<T> &src = matrixAt(inst.srcs[0]);
        if (inst.extractVector) {
            mat::VectorT<T> out(inst.rows);
            for (std::size_t i = 0; i < inst.rows; ++i)
                out[i] = src(inst.extractRow + i, inst.extractCol);
            dst = std::move(out);
            break;
        }
        if (std::size_t{inst.extractRow} + inst.rows > src.rows() ||
            std::size_t{inst.extractCol} + inst.cols > src.cols())
            throw std::out_of_range("EXTRACT: block out of range");
        mat::MatrixT<T> &out = zeroedMatrix(dst, inst.rows, inst.cols);
        for (std::size_t i = 0; i < inst.rows; ++i)
            for (std::size_t j = 0; j < inst.cols; ++j)
                out(i, j) = src(inst.extractRow + i, inst.extractCol + j);
        break;
      }
      case IsaOp::BSUB:
        dst = mat::backSubstitute(matrixAt(inst.srcs[0]),
                                  vectorAt(inst.srcs[1]));
        break;
      case IsaOp::STORE:
        break; // Host-visibility marker; no data change.
      case IsaOp::MVSUB:
        // Fused MV + VSUB: dst = src0 - src1 * src2, evaluated as the
        // unfused pair would (gemv first, then the subtraction).
        dst = vectorAt(inst.srcs[0]) -
              matrixAt(inst.srcs[1]) * vectorAt(inst.srcs[2]);
        break;
    }
}

template <typename T>
Vector
ExecutorT<T>::deltaAt(std::uint32_t index) const
{
    return Ext<T>::in(vectorAt(index));
}

template <typename T>
std::map<Key, Vector>
ExecutorT<T>::run(const fg::Values &values)
{
    reset();
    for (std::size_t i = 0; i < program_->instructions.size(); ++i)
        step(i, values);

    std::map<Key, Vector> deltas;
    for (const DeltaBinding &binding : program_->deltas)
        deltas.emplace(binding.key, Ext<T>::in(vectorAt(binding.slot)));
    return deltas;
}

// The two supported datapath precisions (DESIGN.md §12).
template class ExecutorT<double>;
template class ExecutorT<float>;

fg::Values
applyProgramStep(const Program &program, const fg::Values &values)
{
    std::map<Key, Vector> deltas;
    if (program.precision == Precision::Fp32) {
        Executor32 executor(program);
        deltas = executor.run(values);
    } else {
        Executor executor(program);
        deltas = executor.run(values);
    }
    fg::Values updated = values;
    updated.retractAll(deltas);
    return updated;
}

} // namespace orianna::comp
