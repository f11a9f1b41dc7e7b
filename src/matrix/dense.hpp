#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace orianna::mat {

template <typename T> class MatrixT;

/**
 * Dense column vector of scalars.
 *
 * The workhorse value type for robot states, errors and right-hand
 * sides. Sizes in optimization-based robotics are small (2-12), so the
 * implementation favours clarity and correct MAC accounting over
 * vectorization.
 *
 * The scalar type is a template parameter (DESIGN.md §12): `double`
 * is the bit-exact reference precision every golden digest is defined
 * on, `float` is the reduced-precision accelerator mode. Only those
 * two instantiations exist (explicit instantiation in dense.cpp);
 * use the `Vector` / `VectorF` aliases below.
 */
template <typename T> class VectorT
{
  public:
    using Scalar = T;

    /** Empty (zero-length) vector. */
    VectorT() = default;

    /** Zero vector of dimension @p n. */
    explicit VectorT(std::size_t n) : data_(n, T(0)) {}

    /** Vector from an explicit list of entries. */
    VectorT(std::initializer_list<T> values) : data_(values) {}

    /** Vector wrapping existing storage. */
    explicit VectorT(std::vector<T> values) : data_(std::move(values))
    {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T &operator[](std::size_t i) { return data_[i]; }
    T operator[](std::size_t i) const { return data_[i]; }

    /** Bounds-checked element access. */
    T &at(std::size_t i) { return data_.at(i); }
    T at(std::size_t i) const { return data_.at(i); }

    const std::vector<T> &data() const { return data_; }

    VectorT operator+(const VectorT &other) const;
    VectorT operator-(const VectorT &other) const;
    VectorT operator-() const;
    VectorT operator*(T scale) const;
    VectorT &operator+=(const VectorT &other);
    VectorT &operator-=(const VectorT &other);

    /** Dot product; dimensions must agree. */
    T dot(const VectorT &other) const;

    /** Euclidean (2-) norm. */
    T norm() const;

    /** Largest absolute entry; 0 for an empty vector. */
    T maxAbs() const;

    /** Contiguous sub-vector [start, start+len). */
    VectorT segment(std::size_t start, std::size_t len) const;

    /** Overwrite the sub-vector starting at @p start with @p value. */
    void setSegment(std::size_t start, const VectorT &value);

    /** Concatenate @p other after this vector. */
    VectorT concat(const VectorT &other) const;

    /** This vector as an n-by-1 matrix. */
    MatrixT<T> asColumn() const;

    /** Human-readable single-line rendering, for logs and tests. */
    std::string str() const;

  private:
    std::vector<T> data_;
};

/**
 * Dense row-major matrix of scalars (same two instantiations as
 * VectorT; use the `Matrix` / `MatrixF` aliases).
 *
 * Covers every kernel the ORIANNA templates implement in hardware:
 * multiply (systolic-array template), transpose, and the QR /
 * back-substitution kernels declared in qr.hpp. All arithmetic kernels
 * report MACs through MacCounter.
 *
 * Multiplies and transposes execute through the cache-blocked,
 * write-once microkernels of kernels.hpp, which preserve the naive
 * reference accumulation order bit-for-bit (tests/test_matrix.cpp
 * checks exact equality on randomized shapes).
 */
template <typename T> class MatrixT
{
  public:
    using Scalar = T;

    /** Empty 0-by-0 matrix. */
    MatrixT() = default;

    /** Zero matrix of shape @p rows by @p cols. */
    MatrixT(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T(0))
    {}

    /** Matrix from nested initializer lists (row major). */
    MatrixT(std::initializer_list<std::initializer_list<T>> rows);

    /** n-by-n identity. */
    static MatrixT identity(std::size_t n);

    /** Zero matrix of shape @p rows by @p cols. */
    static MatrixT zero(std::size_t rows, std::size_t cols);

    /** Diagonal matrix with the entries of @p diag. */
    static MatrixT diagonal(const VectorT<T> &diag);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Total number of entries. */
    std::size_t size() const { return data_.size(); }

    T &operator()(std::size_t i, std::size_t j)
    {
        return data_[i * cols_ + j];
    }

    T operator()(std::size_t i, std::size_t j) const
    {
        return data_[i * cols_ + j];
    }

    /** Row-major backing storage (for the kernels layer). */
    const std::vector<T> &data() const { return data_; }

    /**
     * Reshape to @p rows by @p cols with every entry zero, keeping the
     * existing storage whenever it is large enough.
     */
    void setZero(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, T(0));
    }

    MatrixT operator+(const MatrixT &other) const;
    MatrixT operator-(const MatrixT &other) const;
    MatrixT operator-() const;
    MatrixT operator*(const MatrixT &other) const;
    MatrixT operator*(T scale) const;
    VectorT<T> operator*(const VectorT<T> &vec) const;
    MatrixT &operator+=(const MatrixT &other);

    /** Matrix transpose. */
    MatrixT transpose() const;

    /**
     * this^T * other without materializing the transpose
     * (bit-identical to `transpose() * other`, one pass, fused
     * microkernel). Row counts must agree.
     */
    MatrixT transposeTimes(const MatrixT &other) const;

    /** this^T * vec, fused (bit-identical to `transpose() * vec`). */
    VectorT<T> transposeTimes(const VectorT<T> &vec) const;

    /**
     * this * other^T without materializing the transpose; both
     * operands stream along contiguous rows. Column counts must
     * agree.
     */
    MatrixT timesTranspose(const MatrixT &other) const;

    /** Copy of the sub-block at (@p i0, @p j0) of shape @p r by @p c. */
    MatrixT block(std::size_t i0, std::size_t j0, std::size_t r,
                  std::size_t c) const;

    /** Overwrite the sub-block at (@p i0, @p j0) with @p value. */
    void setBlock(std::size_t i0, std::size_t j0, const MatrixT &value);

    /** Row @p i as a vector. */
    VectorT<T> row(std::size_t i) const;

    /** Column @p j as a vector. */
    VectorT<T> col(std::size_t j) const;

    /** Frobenius norm. */
    T norm() const;

    /** Largest absolute entry; 0 for an empty matrix. */
    T maxAbs() const;

    /** Fraction of entries with |a_ij| > tol; 0 for an empty matrix. */
    double density(double tol = 1e-12) const;

    /** Number of entries with |a_ij| > tol. */
    std::size_t nonZeros(double tol = 1e-12) const;

    /** True if all entries below the main diagonal are within tol of 0. */
    bool isUpperTriangular(double tol = 1e-9) const;

    /** Stack @p other below this matrix (column counts must match). */
    MatrixT vstack(const MatrixT &other) const;

    /** Place @p other to the right of this matrix (row counts match). */
    MatrixT hstack(const MatrixT &other) const;

    /** Human-readable multi-line rendering, for logs and tests. */
    std::string str() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

/** The bit-exact fp64 reference types (every pre-v3 call site). */
using Vector = VectorT<double>;
using Matrix = MatrixT<double>;

/** The reduced-precision fp32 accelerator-mode types. */
using VectorF = VectorT<float>;
using MatrixF = MatrixT<float>;

/** Scalar-first scaling. */
template <typename T>
inline MatrixT<T>
operator*(T scale, const MatrixT<T> &m)
{
    return m * scale;
}

template <typename T>
inline VectorT<T>
operator*(T scale, const VectorT<T> &v)
{
    return v * scale;
}

/** Max-abs difference between two equally shaped matrices. */
double maxDifference(const Matrix &a, const Matrix &b);
float maxDifference(const MatrixF &a, const MatrixF &b);

/** Max-abs difference between two equally sized vectors. */
double maxDifference(const Vector &a, const Vector &b);
float maxDifference(const VectorF &a, const VectorF &b);

// Precision casts between the two instantiations (round-to-nearest
// when narrowing; exact when widening).
VectorF toFloat(const Vector &v);
MatrixF toFloat(const Matrix &m);
Vector toDouble(const VectorF &v);
Matrix toDouble(const MatrixF &m);

} // namespace orianna::mat
