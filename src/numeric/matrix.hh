/**
 * @file
 * Dense row-major matrix type used throughout the NN and the regression
 * baselines. Deliberately small: only the operations the library needs,
 * with contract-checked range guards (see core/contracts.hh).
 */

#ifndef WCNN_NUMERIC_MATRIX_HH
#define WCNN_NUMERIC_MATRIX_HH

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/contracts.hh"

namespace wcnn {
namespace numeric {

class Rng;

/** Column vector alias; most per-sample data is a plain vector. */
using Vector = std::vector<double>;

/**
 * Dense row-major matrix of doubles.
 *
 * Storage is a single contiguous buffer; (i, j) indexing is bounds-checked
 * via WCNN_CHECK_INDEX in checked builds. All arithmetic helpers allocate
 * their result
 * (the matrices in this library are small — tens to low hundreds of rows).
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /**
     * Construct an r-by-c matrix.
     *
     * @param r    Number of rows.
     * @param c    Number of columns.
     * @param fill Initial value for every element.
     */
    Matrix(std::size_t r, std::size_t c, double fill = 0.0);

    /**
     * Construct from nested initializer lists, e.g.
     * Matrix{{1, 2}, {3, 4}}. All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> rows_init);

    /** Number of rows. */
    std::size_t rows() const { return nRows; }
    /** Number of columns. */
    std::size_t cols() const { return nCols; }
    /** Total element count. */
    std::size_t size() const { return elems.size(); }
    /** True for a 0x0 matrix. */
    bool empty() const { return elems.empty(); }

    /** Mutable element access. */
    double &
    operator()(std::size_t i, std::size_t j)
    {
        WCNN_CHECK_INDEX(i, nRows);
        WCNN_CHECK_INDEX(j, nCols);
        return elems[i * nCols + j];
    }

    /** Const element access. */
    double
    operator()(std::size_t i, std::size_t j) const
    {
        WCNN_CHECK_INDEX(i, nRows);
        WCNN_CHECK_INDEX(j, nCols);
        return elems[i * nCols + j];
    }

    /** Raw contiguous storage (row-major). */
    const std::vector<double> &data() const { return elems; }
    /** Raw contiguous storage (row-major), mutable. */
    std::vector<double> &data() { return elems; }

    /**
     * Copy one row out as a vector.
     *
     * @param i Row index.
     */
    Vector row(std::size_t i) const;

    /**
     * Copy one column out as a vector.
     *
     * @param j Column index.
     */
    Vector col(std::size_t j) const;

    /**
     * Overwrite one row from a vector.
     *
     * @param i Row index.
     * @param v Values; v.size() must equal cols().
     */
    void setRow(std::size_t i, const Vector &v);

    /** Identity matrix of order n. */
    static Matrix identity(std::size_t n);

    /**
     * Matrix with elements drawn i.i.d. uniform in [lo, hi).
     *
     * @param r   Rows.
     * @param c   Columns.
     * @param rng Generator to draw from.
     * @param lo  Lower bound.
     * @param hi  Upper bound.
     */
    static Matrix random(std::size_t r, std::size_t c, Rng &rng,
                         double lo, double hi);

    /** Transposed copy. */
    Matrix transposed() const;

    /**
     * Matrix product; cols() must equal other.rows(). Runs
     * kernels::gemm (numeric/kernels/blas.hh).
     */
    Matrix operator*(const Matrix &other) const;

    /**
     * Matrix-vector product; v.size() must equal cols(). Runs
     * kernels::gemv: one sequential dot product per row.
     */
    Vector operator*(const Vector &v) const;

    /** Elementwise sum; shapes must match. */
    Matrix operator+(const Matrix &other) const;

    /** Elementwise difference; shapes must match. */
    Matrix operator-(const Matrix &other) const;

    /** Scalar multiple. */
    Matrix operator*(double s) const;

    /** In-place elementwise add; shapes must match. */
    Matrix &operator+=(const Matrix &other);

    /** In-place elementwise subtract; shapes must match. */
    Matrix &operator-=(const Matrix &other);

    /** In-place scalar multiply. */
    Matrix &operator*=(double s);

    /** Elementwise (Hadamard) product; shapes must match. */
    Matrix hadamard(const Matrix &other) const;

    /**
     * Apply a scalar function to every element, returning a new matrix.
     *
     * @param fn Function applied elementwise.
     */
    Matrix apply(const std::function<double(double)> &fn) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Exact elementwise equality (for tests of determinism). */
    bool operator==(const Matrix &other) const;

    /** Human-readable dump, one row per line. */
    std::string toString() const;

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<double> elems;
};

/**
 * Outer product u * v^T.
 *
 * @param u Left vector (result rows).
 * @param v Right vector (result columns).
 */
Matrix outer(const Vector &u, const Vector &v);

/** Dot product; sizes must match. */
double dot(const Vector &u, const Vector &v);

/** Elementwise vector sum; sizes must match. */
Vector add(const Vector &u, const Vector &v);

/** Elementwise vector difference; sizes must match. */
Vector sub(const Vector &u, const Vector &v);

/** Scalar multiple of a vector. */
Vector scale(const Vector &u, double s);

/** Euclidean norm. */
double norm(const Vector &u);

} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_MATRIX_HH
