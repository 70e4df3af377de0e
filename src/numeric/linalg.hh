/**
 * @file
 * Small dense linear-algebra solvers.
 *
 * These back the ordinary-least-squares baselines (linear, polynomial and
 * logarithmic regression) which solve normal equations A^T A x = A^T b.
 * For symmetric positive-definite systems we use Cholesky; a partial-pivot
 * Gaussian solver handles general square systems. Sizes are small
 * (features x features), so O(n^3) dense algorithms are appropriate.
 *
 * Dense inner products route through the kernel layer
 * (numeric/kernels/): the Matrix products used by leastSquares run
 * kernels::gemm, and the Cholesky recurrences run on
 * kernels::seqDotMinus, which preserves the original subtraction
 * order bit-for-bit.
 */

#ifndef WCNN_NUMERIC_LINALG_HH
#define WCNN_NUMERIC_LINALG_HH

#include <optional>

#include "matrix.hh"

namespace wcnn {
namespace numeric {

/**
 * Cholesky factorization A = L L^T of a symmetric positive-definite
 * matrix.
 *
 * @param a Symmetric matrix (only the lower triangle is read).
 * @return Lower-triangular factor L, or std::nullopt if A is not
 *         positive definite (within a small pivot tolerance).
 */
std::optional<Matrix> cholesky(const Matrix &a);

/**
 * Solve A x = b given the Cholesky factor L of A, by forward and backward
 * substitution.
 *
 * @param l Lower-triangular Cholesky factor.
 * @param b Right-hand side; size must equal l.rows().
 */
Vector choleskySolve(const Matrix &l, const Vector &b);

/**
 * Solve the square system A x = b by Gaussian elimination with partial
 * pivoting.
 *
 * @param a Square coefficient matrix.
 * @param b Right-hand side.
 * @return Solution vector, or std::nullopt if A is (numerically)
 *         singular.
 */
std::optional<Vector> solve(const Matrix &a, const Vector &b);

/**
 * Solve the least-squares problem min ||A x - b||_2 via the normal
 * equations with Tikhonov ridge damping:
 * (A^T A + ridge I) x = A^T b.
 *
 * @param a     Design matrix (rows = observations, cols = features).
 * @param b     Observations; size must equal a.rows().
 * @param ridge Non-negative damping added to the diagonal; a tiny value
 *              (e.g. 1e-10) keeps rank-deficient designs solvable.
 * @return Coefficient vector of size a.cols(), or std::nullopt if the
 *         damped normal matrix is still singular.
 */
std::optional<Vector> leastSquares(const Matrix &a, const Vector &b,
                                   double ridge = 0.0);

/**
 * Matrix inverse via Gauss-Jordan with partial pivoting.
 *
 * @param a Square matrix.
 * @return Inverse, or std::nullopt if singular.
 */
std::optional<Matrix> inverse(const Matrix &a);

} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_LINALG_HH
