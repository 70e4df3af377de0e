/**
 * @file
 * Dense BLAS-style kernels under the Matrix operators.
 *
 * All kernels operate on raw row-major double buffers so they serve
 * both the Matrix operators and the arena-backed fused serving path
 * without copies. There is one implementation per kernel (DESIGN.md
 * §5.6 gives the measurements behind each choice), and each keeps
 * every output element's accumulation in the original scalar order,
 * so results are bit-identical to the plain loops the goldens were
 * pinned on. tests/kernel_equivalence_test.cc checks that against
 * oracles kept in the test itself.
 *
 * Everything here is free of global state and safe to call
 * concurrently; scratch, where needed, comes from the caller.
 */

#ifndef WCNN_NUMERIC_KERNELS_BLAS_HH
#define WCNN_NUMERIC_KERNELS_BLAS_HH

#include <cstddef>

namespace wcnn {
namespace numeric {
namespace kernels {

/**
 * C = A * B for row-major buffers: A is m x k, B is k x n, C is
 * m x n and must be zero-initialized by the caller (the kernel
 * accumulates into it). An ikj loop that skips zero entries of A, so
 * a skipped 0 * inf never turns into NaN.
 */
void gemm(const double *a, const double *b, double *c, std::size_t m,
          std::size_t k, std::size_t n);

/**
 * y = A * x for a row-major m x n A; y holds m elements. Four rows
 * share each load of x[j], but every row keeps its own accumulator
 * adding its products in ascending j from 0.0 — a per-row sequential
 * dot product.
 */
void gemv(const double *a, const double *x, double *y, std::size_t m,
          std::size_t n);

/**
 * init - a[0]*b[0] - a[1]*b[1] - ... - a[n-1]*b[n-1], subtracted in
 * index order — the accumulation shape of the Cholesky inner loops
 * in linalg.cc (a serial subtraction chain cannot be reassociated
 * without changing bits), routed here so linalg's raw element loops
 * live in the kernel layer (lint R8).
 */
double seqDotMinus(double init, const double *a, const double *b,
                   std::size_t n);

} // namespace kernels
} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_KERNELS_BLAS_HH
