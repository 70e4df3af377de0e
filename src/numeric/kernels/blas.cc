#include "blas.hh"

namespace wcnn {
namespace numeric {
namespace kernels {

void
gemm(const double *a, const double *b, double *c, std::size_t m,
     std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double aik = a[i * k + kk];
            if (aik == 0.0)
                continue;
            const double *brow = b + kk * n;
            double *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += aik * brow[j];
        }
    }
}

void
gemv(const double *a, const double *x, double *y, std::size_t m,
     std::size_t n)
{
    std::size_t i = 0;
    // Four rows share each load of x[j]; every accumulator still adds
    // its products in ascending j, so y is bit-identical to a per-row
    // sequential dot.
    for (; i + 4 <= m; i += 4) {
        const double *r0 = a + (i + 0) * n;
        const double *r1 = a + (i + 1) * n;
        const double *r2 = a + (i + 2) * n;
        const double *r3 = a + (i + 3) * n;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double xj = x[j];
            a0 += r0[j] * xj;
            a1 += r1[j] * xj;
            a2 += r2[j] * xj;
            a3 += r3[j] * xj;
        }
        y[i + 0] = a0;
        y[i + 1] = a1;
        y[i + 2] = a2;
        y[i + 3] = a3;
    }
    for (; i < m; ++i) {
        double acc = 0.0;
        const double *row = a + i * n;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j] * x[j];
        y[i] = acc;
    }
}

double
seqDotMinus(double init, const double *a, const double *b,
            std::size_t n)
{
    double acc = init;
    for (std::size_t j = 0; j < n; ++j)
        acc -= a[j] * b[j];
    return acc;
}

} // namespace kernels
} // namespace numeric
} // namespace wcnn
