#include "fused.hh"

namespace wcnn {
namespace numeric {
namespace kernels {

namespace {

/**
 * Register-tile width of denseLayerForwardLanes: 8 doubles is one
 * cache line and two 4-wide vector accumulators, enough independent
 * chains to hide FMA-less multiply-add latency.
 */
constexpr std::size_t kLaneTile = 8;

} // namespace

void
standardizeRows(const double *x, double *z, std::size_t rows,
                std::size_t d, const double *mu, const double *sigma)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *xr = x + r * d;
        double *zr = z + r * d;
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j)
            zr[j] = (xr[j] - mu[j]) / sigma[j];
    }
}

void
destandardizeRows(const double *z, double *y, std::size_t rows,
                  std::size_t d, const double *mu, const double *sigma)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *zr = z + r * d;
        double *yr = y + r * d;
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j)
            yr[j] = zr[j] * sigma[j] + mu[j];
    }
}

void
standardizeToLanes(const double *x, double *xt, std::size_t nb,
                   std::size_t stride, std::size_t d, const double *mu,
                   const double *sigma)
{
    for (std::size_t j = 0; j < d; ++j) {
        double *lane = xt + j * stride;
        const double muj = mu[j];
        const double sj = sigma[j];
        for (std::size_t r = 0; r < nb; ++r)
            lane[r] = (x[r * d + j] - muj) / sj;
        for (std::size_t r = nb; r < stride; ++r)
            lane[r] = 0.0;
    }
}

void
transposeToLanes(const double *x, double *xt, std::size_t nb,
                 std::size_t stride, std::size_t d)
{
    for (std::size_t j = 0; j < d; ++j) {
        double *lane = xt + j * stride;
        for (std::size_t r = 0; r < nb; ++r)
            lane[r] = x[r * d + j];
        for (std::size_t r = nb; r < stride; ++r)
            lane[r] = 0.0;
    }
}

void
denseLayerForwardLanes(const double *actT, const double *w,
                       double *preT, std::size_t stride,
                       std::size_t fanin, std::size_t units)
{
    // Units go in pairs so each activation tile is loaded once and
    // feeds two output units; every lane's accumulator still adds its
    // k-products in ascending order from 0.0 — the per-row
    // dot-product order — so pairing changes nothing but the load
    // count.
    std::size_t u = 0;
    for (; u + 2 <= units; u += 2) {
        const double *w0 = w + u * fanin;
        const double *w1 = w0 + fanin;
        double *p0 = preT + u * stride;
        double *p1 = p0 + stride;
        std::size_t r0 = 0;
        // Full 8-lane tiles: the accumulators live in registers for
        // the whole k-reduction.
        for (; r0 + kLaneTile <= stride; r0 += kLaneTile) {
            double acc0[kLaneTile] = {};
            double acc1[kLaneTile] = {};
            for (std::size_t k = 0; k < fanin; ++k) {
                const double w0k = w0[k];
                const double w1k = w1[k];
                const double *ak = actT + k * stride + r0;
#pragma omp simd
                for (std::size_t t = 0; t < kLaneTile; ++t) {
                    acc0[t] += w0k * ak[t];
                    acc1[t] += w1k * ak[t];
                }
            }
#pragma omp simd
            for (std::size_t t = 0; t < kLaneTile; ++t) {
                p0[r0 + t] = acc0[t];
                p1[r0 + t] = acc1[t];
            }
        }
        // Ragged tail (stride not a multiple of the tile).
        if (r0 < stride) {
            double acc0[kLaneTile] = {};
            double acc1[kLaneTile] = {};
            const std::size_t tail = stride - r0;
            for (std::size_t k = 0; k < fanin; ++k) {
                const double w0k = w0[k];
                const double w1k = w1[k];
                const double *ak = actT + k * stride + r0;
                for (std::size_t t = 0; t < tail; ++t) {
                    acc0[t] += w0k * ak[t];
                    acc1[t] += w1k * ak[t];
                }
            }
            for (std::size_t t = 0; t < tail; ++t) {
                p0[r0 + t] = acc0[t];
                p1[r0 + t] = acc1[t];
            }
        }
    }
    // Odd final unit.
    if (u < units) {
        const double *wu = w + u * fanin;
        double *pu = preT + u * stride;
        std::size_t r0 = 0;
        for (; r0 + kLaneTile <= stride; r0 += kLaneTile) {
            double acc[kLaneTile] = {};
            for (std::size_t k = 0; k < fanin; ++k) {
                const double wk = wu[k];
                const double *ak = actT + k * stride + r0;
#pragma omp simd
                for (std::size_t t = 0; t < kLaneTile; ++t)
                    acc[t] += wk * ak[t];
            }
#pragma omp simd
            for (std::size_t t = 0; t < kLaneTile; ++t)
                pu[r0 + t] = acc[t];
        }
        if (r0 < stride) {
            double acc[kLaneTile] = {};
            const std::size_t tail = stride - r0;
            for (std::size_t k = 0; k < fanin; ++k) {
                const double wk = wu[k];
                const double *ak = actT + k * stride + r0;
                for (std::size_t t = 0; t < tail; ++t)
                    acc[t] += wk * ak[t];
            }
            for (std::size_t t = 0; t < tail; ++t)
                pu[r0 + t] = acc[t];
        }
    }
}

void
destandardizeFromLanes(const double *zt, double *y, std::size_t nb,
                       std::size_t stride, std::size_t d,
                       const double *mu, const double *sigma)
{
    for (std::size_t r = 0; r < nb; ++r) {
        double *yr = y + r * d;
        for (std::size_t j = 0; j < d; ++j)
            yr[j] = zt[j * stride + r] * sigma[j] + mu[j];
    }
}

void
transposeFromLanes(const double *xt, double *y, std::size_t nb,
                   std::size_t stride, std::size_t d)
{
    for (std::size_t r = 0; r < nb; ++r) {
        double *yr = y + r * d;
        for (std::size_t j = 0; j < d; ++j)
            yr[j] = xt[j * stride + r];
    }
}

} // namespace kernels
} // namespace numeric
} // namespace wcnn
