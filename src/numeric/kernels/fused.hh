/**
 * @file
 * Primitives of the fused standardize -> forward -> destandardize
 * serving path.
 *
 * The per-row composition (ModelBundle::predict) allocates a handful
 * of vectors per row (row copy, transform result, per-layer
 * pre-activations, inverse result). The fused path behind
 * Mlp::forward(Matrix) and ModelBundle::predictAll runs the same
 * arithmetic over arena scratch in row blocks: zero heap traffic and
 * one pass per stage.
 *
 * Inside a block, activations live LANE-MAJOR: a d x stride panel
 * where element [j][r] is feature j of row r. Lanes (rows) are fully
 * independent, so every kernel vectorizes across them with unit
 * stride — and a dense layer's k-reduction runs as a scalar chain
 * per lane, never reassociated. That is the bit-identity argument:
 *   standardize     z = (x - mu) / sigma         (same expression)
 *   dense layer     pre[u] = sum_k W[u][k] * act[k], ascending k,
 *                   accumulator starting at 0.0   (gemv's exact
 *                   order, one chain per lane)
 *   destandardize   y = z * sigma + mu           (same expression)
 * The kernel-equivalence harness asserts bitwise equality of the
 * whole fused path against the per-row composition.
 *
 * The transposed layout also means the weights are consumed row-major
 * exactly as stored — no packing pass — and an 8-lane register tile
 * keeps the accumulators out of memory, sidestepping the
 * store-to-load stalls a units-major update loop suffers on narrow
 * layers.
 *
 * Layering: these are pure array kernels (no nn/data types); the
 * orchestration that knows about layers, biases and activations lives
 * in nn::Mlp::fusedForward, and the standardizer moments are threaded
 * down from serve::ModelBundle.
 */

#ifndef WCNN_NUMERIC_KERNELS_FUSED_HH
#define WCNN_NUMERIC_KERNELS_FUSED_HH

#include <cstddef>

namespace wcnn {
namespace numeric {
namespace kernels {

/**
 * Row-wise z-score: z[r][j] = (x[r][j] - mu[j]) / sigma[j] over a
 * row-major rows x d block. In-place (z == x) is allowed.
 */
void standardizeRows(const double *x, double *z, std::size_t rows,
                     std::size_t d, const double *mu,
                     const double *sigma);

/**
 * Row-wise inverse z-score: y[r][j] = z[r][j] * sigma[j] + mu[j].
 * In-place (y == z) is allowed.
 */
void destandardizeRows(const double *z, double *y, std::size_t rows,
                       std::size_t d, const double *mu,
                       const double *sigma);

/**
 * Transpose a row-major nb x d block into a lane-major d x stride
 * panel, z-scoring on the way: xt[j][r] = (x[r][j] - mu[j]) /
 * sigma[j]. Padding lanes nb..stride-1 are zero-filled so downstream
 * kernels may compute full-width tiles over them.
 */
void standardizeToLanes(const double *x, double *xt, std::size_t nb,
                        std::size_t stride, std::size_t d,
                        const double *mu, const double *sigma);

/** As standardizeToLanes without the z-score (plain transpose). */
void transposeToLanes(const double *x, double *xt, std::size_t nb,
                      std::size_t stride, std::size_t d);

/**
 * Lane-major dense layer: preT[u][r] = sum_k w[u][k] * actT[k][r]
 * for every lane r in [0, stride), k ascending from an accumulator
 * starting at 0.0 — gemv's per-element order. actT is
 * fanin x stride, w is the layer's row-major units x fanin weights
 * as stored, preT is units x stride and is overwritten. Bias and
 * activation are applied by the caller (they follow the per-row
 * expression f(pre + bias) exactly). The three panels must not
 * overlap.
 */
void denseLayerForwardLanes(const double *actT, const double *w,
                            double *preT, std::size_t stride,
                            std::size_t fanin, std::size_t units);

/**
 * Transpose a lane-major d x stride panel back to a row-major nb x d
 * block, applying the inverse z-score:
 * y[r][j] = zt[j][r] * sigma[j] + mu[j]. Padding lanes are dropped.
 */
void destandardizeFromLanes(const double *zt, double *y,
                            std::size_t nb, std::size_t stride,
                            std::size_t d, const double *mu,
                            const double *sigma);

/** As destandardizeFromLanes without the z-score (plain transpose). */
void transposeFromLanes(const double *xt, double *y, std::size_t nb,
                        std::size_t stride, std::size_t d);

} // namespace kernels
} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_KERNELS_FUSED_HH
