/**
 * @file
 * Z-score standardization (paper section 3.1).
 *
 * Each configuration parameter is standardized — mean subtracted, then
 * divided by the standard deviation — before training, so that randomly
 * initialized hyperplanes actually cut through the sample cloud instead
 * of missing it and stranding gradient descent in a local minimum. When
 * multiple performance indicators are fit jointly, the indicators are
 * standardized too so that no single high-magnitude indicator dominates
 * the gradient.
 */

#ifndef WCNN_DATA_STANDARDIZER_HH
#define WCNN_DATA_STANDARDIZER_HH

#include <cstddef>
#include <vector>

#include "numeric/matrix.hh"

namespace wcnn {
namespace data {

/**
 * Per-feature z-score transform fitted on a sample matrix.
 *
 * Constant features (stddev 0) pass through centering only: they are
 * shifted to zero and scaled by 1, so transform/inverse stay exact.
 */
class Standardizer
{
  public:
    /** Identity transform over zero features; call fit() before use. */
    Standardizer() = default;

    /**
     * Exact identity transform over d features (mean 0, scale 1), for
     * callers that want to disable standardization uniformly.
     *
     * @param d Feature count.
     */
    static Standardizer identity(std::size_t d);

    /**
     * Rebuild a transform from stored moments (deserialization).
     *
     * @param mu    Per-feature means.
     * @param sigma Per-feature scales; all > 0, same size as mu.
     */
    static Standardizer fromMoments(numeric::Vector mu,
                                    numeric::Vector sigma);

    /**
     * Fit means and standard deviations column-wise.
     *
     * @param samples Matrix with one observation per row.
     */
    void fit(const numeric::Matrix &samples);

    /** True once fit() has been called on a non-empty matrix. */
    bool fitted() const { return !mu.empty(); }

    /** Number of features this transform covers. */
    std::size_t dim() const { return mu.size(); }

    /**
     * Standardize one observation.
     *
     * @param x Raw feature vector of size dim().
     * @return (x - mean) / stddev per feature.
     */
    numeric::Vector transform(const numeric::Vector &x) const;

    /**
     * Standardize a whole matrix row-wise in one
     * kernels::standardizeRows pass: the per-element expression of
     * transform(Vector), so bit-identical to it row by row.
     */
    numeric::Matrix transform(const numeric::Matrix &xs) const;

    /**
     * Undo the transform for one observation.
     *
     * @param z Standardized vector of size dim().
     */
    numeric::Vector inverse(const numeric::Vector &z) const;

    /**
     * Undo the transform row-wise in one kernels::destandardizeRows
     * pass; bit-identical to inverse(Vector) row by row.
     */
    numeric::Matrix inverse(const numeric::Matrix &zs) const;

    /** Fitted per-feature means. */
    const numeric::Vector &means() const { return mu; }
    /** Fitted per-feature standard deviations (1 for constants). */
    const numeric::Vector &stddevs() const { return sigma; }

  private:
    numeric::Vector mu;
    numeric::Vector sigma;
};

} // namespace data
} // namespace wcnn

#endif // WCNN_DATA_STANDARDIZER_HH
