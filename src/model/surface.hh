/**
 * @file
 * Model-predicted response surfaces (paper section 5, Figs. 4/7/8).
 *
 * After validation, the paper uses the model as a surrogate: fix two of
 * the four configuration parameters, sweep the other two over a grid,
 * and plot the predicted indicator as a 3-D surface — e.g. the
 * "(560, x, 16, y)" slices that fix injection rate 560 and mfg queue 16
 * while sweeping the default and web queues. This module produces those
 * grids and can overlay the actual samples near the slice.
 */

#ifndef WCNN_MODEL_SURFACE_HH
#define WCNN_MODEL_SURFACE_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "model/model.hh"
#include "numeric/matrix.hh"

namespace wcnn {
namespace model {

/** Request for one 2-D sweep. */
struct SurfaceRequest
{
    /** Input index swept along the surface rows. */
    std::size_t axisA = 0;
    /** Input index swept along the surface columns. */
    std::size_t axisB = 1;
    /** Output (indicator) index evaluated. */
    std::size_t indicator = 0;

    /**
     * Values of every input; the axisA/axisB entries give the slice
     * anchor and are overwritten during the sweep.
     */
    numeric::Vector fixed;

    /** Sweep range along axisA. */
    double loA = 0.0, hiA = 1.0;
    /** Sweep range along axisB. */
    double loB = 0.0, hiB = 1.0;

    /** Grid resolution (>= 2 each). */
    std::size_t pointsA = 11, pointsB = 11;

    /**
     * Worker threads for the sweep (core::parallelFor over the axisA
     * rows); 0 selects the hardware count, 1 runs serially. Each row
     * is evaluated as one batched predictAll over its pointsB probes
     * and written to its own rows of z, so the grid is bit-identical
     * at every thread count.
     */
    std::size_t threads = 0;
};

/** Sampled surface. */
struct SurfaceGrid
{
    /** Swept input names. */
    std::string axisAName, axisBName;
    /** Indicator name. */
    std::string indicatorName;
    /** Slice description, e.g. "(560, x, 16, y)". */
    std::string sliceLabel;

    /** Grid coordinates along axisA (rows of z). */
    std::vector<double> aValues;
    /** Grid coordinates along axisB (columns of z). */
    std::vector<double> bValues;
    /** Predicted indicator: z(i, j) at (aValues[i], bValues[j]). */
    numeric::Matrix z;

    /** Minimum of z with its grid location. */
    double zMin(std::size_t *ai = nullptr,
                std::size_t *bj = nullptr) const;
    /** Maximum of z with its grid location. */
    double zMax(std::size_t *ai = nullptr,
                std::size_t *bj = nullptr) const;

    /** Gnuplot-style matrix dump (one row per aValue). */
    std::string toText() const;

    /**
     * ASCII heat map of the surface: one character cell per grid
     * point, dark-to-bright ramp from zMin to zMax, with axis labels.
     * The textual stand-in for the paper's 3-D plots.
     */
    std::string toHeatmap() const;
};

/**
 * Sweep a fitted model over a 2-D slice.
 *
 * @param mdl     Fitted model.
 * @param request Slice specification.
 * @param ds      Dataset supplying input/output names (shape metadata
 *                only; no samples are evaluated).
 */
SurfaceGrid sweepSurface(const PerformanceModel &mdl,
                         const SurfaceRequest &request,
                         const data::Dataset &ds);

/**
 * Actual samples lying on (or near) the slice, for the dot overlays of
 * the paper's figures.
 *
 * @param ds        Sample collection.
 * @param request   Slice specification.
 * @param tolerance Max |fixed-input difference| for a sample to count.
 * @return Matching samples as (a, b, y) triples.
 */
std::vector<std::array<double, 3>>
sliceSamples(const data::Dataset &ds, const SurfaceRequest &request,
             double tolerance);

} // namespace model
} // namespace wcnn

#endif // WCNN_MODEL_SURFACE_HH
