/**
 * @file
 * Figure 4 reproduction: the "parallel slopes" case. On the slice
 * (560, x, 16, y) the manufacturing response time is nearly flat along
 * the default-queue axis (tuning it is futile) while the web queue
 * moves it substantially.
 *
 * The manufacturing pool sits at a saturation knee, so single cells
 * are noisy; the shape criteria therefore use ANOVA-style main
 * effects — the range of per-row and per-column means — which average
 * the noise out.
 */

#include <cstdio>

#include <cmath>

#include "common.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "parallel_report.hh"

namespace {

/**
 * Linear main effect of one axis: the OLS slope of z against the axis
 * coordinate (using every cell), times the axis span. Robust to the
 * per-cell noise of the knife-edge manufacturing pool.
 */
double
linearMainEffect(const wcnn::model::SurfaceGrid &grid, bool row_axis)
{
    double sxy = 0.0, sxx = 0.0, x_mean = 0.0, z_mean = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < grid.z.rows(); ++i) {
        for (std::size_t j = 0; j < grid.z.cols(); ++j) {
            x_mean += row_axis ? grid.aValues[i] : grid.bValues[j];
            z_mean += grid.z(i, j);
            ++n;
        }
    }
    x_mean /= static_cast<double>(n);
    z_mean /= static_cast<double>(n);
    for (std::size_t i = 0; i < grid.z.rows(); ++i) {
        for (std::size_t j = 0; j < grid.z.cols(); ++j) {
            const double x =
                (row_axis ? grid.aValues[i] : grid.bValues[j]) -
                x_mean;
            sxy += x * (grid.z(i, j) - z_mean);
            sxx += x * x;
        }
    }
    const double slope = sxy / sxx;
    const double span = row_axis
                            ? grid.aValues.back() - grid.aValues.front()
                            : grid.bValues.back() - grid.bValues.front();
    return slope * span;
}

double
rowMainEffect(const wcnn::model::SurfaceGrid &grid)
{
    return std::fabs(linearMainEffect(grid, true));
}

double
colMainEffect(const wcnn::model::SurfaceGrid &grid)
{
    return std::fabs(linearMainEffect(grid, false));
}

/** First and last per-column means (web trend endpoints). */
std::pair<double, double>
webTrendEndpoints(const wcnn::model::SurfaceGrid &grid)
{
    const auto col_mean = [&](std::size_t j) {
        double mean = 0.0;
        for (std::size_t i = 0; i < grid.z.rows(); ++i)
            mean += grid.z(i, j);
        return mean / static_cast<double>(grid.z.rows());
    };
    return {col_mean(0), col_mean(grid.z.cols() - 1)};
}

} // namespace

int
main(int argc, char **argv)
{
    auto recorder =
        wcnn::core::telemetry::Recorder::fromArgs(argc, argv);
    // Chaos drills: `--failpoints "site=nth:2"` or WCNN_FAILPOINTS.
    wcnn::core::failpoint::installFromArgs(argc, argv);
    using namespace wcnn;
    const std::size_t threads = bench::parseThreads(argc, argv);
    bench::printHeader(
        "Figure 4: parallel slopes — manufacturing response time over "
        "(default queue, web queue) at (560, x, 16, y)");

    // Model-predicted surface (what the paper plots).
    const model::StudyResult study = bench::canonicalStudy(false, threads);
    const auto grid = [&] {
        model::SurfaceRequest req = bench::paperSlice(0);
        req.threads = threads;
        return model::sweepSurface(study.finalModel, req,
                                   study.dataset);
    }();
    std::printf("\nmodel-predicted surface:\n");
    bench::printSurface(grid);


    // The paper overlays the actual measurements as dots on the
    // surface; list the on-slice samples here.
    const auto dots = model::sliceSamples(study.dataset,
                                          bench::paperSlice(0), 0.5);
    std::printf("\nactual samples on the slice (the figure's dots):\n");
    for (const auto &dot : dots) {
        std::printf("  default=%5.1f web=%5.1f  %s=%.3f\n", dot[0],
                    dot[1], grid.indicatorName.c_str(), dot[2]);
    }

    // Ground truth from the simulator itself, heavily replicated.
    std::printf("\nsimulated ground truth (5x4 grid, 6 seeds per "
                "cell, long windows)...\n");
    const auto truth = bench::desSliceGrid(0, 5, 4, 10);
    bench::printSurface(truth);

    const double truth_def = rowMainEffect(truth);
    const double truth_web = colMainEffect(truth);
    const auto [truth_w0, truth_w1] = webTrendEndpoints(truth);
    const double model_def = rowMainEffect(grid);
    const double model_web = colMainEffect(grid);
    std::printf("\nmain effects (range of axis means):\n");
    std::printf("  ground truth: default %.3f s, web %.3f s "
                "(web trend %.3f -> %.3f)\n",
                truth_def, truth_web, truth_w0, truth_w1);
    std::printf("  model:        default %.3f s, web %.3f s\n",
                model_def, model_web);

    // Shape criteria ("it will be of no use if one attempts to tune
    // the default queue to achieve a better manufacturing response
    // time" — while the web queue clearly matters).
    bench::printVerdict(
        "ground truth: web main effect >= 2x default main effect",
        truth_web >= 2.0 * truth_def);
    bench::printVerdict(
        "ground truth: mfg response time rises along the web axis",
        truth_w1 > truth_w0);
    bench::printVerdict(
        "model surface: default main effect small relative to the "
        "response level (< 15 %)",
        model_def < 0.15 * (grid.zMax() + grid.zMin()) / 2.0);
    return 0;
}
