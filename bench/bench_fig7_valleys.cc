/**
 * @file
 * Figure 7 reproduction: the "valleys" case. The dealer purchase
 * response time forms a trough in the (default queue, web queue)
 * plane: its minimum is only reachable by adjusting both parameters
 * jointly, and single-knob tuning gets stuck on a wall.
 */

#include <cstdio>

#include "common.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "parallel_report.hh"

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
        "Figure 7: valleys — dealer purchase response time over "
        "(default queue, web queue) at (560, x, 16, y)");

    const model::StudyResult study = bench::canonicalStudy(false, threads);
    const auto grid = [&] {
        model::SurfaceRequest req = bench::paperSlice(1);
        req.threads = threads;
        return model::sweepSurface(study.finalModel, req,
                                   study.dataset);
    }();
    std::printf("\nmodel-predicted surface:\n");
    bench::printSurface(grid);

    const auto analysis = model::classifySurface(grid);
    std::printf("\nmodel-surface classification: %s\n",
                analysis.describe().c_str());


    // The paper overlays the actual measurements as dots on the
    // surface; list the on-slice samples here.
    const auto dots = model::sliceSamples(study.dataset,
                                          bench::paperSlice(1), 0.5);
    std::printf("\nactual samples on the slice (the figure's dots):\n");
    for (const auto &dot : dots) {
        std::printf("  default=%5.1f web=%5.1f  %s=%.3f\n", dot[0],
                    dot[1], grid.indicatorName.c_str(), dot[2]);
    }

    std::printf("\nsimulated ground truth (coarse grid, 3 seeds per "
                "cell):\n");
    const auto truth = bench::desSliceGrid(1, 5, 4, 3);
    bench::printSurface(truth);

    // Shape criteria.
    bench::printVerdict("model surface classifies as a valley",
                        analysis.cls == model::SurfaceClass::Valley);

    // Joint tuning matters: the best web column depends on the default
    // row (the trough is not axis-aligned). Compare the argmin over
    // web at a starved vs a healthy default setting on the model grid.
    const auto argmin_web = [&](std::size_t row) {
        std::size_t best = 0;
        for (std::size_t j = 1; j < grid.z.cols(); ++j)
            if (grid.z(row, j) < grid.z(row, best))
                best = j;
        return best;
    };
    std::size_t lo_row_argmin = argmin_web(1);
    std::size_t hi_row_argmin = argmin_web(grid.z.rows() - 1);
    std::printf("\nbest web column at default=%.0f: web=%.0f; at "
                "default=%.0f: web=%.0f\n",
                grid.aValues[1], grid.bValues[lo_row_argmin],
                grid.aValues[grid.z.rows() - 1],
                grid.bValues[hi_row_argmin]);

    // Walls on the default axis: starving the default queue blows the
    // response time up (left wall); the far side rises again mildly.
    const std::size_t mid_col = grid.z.cols() / 2;
    std::size_t min_row = 0;
    for (std::size_t i = 1; i < grid.z.rows(); ++i)
        if (grid.z(i, mid_col) < grid.z(min_row, mid_col))
            min_row = i;
    bench::printVerdict(
        "left wall: default-starved response time >= 3x the valley "
        "floor (ground truth)",
        truth.z(0, truth.z.cols() / 2) >=
            3.0 * truth.zMin());
    bench::printVerdict(
        "valley floor is interior along the default axis (model "
        "surface)",
        min_row > 0 && min_row + 1 < grid.z.rows());
    bench::printVerdict(
        "manage shows the same valley (paper: 'similar distribution')",
        model::classifySurface(
            model::sweepSurface(study.finalModel,
                                bench::paperSlice(2), study.dataset))
                .cls == model::SurfaceClass::Valley);
    return 0;
}
