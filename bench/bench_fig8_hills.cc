/**
 * @file
 * Figure 8 reproduction: the "hills" case. Effective throughput peaks
 * at an interior combination of (default queue, web queue); fixing
 * either knob at a bad value hides the peak from a one-dimensional
 * sweep ("a huge optimization effort will be futile").
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
        "Figure 8: hills — effective throughput over (default queue, "
        "web queue) at (560, x, 16, y)");

    const model::StudyResult study = bench::canonicalStudy(false, threads);
    const auto grid = [&] {
        model::SurfaceRequest req = bench::paperSlice(4);
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
                                          bench::paperSlice(4), 0.5);
    std::printf("\nactual samples on the slice (the figure's dots):\n");
    for (const auto &dot : dots) {
        std::printf("  default=%5.1f web=%5.1f  %s=%.3f\n", dot[0],
                    dot[1], grid.indicatorName.c_str(), dot[2]);
    }

    std::printf("\nsimulated ground truth (coarse grid, 3 seeds per "
                "cell):\n");
    const auto truth = bench::desSliceGrid(4, 5, 4, 3);
    bench::printSurface(truth);

    std::size_t pa, pb;
    grid.zMax(&pa, &pb);
    std::printf("\nmodel peak at (default=%.0f, web=%.0f); paper "
                "reports its peak at (default=10, web=20)\n",
                grid.aValues[pa], grid.bValues[pb]);

    // Shape criteria.
    bench::printVerdict("model surface classifies as a hill",
                        analysis.cls == model::SurfaceClass::Hill);
    bench::printVerdict(
        "peak is interior along at least one axis (model surface)",
        (pa > 0 && pa + 1 < grid.z.rows()) ||
            (pb > 0 && pb + 1 < grid.z.cols()));

    // Single-knob tuning misses the peak: sweeping web at the starved
    // default row never reaches 80 % of the true peak.
    double best_on_bad_row = 0.0;
    for (std::size_t j = 0; j < grid.z.cols(); ++j)
        best_on_bad_row = std::max(best_on_bad_row, grid.z(0, j));
    bench::printVerdict(
        "sweeping the web queue at default=0 misses the peak (< 80 %)",
        best_on_bad_row < 0.8 * grid.zMax());

    // Ground truth agrees that the starved-default row collapses.
    double truth_bad = 0.0;
    for (std::size_t j = 0; j < truth.z.cols(); ++j)
        truth_bad = std::max(truth_bad, truth.z(0, j));
    bench::printVerdict(
        "ground truth: default=0 row under 80 % of the peak",
        truth_bad < 0.8 * truth.zMax());
    return 0;
}
