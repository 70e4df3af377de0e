/**
 * @file
 * Shared harness for the table/figure reproduction benches.
 *
 * Every bench regenerates one table or figure of the paper from the
 * same canonical study (seed 2006): a Latin-hypercube + slice-anchored
 * sample collection from the 3-tier simulator, a fixed tuned network
 * (16 logistic hidden units, stop threshold 0.02 — the values the
 * tuning protocol selects; bench_table2 re-runs the protocol itself),
 * 5-fold cross validation, and a final surrogate fitted on all
 * samples. The collected dataset is cached as CSV next to the bench
 * binaries so subsequent benches skip the simulation.
 *
 * Every bench, figure or not, appends its BENCH_*.json records through
 * appendJsonRecord().
 */

#ifndef WCNN_BENCH_COMMON_HH
#define WCNN_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "model/classify.hh"
#include "model/study.hh"
#include "model/surface.hh"

namespace wcnn {
namespace bench {

/** Canonical study options used by every figure/table bench. */
model::StudyOptions canonicalOptions();

/**
 * Run (or load from cache) the canonical study.
 *
 * @param tune Re-run the hyperparameter tuning protocol instead of
 *             using the canonical fixed values.
 */
model::StudyResult canonicalStudy(bool tune = false);

/**
 * The paper's analysis slice "(560, x, 16, y)": injection rate 560 and
 * mfg queue 16 fixed; default queue swept as x, web queue as y.
 *
 * @param indicator Output index to evaluate.
 */
model::SurfaceRequest paperSlice(std::size_t indicator);

/** Print a surface grid with its slice header, paper style. */
void printSurface(const model::SurfaceGrid &grid);

/**
 * Ground-truth surface: run the discrete-event simulator itself over
 * the paper slice (no model in between), averaging seeds per cell.
 *
 * @param indicator  Output index.
 * @param points_a   Default-queue grid points.
 * @param points_b   Web-queue grid points.
 * @param replicates Seeds averaged per cell.
 */
model::SurfaceGrid desSliceGrid(std::size_t indicator,
                                std::size_t points_a,
                                std::size_t points_b,
                                std::size_t replicates);

/** Print a classification verdict line. */
void printVerdict(const std::string &what, bool pass);

/** Print a section separator with a title. */
void printHeader(const std::string &title);

/**
 * Append one JSON object to the JSON array in `path` (created on
 * first use; the file stays a valid array across appends, so benches
 * and repeated runs can share one record file).
 *
 * @param path   Record file, relative to the working directory.
 * @param record One JSON object, as text.
 */
void appendJsonRecord(const std::string &path, const std::string &record);

} // namespace bench
} // namespace wcnn

#endif // WCNN_BENCH_COMMON_HH
