/**
 * @file
 * Hyperparameter selection for the NN model (paper section 3.2).
 *
 * The paper hand-tuned the MLP node count and the termination threshold
 * on the first cross-validation trial and reused them for the remaining
 * trials. GridSearch automates that protocol: every candidate
 * (hidden-node count, stop threshold) pair is scored by the paper's
 * error metric on a held-out slice of the training data, and the best
 * pair is returned for use across all trials.
 */

#ifndef WCNN_MODEL_GRID_SEARCH_HH
#define WCNN_MODEL_GRID_SEARCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "model/cross_validation.hh"
#include "model/nn_model.hh"

namespace wcnn {
namespace model {

/** One evaluated hyperparameter candidate. */
struct GridSearchEntry
{
    /** Hidden-layer unit count. */
    std::size_t hiddenUnits = 0;
    /** Training stop threshold (standardized-MSE units). */
    double targetLoss = 0.0;
    /** Paper's error metric on the held-out slice. */
    double validationError = 0.0;

    /** True when the candidate was quarantined (never the winner). */
    bool failed = false;

    /** what() of the quarantined failure; empty when the run scored. */
    std::string error;
};

/** Search outcome. */
struct GridSearchResult
{
    /** Every candidate with its score, in evaluation order. */
    std::vector<GridSearchEntry> entries;
    /** Index of the best entry (lowest validation error). */
    std::size_t bestIndex = 0;

    /** The winning candidate. */
    const GridSearchEntry &best() const { return entries[bestIndex]; }

    /** Number of candidates that were quarantined. */
    std::size_t failedCount() const;
};

/** Search space and protocol options. */
struct GridSearchOptions
{
    /** Hidden-node candidates. */
    std::vector<std::size_t> hiddenUnits = {8, 12, 16, 20};

    /** Stop-threshold candidates (standardized MSE). */
    std::vector<double> targetLosses = {0.05, 0.02, 0.008};

    /** Fraction of the data used for fitting each candidate. */
    double trainFraction = 0.75;

    /** Seed for the holdout split. */
    std::uint64_t seed = 11;

    /**
     * Worker threads for the candidate evaluations
     * (core::parallelFor); 0 selects the hardware count, 1 runs
     * serially. The holdout split is drawn once up front and every
     * candidate is a pure function of it, so scores, entry order, and
     * the best() tie-break are bit-identical at every thread count.
     */
    std::size_t threads = 0;

    /**
     * Failure policy for individual candidates. Quarantine scores the
     * survivors and excludes failed candidates from the winner
     * selection; Strict (default) keeps the historical first-failure
     * abort.
     */
    OnFailure onFailure = OnFailure::Strict;
};

/**
 * Evaluate every (hiddenUnits, targetLoss) candidate on a single
 * holdout split and return all scores.
 *
 * @param base    NN options shared by all candidates (layers/threshold
 *                fields are overwritten per candidate).
 * @param ds      Sample collection.
 * @param options Search space and failure policy.
 * @throws wcnn::Error (kind "grid") in quarantine mode when every
 *         candidate failed — there is no winner to return.
 */
GridSearchResult gridSearch(const NnModelOptions &base,
                            const data::Dataset &ds,
                            const GridSearchOptions &options = {});

/**
 * Convenience: run gridSearch and return the base options with the
 * winning hidden-node count and stop threshold applied.
 */
NnModelOptions tunedOptions(const NnModelOptions &base,
                            const data::Dataset &ds,
                            const GridSearchOptions &options = {});

} // namespace model
} // namespace wcnn

#endif // WCNN_MODEL_GRID_SEARCH_HH
