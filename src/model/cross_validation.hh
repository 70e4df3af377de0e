/**
 * @file
 * k-fold cross-validation of performance models (paper section 3.3,
 * Table 2).
 *
 * "In k-fold cross validation, a training set is divided into k sets of
 * equal size. Then the model is trained for k times. For each trial,
 * one set is excluded ...; the excluded set, termed validation set, is
 * used to calculate the error metric for the model. Thus collected
 * error values are then averaged over k trials. For error metric,
 * harmonic mean of (absolute error) / (actual value) is used."
 */

#ifndef WCNN_MODEL_CROSS_VALIDATION_HH
#define WCNN_MODEL_CROSS_VALIDATION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hh"
#include "data/dataset.hh"
#include "data/metrics.hh"
#include "data/split.hh"
#include "model/model.hh"

namespace wcnn {
namespace model {

/** Creates a fresh, unfitted model for each trial. */
using ModelFactory = std::function<std::unique_ptr<PerformanceModel>()>;

/**
 * A cross-validation fold (or a whole run) failed. Kind "fold".
 *
 * Raised by crossValidate in quarantine mode when *every* fold fails
 * (partial results would be meaningless), and available for injection
 * at the "cv.fold" failpoint site. fold() identifies the first failing
 * fold.
 */
class FoldFailure : public Error
{
  public:
    /**
     * @param fold    0-based index of the (first) failing fold.
     * @param message Description of the failure.
     */
    FoldFailure(std::size_t fold, const std::string &message);

    /** 0-based index of the (first) failing fold. */
    std::size_t fold() const { return foldIndex; }

  private:
    std::size_t foldIndex;
};

/**
 * What to do when one work item (a CV fold, a grid-search candidate)
 * fails with a recoverable wcnn::Error.
 */
enum class OnFailure
{
    /**
     * Propagate the first failure and abort the whole run (today's
     * behavior, and the default: silent partial results never surprise
     * a caller that didn't opt in).
     */
    Strict,

    /**
     * Quarantine the failing item: record its per-item status + error
     * text, skip it in every aggregate, and keep going. Bugs
     * (wcnn::ContractViolation and other non-wcnn::Error exceptions)
     * still propagate — quarantine is for faults, not bugs.
     */
    Quarantine,
};

/** Options for crossValidate(). */
struct CvOptions
{
    /** Fold count k (paper uses 5). */
    std::size_t folds = 5;

    /** Seed for the fold-assignment permutation. */
    std::uint64_t seed = 7;

    /**
     * Keep per-trial actual/predicted matrices (needed for Fig. 5/6
     * style plots; costs memory proportional to the dataset).
     */
    bool keepPredictions = true;

    /**
     * Worker threads for the k trials (core::parallelFor); 0 selects
     * the hardware count, 1 runs serially. Results are bit-identical
     * at every thread count: the fold permutation is drawn once up
     * front from `seed`, and each trial is a pure function of its fold
     * — the factory seeds any model-internal Rng from its own options,
     * never from a generator shared across trials. The factory must be
     * safe to invoke concurrently.
     */
    std::size_t threads = 0;

    /**
     * Failure policy for individual folds. Quarantine yields partial
     * results with per-trial status; Strict (default) preserves the
     * historical first-failure abort.
     */
    OnFailure onFailure = OnFailure::Strict;
};

/** Outcome of one trial (one held-out fold). */
struct CvTrial
{
    /** Held-out fold number. */
    std::size_t fold = 0;

    /** True when the trial was quarantined (see CvOptions::onFailure). */
    bool failed = false;

    /** what() of the quarantined failure; empty when the trial ran. */
    std::string error;

    /** Paper's error metric per indicator on the validation fold. */
    data::ErrorReport validation;

    /** Same metric on the training folds (for overfitting checks). */
    data::ErrorReport training;

    /** Training samples of the trial (if keepPredictions). */
    data::Dataset trainSet;
    /** Validation samples of the trial (if keepPredictions). */
    data::Dataset validationSet;
    /** Model predictions over trainSet rows (if keepPredictions). */
    numeric::Matrix trainPredicted;
    /** Model predictions over validationSet rows (if keepPredictions). */
    numeric::Matrix validationPredicted;
};

/** Aggregated cross-validation outcome. */
struct CvResult
{
    /** One entry per fold. */
    std::vector<CvTrial> trials;

    /** Indicator names (column order). */
    std::vector<std::string> indicatorNames;

    /** Number of trials that were quarantined. */
    std::size_t failedCount() const;

    /**
     * Per-indicator validation error averaged over trials — the bottom
     * row of the paper's Table 2. Quarantined trials are skipped (the
     * average is over the trials that ran).
     */
    std::vector<double> averageValidationError() const;

    /** Mean of averageValidationError() across indicators. */
    double overallValidationError() const;

    /**
     * Overall prediction accuracy 1 - mean relative error (the paper
     * quotes "average prediction accuracy of 95%").
     */
    double overallAccuracy() const;
};

/**
 * Run k-fold cross validation.
 *
 * @param factory Produces an unfitted model per trial.
 * @param ds      Full sample collection.
 * @param options Fold count, seed, retention, failure policy.
 * @throws FoldFailure in quarantine mode when every fold failed.
 */
CvResult crossValidate(const ModelFactory &factory,
                       const data::Dataset &ds,
                       const CvOptions &options = {});

/**
 * Render a CvResult as the paper's Table 2: one row per trial, one
 * column per indicator, plus the average row.
 *
 * @param result  Cross-validation outcome.
 * @param percent Render errors as percentages (paper style).
 */
std::string formatTable(const CvResult &result, bool percent = true);

} // namespace model
} // namespace wcnn

#endif // WCNN_MODEL_CROSS_VALIDATION_HH
