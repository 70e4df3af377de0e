#include "cross_validation.hh"

#include <iomanip>
#include <sstream>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "core/parallel.hh"
#include "core/telemetry.hh"

#include "numeric/rng.hh"
#include "numeric/stats.hh"

namespace wcnn {
namespace model {

FoldFailure::FoldFailure(std::size_t fold, const std::string &message)
    : Error("fold", "fold " + std::to_string(fold) + ": " + message),
      foldIndex(fold)
{
}

std::size_t
CvResult::failedCount() const
{
    std::size_t n = 0;
    for (const auto &trial : trials)
        n += trial.failed ? 1 : 0;
    return n;
}

std::vector<double>
CvResult::averageValidationError() const
{
    std::vector<double> avg;
    std::size_t ok = 0;
    for (const auto &trial : trials) {
        if (trial.failed)
            continue;
        if (avg.empty())
            avg.assign(trial.validation.harmonicError.size(), 0.0);
        for (std::size_t j = 0; j < avg.size(); ++j)
            avg[j] += trial.validation.harmonicError[j];
        ++ok;
    }
    for (auto &v : avg)
        v /= static_cast<double>(ok);
    return avg;
}

double
CvResult::overallValidationError() const
{
    return numeric::mean(averageValidationError());
}

double
CvResult::overallAccuracy() const
{
    // 1 minus the paper's error metric (harmonic-mean relative error),
    // averaged over indicators and trials — the basis of the paper's
    // "average prediction accuracy of 95%" claim.
    return 1.0 - overallValidationError();
}

CvResult
crossValidate(const ModelFactory &factory, const data::Dataset &ds,
              const CvOptions &options)
{
    WCNN_REQUIRE(options.folds >= 2, "cross-validation needs >= 2 folds, got ",
                 options.folds);
    WCNN_REQUIRE(ds.size() >= options.folds, "dataset of ", ds.size(),
                 " samples cannot be split into ", options.folds, " folds");

    // The fold permutation is drawn once, before the parallel region,
    // so it is independent of thread count.
    numeric::Rng rng(options.seed);
    const data::KFold kfold(ds.size(), options.folds, rng);

    CvResult result;
    result.indicatorNames = ds.outputs();
    result.trials.resize(options.folds);

    WCNN_SPAN("cv", options.folds, ds.size());

    // Each trial writes only its own index-addressed slot. In Strict
    // mode exceptions (a diverging trainer, a contract violation)
    // propagate first-failure out of parallelFor; in Quarantine mode a
    // recoverable wcnn::Error is recorded on the trial and the other
    // folds keep running (bugs still propagate either way).
    core::parallelFor(options.folds, options.threads, [&](std::size_t f) {
        WCNN_SPAN("cv.fold", f);
        try {
            WCNN_FAILPOINT("cv.fold",
                           throw FoldFailure(f, "injected: cv.fold"));
            const data::Split split = kfold.split(ds, f);
            auto model = factory();
            model->fit(split.train);

            const numeric::Matrix train_pred =
                model->predictAll(split.train);
            const numeric::Matrix val_pred =
                model->predictAll(split.validation);

            CvTrial trial;
            trial.fold = f;
            trial.training = data::evaluate(ds.outputs(),
                                            split.train.yMatrix(),
                                            train_pred);
            trial.validation = data::evaluate(ds.outputs(),
                                              split.validation.yMatrix(),
                                              val_pred);
            // Arg 1 must be bit-identical to the score derived from the
            // returned trials (pinned by telemetry_pipeline_test).
            WCNN_EVENT("cv.fold.error", f,
                       numeric::mean(trial.validation.harmonicError),
                       numeric::mean(trial.training.harmonicError));
            if (options.keepPredictions) {
                trial.trainSet = split.train;
                trial.validationSet = split.validation;
                trial.trainPredicted = train_pred;
                trial.validationPredicted = val_pred;
            }
            result.trials[f] = std::move(trial);
        } catch (const Error &e) {
            if (options.onFailure == OnFailure::Strict)
                throw;
            WCNN_EVENT("cv.fold.quarantined", f);
            CvTrial trial;
            trial.fold = f;
            trial.failed = true;
            trial.error = e.what();
            result.trials[f] = std::move(trial);
        }
    });

    if (result.failedCount() == result.trials.size()) {
        std::string first = result.trials.front().error;
        throw FoldFailure(result.trials.front().fold,
                          "all " + std::to_string(options.folds) +
                              " folds failed; first: " + first);
    }
    return result;
}

std::string
formatTable(const CvResult &result, bool percent)
{
    std::ostringstream os;
    const double scale = percent ? 100.0 : 1.0;
    const char *unit = percent ? " %" : "";

    os << std::left << std::setw(8) << "Trial";
    for (const auto &name : result.indicatorNames)
        os << std::right << std::setw(22) << name;
    os << '\n';

    os << std::fixed << std::setprecision(percent ? 1 : 4);
    for (const auto &trial : result.trials) {
        os << std::left << std::setw(8) << (trial.fold + 1);
        if (trial.failed) {
            for (std::size_t j = 0; j < result.indicatorNames.size(); ++j)
                os << std::right << std::setw(22) << "failed";
            os << '\n';
            continue;
        }
        for (double e : trial.validation.harmonicError) {
            std::ostringstream cell;
            cell << std::fixed
                 << std::setprecision(percent ? 1 : 4) << e * scale
                 << unit;
            os << std::right << std::setw(22) << cell.str();
        }
        os << '\n';
    }

    os << std::left << std::setw(8) << "Average";
    for (double e : result.averageValidationError()) {
        std::ostringstream cell;
        cell << std::fixed << std::setprecision(percent ? 1 : 4)
             << e * scale << unit;
        os << std::right << std::setw(22) << cell.str();
    }
    os << '\n';
    return os.str();
}

} // namespace model
} // namespace wcnn
