/**
 * @file
 * Golden pinning of the Table 2 metrics and the Fig. 5/6 fit curves.
 *
 * The fast analytic-source study is fully deterministic, so its
 * numbers can be pinned to exact golden values: per-indicator average
 * validation errors (the bottom row of Table 2), the overall accuracy,
 * and the head of the actual-vs-predicted curves of trial 1 (the
 * Fig. 5 training fit and Fig. 6 validation fit). Any change to the
 * numeric stack — RNG, standardization, training loop, batched
 * forward, parallel scheduling — that perturbs these values fails here
 * instead of silently shifting the paper reproduction.
 *
 * Regenerate after an *intentional* numeric change with
 *   WCNN_GOLDEN_REGEN=1 ./golden_table2_test
 * and paste the printed block over the constants below.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "model/study.hh"

using wcnn::model::StudyOptions;
using wcnn::model::StudyResult;

namespace {

/** Absolute tolerance on the error metrics (values are 1e-3..1e-1). */
constexpr double kMetricTolerance = 1e-9;

/** Relative tolerance on the fit-curve samples. */
constexpr double kCurveTolerance = 1e-9;

/** Curve samples pinned per figure. */
constexpr std::size_t kCurvePoints = 6;

/** Table 2 bottom row: average validation error per indicator. */
const std::vector<double> kGoldenAvgValidationError = {
    0.048273202147770491,
    0.022883559153013912,
    0.0257720410379698,
    0.017069138738138711,
    0.019446625230594893};

/** Mean prediction accuracy, 1 - mean relative error. */
constexpr double kGoldenOverallAccuracy = 0.97331108673850242;

/** Fig. 5 curve head: trial-1 training predictions, indicator 0. */
const std::vector<double> kGoldenFig5TrainPredicted = {
    0.48332666555313542,
    0.47308614620863509,
    0.41556036902245963,
    0.42543336999257719,
    2.0616407699750177,
    0.5554406915439476};

/** Fig. 6 curve head: trial-1 validation predictions, indicator 0. */
const std::vector<double> kGoldenFig6ValidationPredicted = {
    2.1524084541112183,
    0.56353938374506329,
    0.39845280222937274,
    1.4194214980657882,
    0.34485154714883692,
    1.1859404968409111};

/** Fig. 6 curve head: trial-1 validation actuals, indicator 0. */
const std::vector<double> kGoldenFig6ValidationActual = {
    2.076522086711257,
    0.52590048245481147,
    0.53637272203388031,
    1.9149717813236875,
    0.49922777218001929,
    1.9435564875401461};

/** Options of the deterministic study every golden derives from. */
StudyOptions
goldenStudyOptions()
{
    StudyOptions opts;
    opts.source = StudyOptions::Source::Analytic;
    opts.designSamples = 32;
    opts.sliceAnchorsPerAxis = 3;
    opts.tune = false;
    opts.nn.hiddenUnits = {8};
    opts.nn.train.targetLoss = 0.02;
    opts.seed = 2006;
    return opts;
}

/** The golden study (run once). */
const StudyResult &
goldenStudy()
{
    static const StudyResult study = runStudy(goldenStudyOptions());
    return study;
}

/** Assert one study reproduces every pinned golden constant. */
void
expectGoldenValues(const StudyResult &study)
{
    const auto avg = study.cv.averageValidationError();
    ASSERT_EQ(avg.size(), 5u);
    for (std::size_t j = 0; j < avg.size(); ++j) {
        EXPECT_NEAR(avg[j], kGoldenAvgValidationError[j],
                    kMetricTolerance)
            << "indicator " << study.cv.indicatorNames[j];
    }
    EXPECT_NEAR(study.cv.overallAccuracy(), kGoldenOverallAccuracy,
                kMetricTolerance);

    const auto &trial = study.cv.trials.front();
    ASSERT_GE(trial.trainPredicted.rows(), kCurvePoints);
    ASSERT_GE(trial.validationPredicted.rows(), kCurvePoints);
    for (std::size_t i = 0; i < kCurvePoints; ++i) {
        EXPECT_NEAR(trial.trainPredicted(i, 0),
                    kGoldenFig5TrainPredicted[i],
                    kCurveTolerance *
                        std::fabs(kGoldenFig5TrainPredicted[i]))
            << "Fig. 5 point " << i;
        EXPECT_NEAR(trial.validationPredicted(i, 0),
                    kGoldenFig6ValidationPredicted[i],
                    kCurveTolerance *
                        std::fabs(kGoldenFig6ValidationPredicted[i]))
            << "Fig. 6 point " << i;
        EXPECT_NEAR(trial.validationSet[i].y[0],
                    kGoldenFig6ValidationActual[i],
                    kCurveTolerance *
                        std::fabs(kGoldenFig6ValidationActual[i]))
            << "Fig. 6 actual " << i;
    }
}

void
printVector(const char *name, const std::vector<double> &v)
{
    std::printf("const std::vector<double> %s = {", name);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s\n    %.17g", i ? "," : "", v[i]);
    std::printf("};\n");
}

} // namespace

TEST(GoldenTable2Test, PinnedMetricsAndFitCurves)
{
    const StudyResult &study = goldenStudy();

    if (std::getenv("WCNN_GOLDEN_REGEN") != nullptr) {
        const auto avg = study.cv.averageValidationError();
        const auto &trial = study.cv.trials.front();
        std::vector<double> fig5(kCurvePoints), fig6(kCurvePoints),
            fig6_actual(kCurvePoints);
        for (std::size_t i = 0; i < kCurvePoints; ++i) {
            fig5[i] = trial.trainPredicted(i, 0);
            fig6[i] = trial.validationPredicted(i, 0);
            fig6_actual[i] = trial.validationSet[i].y[0];
        }
        printVector("kGoldenAvgValidationError", avg);
        std::printf("constexpr double kGoldenOverallAccuracy = "
                    "%.17g;\n",
                    study.cv.overallAccuracy());
        printVector("kGoldenFig5TrainPredicted", fig5);
        printVector("kGoldenFig6ValidationPredicted", fig6);
        printVector("kGoldenFig6ValidationActual", fig6_actual);
        GTEST_SKIP() << "regeneration run; goldens printed above";
    }

    expectGoldenValues(study);
}

TEST(GoldenTable2Test, GoldenStudyStaysInPaperRange)
{
    // Sanity floor independent of the exact goldens: the analytic
    // study must keep the paper's headline quality (accuracy ~95 %).
    const StudyResult &study = goldenStudy();
    for (double e : study.cv.averageValidationError())
        EXPECT_LT(e, 0.15);
    EXPECT_GE(study.cv.overallAccuracy(), 0.90);
}
