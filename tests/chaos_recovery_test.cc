/**
 * @file
 * Recovery semantics under injected faults: resumable training
 * divergence, collector retry/drop bookkeeping, and the
 * strict-vs-quarantine policies of cross-validation and grid search.
 * Scenarios that need library-side injection sites skip when the
 * library was built with WCNN_NO_FAILPOINTS (the no-contracts preset);
 * the natural-divergence resume path runs everywhere.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/error.hh"
#include "core/failpoint.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/linear_model.hh"
#include "model/study.hh"
#include "nn/trainer.hh"
#include "numeric/rng.hh"
#include "sim/sample_space.hh"

namespace fp = wcnn::core::failpoint;

using wcnn::data::Dataset;
using wcnn::model::crossValidate;
using wcnn::model::CvOptions;
using wcnn::model::FoldFailure;
using wcnn::model::formatTable;
using wcnn::model::GridSearchOptions;
using wcnn::model::gridSearch;
using wcnn::model::LinearModel;
using wcnn::model::OnFailure;
using wcnn::nn::TrainDivergence;
using wcnn::numeric::Rng;
using wcnn::sim::CollectOptions;
using wcnn::sim::CollectReport;
using wcnn::sim::ConfigStatus;

namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::reset(); }
    void TearDown() override { fp::reset(); }
};

// GTEST_SKIP() only returns from the enclosing function, so the guard
// must expand inside the test body itself — a helper would skip the
// helper and then keep executing the test.
#define REQUIRE_LIBRARY_FAILPOINTS()                                        \
    do {                                                                    \
        if (!fp::compiledIn())                                              \
            GTEST_SKIP() << "library built with WCNN_NO_FAILPOINTS";        \
    } while (0)

Dataset
noisyLinearDataset(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds({"a", "b"}, {"y"});
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(1, 10);
        const double b = rng.uniform(1, 10);
        ds.add({a, b}, {2 * a + b + rng.normal(0, 0.05)});
    }
    return ds;
}

wcnn::model::ModelFactory
linearFactory()
{
    return [] { return std::make_unique<LinearModel>(); };
}

std::vector<wcnn::sim::ThreeTierConfig>
smallDesign(std::size_t n)
{
    Rng rng(5);
    return wcnn::sim::randomDesign(wcnn::sim::SampleSpace::paperLike(), n,
                                   rng);
}

/** Fast sampler for collectDataset tests (analytic, no noise). */
wcnn::sim::SampleFn
analyticSampler()
{
    const auto params = wcnn::sim::WorkloadParams::defaults();
    return [params](const wcnn::sim::ThreeTierConfig &cfg) {
        return wcnn::sim::analyticThreeTier(cfg, params);
    };
}

void
expectSameDataset(const Dataset &a, const Dataset &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].x, b[i].x) << "row " << i;
        EXPECT_EQ(a[i].y, b[i].y) << "row " << i;
    }
}

} // namespace

// --- Trainer divergence -------------------------------------------------

TEST_F(RecoveryTest, NaturalDivergenceIsResumableWithSmallerRate)
{
    Rng rng(1234);
    wcnn::nn::Mlp net(
        2,
        {{8, wcnn::nn::Activation::logistic(1.0)},
         {1, wcnn::nn::Activation::identity()}},
        wcnn::nn::InitRule::Xavier, rng);

    wcnn::numeric::Matrix x(16, 2);
    wcnn::numeric::Matrix y(16, 1);
    for (std::size_t i = 0; i < 16; ++i) {
        x(i, 0) = rng.uniform(-1.0, 1.0);
        x(i, 1) = rng.uniform(-1.0, 1.0);
        y(i, 0) = x(i, 0) + 0.5 * x(i, 1);
    }

    wcnn::nn::TrainOptions opts;
    opts.learningRate = 1e9; // deliberately divergent
    opts.momentum = 0.0;
    opts.maxEpochs = 50;
    opts.targetLoss = 0.0;

    try {
        wcnn::nn::Trainer(opts).train(net, x, y, rng);
        FAIL() << "expected TrainDivergence";
    } catch (const TrainDivergence &e) {
        // Resume from the carried weights at a sane rate: the run
        // completes and ends at a finite loss.
        wcnn::nn::Mlp resumed = e.lastGood();
        opts.learningRate = 0.05;
        const auto result =
            wcnn::nn::Trainer(opts).train(resumed, x, y, rng);
        EXPECT_EQ(result.epochs, 50u);
        EXPECT_TRUE(std::isfinite(result.finalTrainLoss));
    }
}

TEST_F(RecoveryTest, InjectedDivergenceCarriesEpochAndPartialHistory)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    Rng rng(9);
    wcnn::nn::Mlp net(1, {{4, wcnn::nn::Activation::tanh()}},
                      wcnn::nn::InitRule::Xavier, rng);
    wcnn::numeric::Matrix x(8, 1);
    wcnn::numeric::Matrix y(8, 4);
    for (std::size_t i = 0; i < 8; ++i) {
        x(i, 0) = rng.uniform(-1.0, 1.0);
        for (std::size_t j = 0; j < 4; ++j)
            y(i, j) = 0.1 * x(i, 0);
    }
    wcnn::nn::TrainOptions opts;
    opts.maxEpochs = 10;
    opts.targetLoss = 0.0;

    // One hit per epoch: the 3rd epoch (index 2) diverges.
    fp::armFromSpec("train.diverge=nth:3");
    try {
        wcnn::nn::Trainer(opts).train(net, x, y, rng);
        FAIL() << "expected TrainDivergence";
    } catch (const TrainDivergence &e) {
        EXPECT_EQ(e.epoch(), 2u);
        EXPECT_TRUE(std::isnan(e.loss()));
        EXPECT_EQ(e.partialResult().epochs, 2u);
        EXPECT_EQ(e.partialResult().trainLossHistory.size(), 2u);
        const wcnn::numeric::Vector probe{0.3};
        for (double v : e.lastGood().forward(probe))
            EXPECT_TRUE(std::isfinite(v));
    }
}

// --- Collectors ---------------------------------------------------------

TEST_F(RecoveryTest, RetriedTransientFaultReproducesCleanRunBitForBit)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const auto configs = smallDesign(6);

    const Dataset clean = wcnn::sim::collectDataset(
        configs, analyticSampler(), CollectOptions{});

    fp::armFromSpec("collect.sample=nth:2"); // one transient fault
    CollectReport report;
    const Dataset chaotic = wcnn::sim::collectDataset(
        configs, analyticSampler(), CollectOptions{}, &report);

    EXPECT_EQ(fp::fires("collect.sample"), 1u);
    EXPECT_EQ(report.retries(), 1u);
    EXPECT_EQ(report.dropped(), 0u);
    expectSameDataset(clean, chaotic);
}

TEST_F(RecoveryTest, ExhaustedRetriesDropTheConfigUnderQuarantine)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const auto configs = smallDesign(5);

    // Hits 2..4 fire: config 1's three attempts all fault. Which
    // config takes a hit depends on the serial order.
    fp::armFromSpec("collect.sample=nth:2:3");
    CollectOptions options;
    options.threads = 1;
    options.maxAttempts = 3;
    options.quarantine = true;
    CollectReport report;
    const Dataset ds = wcnn::sim::collectDataset(
        configs, analyticSampler(), options, &report);

    EXPECT_EQ(ds.size(), configs.size() - 1);
    ASSERT_EQ(report.configs.size(), configs.size());
    EXPECT_EQ(report.configs[1].state, ConfigStatus::State::Dropped);
    EXPECT_EQ(report.configs[1].retries, 2u);
    EXPECT_NE(report.configs[1].error.find("collect.sample"),
              std::string::npos);
    EXPECT_EQ(report.dropped(), 1u);
    // Quarantine bookkeeping matches the injected schedule exactly:
    // every fire was either retried or ended in the one drop.
    EXPECT_EQ(fp::fires("collect.sample"), 3u);
    EXPECT_EQ(report.retries() + report.dropped(), 3u);
    // The surviving rows are the untouched configurations, in order.
    const Dataset clean = wcnn::sim::collectDataset(
        configs, analyticSampler(), CollectOptions{});
    EXPECT_EQ(ds[0].y, clean[0].y);
    EXPECT_EQ(ds[1].y, clean[2].y);
}

TEST_F(RecoveryTest, StrictCollectionPropagatesTheFault)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const auto configs = smallDesign(3);
    fp::armFromSpec("collect.sample=nth:1");
    CollectOptions options;
    options.maxAttempts = 1; // no retries, no quarantine
    EXPECT_THROW(wcnn::sim::collectDataset(configs, analyticSampler(),
                                           options),
                 wcnn::SimFault);
}

TEST_F(RecoveryTest, SimulatedReplicateRetryReusesTheSeed)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const auto configs = smallDesign(2);
    const auto params = wcnn::sim::WorkloadParams::defaults();

    const Dataset clean = wcnn::sim::collectSimulated(
        configs, params, 100, 2, CollectOptions{});

    // Replicate 2 of config 0 faults once; its retry reuses the same
    // seed, so the means are bit-identical to the clean run.
    fp::armFromSpec("sim.replicate=nth:2");
    CollectReport report;
    const Dataset chaotic = wcnn::sim::collectSimulated(
        configs, params, 100, 2, CollectOptions{}, &report);

    EXPECT_EQ(report.retries(), 1u);
    EXPECT_EQ(report.dropped(), 0u);
    expectSameDataset(clean, chaotic);
}

// --- Cross validation ---------------------------------------------------

TEST_F(RecoveryTest, QuarantinedFoldKeepsPartialResults)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const Dataset ds = noisyLinearDataset(25, 1);
    CvOptions opts;
    opts.folds = 5;
    opts.threads = 1; // the 2nd hit is fold 1 only in serial order
    opts.onFailure = OnFailure::Quarantine;

    fp::armFromSpec("cv.fold=nth:2");
    const auto result = crossValidate(linearFactory(), ds, opts);

    EXPECT_EQ(result.trials.size(), 5u);
    EXPECT_EQ(result.failedCount(), 1u);
    EXPECT_TRUE(result.trials[1].failed);
    EXPECT_NE(result.trials[1].error.find("cv.fold"), std::string::npos);
    // Averages are over the 4 surviving folds and stay finite.
    const auto avg = result.averageValidationError();
    ASSERT_EQ(avg.size(), 1u);
    EXPECT_TRUE(std::isfinite(avg[0]));
    // The rendered table marks the quarantined row.
    EXPECT_NE(formatTable(result).find("failed"), std::string::npos);
}

TEST_F(RecoveryTest, StrictModePropagatesTheFirstFoldFailure)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const Dataset ds = noisyLinearDataset(25, 1);
    CvOptions opts;
    opts.folds = 5; // onFailure defaults to Strict
    fp::armFromSpec("cv.fold=nth:2");
    EXPECT_THROW(crossValidate(linearFactory(), ds, opts), FoldFailure);
}

TEST_F(RecoveryTest, AllFoldsFailingThrowsEvenUnderQuarantine)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const Dataset ds = noisyLinearDataset(25, 1);
    CvOptions opts;
    opts.folds = 5;
    opts.onFailure = OnFailure::Quarantine;
    fp::armFromSpec("cv.fold=always");
    try {
        crossValidate(linearFactory(), ds, opts);
        FAIL() << "expected FoldFailure";
    } catch (const FoldFailure &e) {
        EXPECT_EQ(e.kind(), "fold");
        EXPECT_NE(std::string(e.what()).find("all 5 folds"),
                  std::string::npos);
    }
}

// --- Grid search --------------------------------------------------------

TEST_F(RecoveryTest, QuarantinedCandidateNeverWins)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const Dataset ds = noisyLinearDataset(30, 2);
    GridSearchOptions opts;
    opts.hiddenUnits = {2, 3};
    opts.targetLosses = {0.05};
    opts.threads = 1; // the 1st hit is candidate 0 only in serial order
    opts.onFailure = OnFailure::Quarantine;
    wcnn::model::NnModelOptions nn;
    nn.train.maxEpochs = 40;
    nn.seed = 3;

    fp::armFromSpec("grid.candidate=nth:1");
    const auto result = gridSearch(nn, ds, opts);

    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_TRUE(result.entries[0].failed);
    EXPECT_EQ(result.failedCount(), 1u);
    EXPECT_EQ(result.bestIndex, 1u);
    EXPECT_FALSE(result.best().failed);
}

TEST_F(RecoveryTest, AllCandidatesFailingThrowsEvenUnderQuarantine)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const Dataset ds = noisyLinearDataset(30, 2);
    GridSearchOptions opts;
    opts.hiddenUnits = {2, 3};
    opts.targetLosses = {0.05};
    opts.onFailure = OnFailure::Quarantine;
    wcnn::model::NnModelOptions nn;
    nn.train.maxEpochs = 40;

    fp::armFromSpec("grid.candidate=always");
    try {
        gridSearch(nn, ds, opts);
        FAIL() << "expected wcnn::Error";
    } catch (const wcnn::Error &e) {
        EXPECT_EQ(e.kind(), "grid");
    }
}

// --- Study --------------------------------------------------------------

TEST_F(RecoveryTest, NonStrictStudySurvivesScatteredFaults)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    wcnn::model::StudyOptions options;
    options.source = wcnn::model::StudyOptions::Source::Analytic;
    options.designSamples = 24;
    options.sliceAnchorsPerAxis = 2;
    options.strict = false;
    options.nn.train.maxEpochs = 60;
    options.tuning.hiddenUnits = {4};
    options.tuning.targetLosses = {0.05, 0.02};
    options.cv.folds = 4;

    // One tuning candidate and one CV fold fail; the study degrades
    // gracefully instead of aborting.
    fp::armFromSpec("grid.candidate=nth:1;cv.fold=nth:2");
    const auto result = wcnn::model::runStudy(options);

    EXPECT_EQ(result.tuning.failedCount(), 1u);
    EXPECT_EQ(result.cv.failedCount(), 1u);
    EXPECT_EQ(result.cv.trials.size(), 4u);
    EXPECT_TRUE(std::isfinite(result.cv.overallAccuracy()));
    EXPECT_GT(result.dataset.size(), 0u);
}
