/**
 * @file
 * Tests for the paper's NN-backed performance model, including the
 * standardization recipe of section 3.1.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "data/metrics.hh"
#include "model/linear_model.hh"
#include "model/nn_model.hh"
#include "model/rbf_model.hh"
#include "numeric/rng.hh"

using wcnn::data::Dataset;
using wcnn::model::NnModel;
using wcnn::model::NnModelOptions;
using wcnn::numeric::Rng;

namespace {

/**
 * Non-linear 2-in/2-out synthetic workload with heterogeneous input
 * and output magnitudes — exactly the situation the standardization
 * rules target.
 */
Dataset
bumpyDataset(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds({"threads", "rate"}, {"rt", "tput"});
    for (std::size_t i = 0; i < n; ++i) {
        const double threads = rng.uniform(1, 20);
        const double rate = rng.uniform(400, 600);
        const double rt =
            1.0 + 4.0 * std::exp(-0.5 * (threads - 10) * (threads - 10) /
                                 9.0) +
            rate / 400.0;
        const double tput = rate * (1.0 - std::exp(-threads / 5.0));
        ds.add({threads, rate}, {rt, tput});
    }
    return ds;
}

NnModelOptions
quickOptions()
{
    NnModelOptions opts;
    opts.hiddenUnits = {10};
    opts.train.maxEpochs = 2000;
    opts.train.targetLoss = 0.01;
    opts.seed = 5;
    return opts;
}

} // namespace

TEST(NnModelTest, LifecycleAndMetadata)
{
    NnModel mdl(quickOptions());
    EXPECT_FALSE(mdl.fitted());
    EXPECT_EQ(mdl.name(), "neural-network");
    const Dataset ds = bumpyDataset(40, 1);
    mdl.fit(ds);
    EXPECT_TRUE(mdl.fitted());
    EXPECT_GT(mdl.lastTraining().epochs, 0u);
    EXPECT_EQ(mdl.network().inputDim(), 2u);
    EXPECT_EQ(mdl.network().outputDim(), 2u);
}

TEST(NnModelTest, FitsNonLinearSurfaceWell)
{
    const Dataset ds = bumpyDataset(80, 2);
    NnModel mdl(quickOptions());
    mdl.fit(ds);
    const auto report = wcnn::data::evaluate(
        ds.outputs(), ds.yMatrix(), mdl.predictAll(ds));
    // Loose fit by design, but clearly in the right ballpark.
    EXPECT_LT(report.mape[0], 0.10);
    EXPECT_LT(report.mape[1], 0.10);
}

TEST(NnModelTest, BeatsLinearBaselineOnBump)
{
    const Dataset train = bumpyDataset(80, 3);
    const Dataset test = bumpyDataset(40, 4);

    NnModel nn(quickOptions());
    nn.fit(train);
    wcnn::model::LinearModel lin;
    lin.fit(train);

    const double nn_err = wcnn::data::harmonicRelativeError(
        test.yColumn(0), nn.predictAll(test).col(0));
    const double lin_err = wcnn::data::harmonicRelativeError(
        test.yColumn(0), lin.predictAll(test).col(0));
    EXPECT_LT(nn_err, lin_err);
}

TEST(NnModelTest, StandardizersReflectTrainingData)
{
    const Dataset ds = bumpyDataset(50, 5);
    NnModel mdl(quickOptions());
    mdl.fit(ds);
    // Input means should sit inside the sampled ranges.
    const auto &mu = mdl.inputTransform().means();
    EXPECT_GT(mu[0], 1.0);
    EXPECT_LT(mu[0], 20.0);
    EXPECT_GT(mu[1], 400.0);
    EXPECT_LT(mu[1], 600.0);
    EXPECT_TRUE(mdl.outputTransform().fitted());
}

TEST(NnModelTest, DisablingStandardizationDegradesUnscaledFit)
{
    // With raw inputs around 500 and small init weights, gradient
    // descent struggles (the paper's local-minimum argument).
    const Dataset ds = bumpyDataset(60, 6);

    NnModelOptions with = quickOptions();
    NnModelOptions without = quickOptions();
    without.standardizeInputs = false;
    without.standardizeOutputs = false;

    NnModel a(with), b(without);
    a.fit(ds);
    b.fit(ds);
    const double err_with = wcnn::data::mape(
        ds.yColumn(1), a.predictAll(ds).col(1));
    const double err_without = wcnn::data::mape(
        ds.yColumn(1), b.predictAll(ds).col(1));
    EXPECT_LT(err_with, err_without);
}

TEST(NnModelTest, DeterministicGivenSeed)
{
    const Dataset ds = bumpyDataset(30, 7);
    NnModel a(quickOptions()), b(quickOptions());
    a.fit(ds);
    b.fit(ds);
    const auto pa = a.predict({10, 500});
    const auto pb = b.predict({10, 500});
    EXPECT_DOUBLE_EQ(pa[0], pb[0]);
    EXPECT_DOUBLE_EQ(pa[1], pb[1]);
}

TEST(NnModelTest, SeedChangesInitialization)
{
    const Dataset ds = bumpyDataset(30, 8);
    NnModelOptions o1 = quickOptions();
    NnModelOptions o2 = quickOptions();
    o2.seed = o1.seed + 1;
    NnModel a(o1), b(o2);
    a.fit(ds);
    b.fit(ds);
    EXPECT_NE(a.predict({10, 500})[0], b.predict({10, 500})[0]);
}

TEST(NnModelTest, LooseThresholdStopsEarlierThanTight)
{
    const Dataset ds = bumpyDataset(60, 9);
    NnModelOptions loose = quickOptions();
    loose.train.targetLoss = 0.05;
    NnModelOptions tight = quickOptions();
    tight.train.targetLoss = 0.002;
    NnModel a(loose), b(tight);
    a.fit(ds);
    b.fit(ds);
    EXPECT_LE(a.lastTraining().epochs, b.lastTraining().epochs);
}

TEST(RbfModelTest, FitsBumpAndExposesNetwork)
{
    const Dataset ds = bumpyDataset(80, 10);
    wcnn::model::RbfModel mdl(
        wcnn::nn::RbfNetwork::Options{.centers = 20}, 3);
    EXPECT_EQ(mdl.name(), "rbf");
    mdl.fit(ds);
    ASSERT_TRUE(mdl.fitted());
    EXPECT_GE(mdl.network().centerCount(), 1u);
    const auto report = wcnn::data::evaluate(
        ds.outputs(), ds.yMatrix(), mdl.predictAll(ds));
    EXPECT_LT(report.mape[0], 0.15);
}
