/**
 * @file
 * Bit-identity of every parallelized hot path.
 *
 * The parallel layer's contract (core/parallel.hh) is that thread
 * count changes wall time only: cross validation, grid search, surface
 * sweeps, sample collection and the whole study pipeline must produce
 * bit-identical results at any thread count, and must match an inline
 * re-implementation of the historical serial algorithm. Comparisons below use exact double
 * equality on purpose — "close" would hide a broken seed discipline.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>

#include "data/csv.hh"
#include "data/metrics.hh"
#include "data/split.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/nn_model.hh"
#include "model/study.hh"
#include "model/surface.hh"
#include "numeric/rng.hh"
#include "numeric/stats.hh"
#include "sim/sample_space.hh"

using wcnn::data::Dataset;
using wcnn::model::CvOptions;
using wcnn::model::CvResult;
using wcnn::model::GridSearchOptions;
using wcnn::model::GridSearchResult;
using wcnn::model::NnModel;
using wcnn::model::NnModelOptions;
using wcnn::model::StudyOptions;
using wcnn::model::StudyResult;
using wcnn::model::SurfaceRequest;
using wcnn::numeric::Matrix;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;

namespace {

/** Thread counts every path is checked at (1 is the serial baseline). */
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/** Fast, fully deterministic sample collection (analytic source). */
Dataset
makeDataset(std::size_t n = 24)
{
    Rng rng(2026);
    const auto configs = wcnn::sim::latinHypercubeDesign(
        wcnn::sim::SampleSpace::paperLike(), n, rng);
    return wcnn::sim::collectAnalytic(
        configs, wcnn::sim::WorkloadParams::defaults());
}

/** Small network so each trial trains in milliseconds. */
NnModelOptions
fastNn()
{
    NnModelOptions opts;
    opts.hiddenUnits = {6};
    opts.train.maxEpochs = 250;
    opts.train.targetLoss = 0.05;
    return opts;
}

void
expectSameMatrix(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            EXPECT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
}

void
expectSameDataset(const Dataset &a, const Dataset &b)
{
    ASSERT_EQ(a.size(), b.size());
    expectSameMatrix(a.xMatrix(), b.xMatrix());
    expectSameMatrix(a.yMatrix(), b.yMatrix());
}

CvResult
runCv(const Dataset &ds, std::size_t threads)
{
    CvOptions cv;
    cv.folds = 5;
    cv.seed = 7;
    cv.threads = threads;
    const NnModelOptions nn = fastNn();
    return wcnn::model::crossValidate(
        [&nn]() { return std::make_unique<NnModel>(nn); }, ds, cv);
}

} // namespace

TEST(ParallelDeterminismTest, CrossValidationIdenticalAtEveryThreadCount)
{
    const Dataset ds = makeDataset();
    const CvResult serial = runCv(ds, 1);
    for (std::size_t threads : kThreadCounts) {
        const CvResult parallel = runCv(ds, threads);
        ASSERT_EQ(parallel.trials.size(), serial.trials.size());
        for (std::size_t f = 0; f < serial.trials.size(); ++f) {
            const auto &st = serial.trials[f];
            const auto &pt = parallel.trials[f];
            EXPECT_EQ(pt.fold, st.fold);
            EXPECT_EQ(pt.validation.harmonicError,
                      st.validation.harmonicError);
            EXPECT_EQ(pt.training.harmonicError,
                      st.training.harmonicError);
            expectSameMatrix(pt.validationPredicted,
                             st.validationPredicted);
            expectSameMatrix(pt.trainPredicted, st.trainPredicted);
            expectSameDataset(pt.validationSet, st.validationSet);
        }
        EXPECT_EQ(parallel.averageValidationError(),
                  serial.averageValidationError());
    }
}

TEST(ParallelDeterminismTest, CrossValidationMatchesInlineSerialReference)
{
    // Re-implement the pre-parallel algorithm by hand: a plain fold
    // loop with per-sample predict() calls. The engine must reproduce
    // it exactly, batched predictAll() included.
    const Dataset ds = makeDataset();
    const CvResult engine = runCv(ds, 8);

    CvOptions cv;
    cv.folds = 5;
    cv.seed = 7;
    Rng rng(cv.seed);
    const wcnn::data::KFold kfold(ds.size(), cv.folds, rng);
    const NnModelOptions nn = fastNn();
    for (std::size_t f = 0; f < cv.folds; ++f) {
        const wcnn::data::Split split = kfold.split(ds, f);
        NnModel mdl(nn);
        mdl.fit(split.train);
        Matrix val_pred(split.validation.size(), ds.outputDim());
        for (std::size_t i = 0; i < split.validation.size(); ++i)
            val_pred.setRow(i, mdl.predict(split.validation[i].x));
        const wcnn::data::ErrorReport reference = wcnn::data::evaluate(
            ds.outputs(), split.validation.yMatrix(), val_pred);
        EXPECT_EQ(engine.trials[f].validation.harmonicError,
                  reference.harmonicError);
        expectSameMatrix(engine.trials[f].validationPredicted, val_pred);
    }
}

TEST(ParallelDeterminismTest, GridSearchIdenticalAtEveryThreadCount)
{
    const Dataset ds = makeDataset();
    const auto run = [&ds](std::size_t threads) {
        GridSearchOptions opts;
        opts.hiddenUnits = {4, 6};
        opts.targetLosses = {0.08, 0.05};
        opts.seed = 11;
        opts.threads = threads;
        NnModelOptions base = fastNn();
        return wcnn::model::gridSearch(base, ds, opts);
    };
    const GridSearchResult serial = run(1);
    for (std::size_t threads : kThreadCounts) {
        const GridSearchResult parallel = run(threads);
        EXPECT_EQ(parallel.bestIndex, serial.bestIndex);
        ASSERT_EQ(parallel.entries.size(), serial.entries.size());
        for (std::size_t c = 0; c < serial.entries.size(); ++c) {
            EXPECT_EQ(parallel.entries[c].hiddenUnits,
                      serial.entries[c].hiddenUnits);
            EXPECT_EQ(parallel.entries[c].targetLoss,
                      serial.entries[c].targetLoss);
            EXPECT_EQ(parallel.entries[c].validationError,
                      serial.entries[c].validationError);
        }
    }
}

TEST(ParallelDeterminismTest, GridSearchMatchesInlineSerialReference)
{
    // The historical serial protocol: one holdout split, candidates in
    // units-major order, running strict-< winner update.
    const Dataset ds = makeDataset();
    GridSearchOptions opts;
    opts.hiddenUnits = {4, 6};
    opts.targetLosses = {0.08, 0.05};
    opts.seed = 11;
    opts.threads = 8;
    const NnModelOptions base = fastNn();
    const GridSearchResult engine = wcnn::model::gridSearch(base, ds, opts);

    Rng rng(opts.seed);
    const wcnn::data::Split split =
        wcnn::data::trainValidationSplit(ds, opts.trainFraction, rng);
    std::size_t c = 0;
    std::size_t best_index = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t units : opts.hiddenUnits) {
        for (double target : opts.targetLosses) {
            NnModelOptions candidate_opts = base;
            candidate_opts.hiddenUnits = {units};
            candidate_opts.train.targetLoss = target;
            NnModel candidate(candidate_opts);
            candidate.fit(split.train);
            const wcnn::data::ErrorReport report = wcnn::data::evaluate(
                ds.outputs(), split.validation.yMatrix(),
                candidate.predictAll(split.validation));
            const double score =
                wcnn::numeric::mean(report.harmonicError);
            ASSERT_LT(c, engine.entries.size());
            EXPECT_EQ(engine.entries[c].hiddenUnits, units);
            EXPECT_EQ(engine.entries[c].targetLoss, target);
            EXPECT_EQ(engine.entries[c].validationError, score);
            if (score < best) {
                best = score;
                best_index = c;
            }
            ++c;
        }
    }
    EXPECT_EQ(engine.entries.size(), c);
    EXPECT_EQ(engine.bestIndex, best_index);
}

TEST(ParallelDeterminismTest, SurfaceSweepIdenticalAtEveryThreadCount)
{
    const Dataset ds = makeDataset();
    NnModel mdl(fastNn());
    mdl.fit(ds);

    SurfaceRequest req;
    req.axisA = 1;
    req.axisB = 3;
    req.indicator = 0;
    req.fixed = {560.0, 0.0, 16.0, 0.0};
    req.loA = 0.0;
    req.hiA = 20.0;
    req.loB = 14.0;
    req.hiB = 20.0;
    req.pointsA = 9;
    req.pointsB = 7;

    req.threads = 1;
    const auto serial = wcnn::model::sweepSurface(mdl, req, ds);
    for (std::size_t threads : kThreadCounts) {
        req.threads = threads;
        const auto parallel = wcnn::model::sweepSurface(mdl, req, ds);
        EXPECT_EQ(parallel.aValues, serial.aValues);
        EXPECT_EQ(parallel.bValues, serial.bValues);
        expectSameMatrix(parallel.z, serial.z);
    }

    // And against the obvious reference: one predict() per grid point.
    for (std::size_t i = 0; i < serial.aValues.size(); ++i) {
        for (std::size_t j = 0; j < serial.bValues.size(); ++j) {
            Vector probe = req.fixed;
            probe[req.axisA] = serial.aValues[i];
            probe[req.axisB] = serial.bValues[j];
            EXPECT_EQ(serial.z(i, j), mdl.predict(probe)[req.indicator]);
        }
    }
}

TEST(ParallelDeterminismTest, SimulatedCollectionIdenticalAtEveryThreadCount)
{
    // Replicate seeds derive from the configuration index, so the
    // stochastic simulator also collects bit-identically in parallel.
    Rng rng(99);
    auto configs = wcnn::sim::randomDesign(
        wcnn::sim::SampleSpace::paperLike(), 4, rng);
    for (auto &cfg : configs) {
        cfg.warmup = 4.0; // short windows: identity, not fidelity
        cfg.measure = 20.0;
    }
    const auto params = wcnn::sim::WorkloadParams::defaults();
    const Dataset serial =
        wcnn::sim::collectSimulated(configs, params, 500, 2, 1);
    for (std::size_t threads : kThreadCounts) {
        const Dataset parallel =
            wcnn::sim::collectSimulated(configs, params, 500, 2, threads);
        expectSameDataset(parallel, serial);
    }
}

TEST(ParallelDeterminismTest, RunStudyDefaultThreadsMatchesSerial)
{
    // The whole pipeline end to end: the default thread count (the
    // hardware count) against threads = 1, through collection, tuning,
    // every CV trial and the final surrogate's weights.
    StudyOptions options;
    options.source = StudyOptions::Source::Analytic;
    options.designSamples = 24;
    options.sliceAnchorsPerAxis = 2;
    options.nn = fastNn();
    options.tune = true;
    options.tuning.hiddenUnits = {4, 6};
    options.tuning.targetLosses = {0.08, 0.05};
    ASSERT_EQ(options.threads, 0u);
    const StudyResult parallel = wcnn::model::runStudy(options);
    options.threads = 1;
    const StudyResult serial = wcnn::model::runStudy(options);

    EXPECT_EQ(wcnn::data::csvDigest(parallel.dataset),
              wcnn::data::csvDigest(serial.dataset));
    EXPECT_EQ(parallel.tuning.bestIndex, serial.tuning.bestIndex);
    EXPECT_EQ(parallel.tunedNn.hiddenUnits, serial.tunedNn.hiddenUnits);
    EXPECT_EQ(parallel.tunedNn.train.targetLoss,
              serial.tunedNn.train.targetLoss);
    ASSERT_EQ(parallel.cv.trials.size(), serial.cv.trials.size());
    for (std::size_t f = 0; f < serial.cv.trials.size(); ++f) {
        EXPECT_EQ(parallel.cv.trials[f].validation.harmonicError,
                  serial.cv.trials[f].validation.harmonicError)
            << "trial " << f;
        EXPECT_EQ(parallel.cv.trials[f].training.harmonicError,
                  serial.cv.trials[f].training.harmonicError)
            << "trial " << f;
    }
    const wcnn::nn::Mlp &pnet = parallel.finalModel.network();
    const wcnn::nn::Mlp &snet = serial.finalModel.network();
    ASSERT_EQ(pnet.layers().size(), snet.layers().size());
    for (std::size_t l = 0; l < snet.layers().size(); ++l) {
        expectSameMatrix(pnet.weights(l), snet.weights(l));
        EXPECT_EQ(pnet.biases(l), snet.biases(l)) << "layer " << l;
    }
}
