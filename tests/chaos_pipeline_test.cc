/**
 * @file
 * Chaos harness: seeded failpoint schedules swept over every injection
 * site x every pipeline entry point. The three invariants of the
 * fault-injection contract:
 *
 *  (a) no crash, leak, or race under any schedule — every outcome is
 *      either a clean result or a typed wcnn::Error (the suite runs
 *      under the asan-ubsan and tsan presets in CI; see the `chaos`
 *      ctest label);
 *  (b) a run whose injected transient faults are all retried
 *      successfully is bit-identical to a clean run;
 *  (c) quarantine bookkeeping exactly matches the injected schedule
 *      (site fire counters == recorded retries + drops + failures).
 *
 * Schedule-exactness assertions run at threads=1, where hit numbers
 * are assigned deterministically; the no-crash sweep also runs at
 * higher thread counts. The probability sweep takes its seed from
 * WCNN_CHAOS_SEED (rotated nightly in CI) so successive runs explore
 * different schedules while any single run stays reproducible.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/failpoint.hh"
#include "data/csv.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/linear_model.hh"
#include "model/study.hh"
#include "nn/serialize.hh"
#include "nn/trainer.hh"
#include "numeric/rng.hh"
#include "sim/sample_space.hh"

namespace fp = wcnn::core::failpoint;

using wcnn::data::Dataset;
using wcnn::numeric::Rng;

namespace {

/** Every library injection site, with the pipeline stage it gates. */
const std::vector<std::string> kSites = {
    "csv.read",       "csv.write",      "model.read",
    "model.write",    "train.diverge",  "cv.fold",
    "grid.candidate", "collect.sample", "sim.replicate",
};

class ChaosPipelineTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        fp::reset();
        if (!fp::compiledIn())
            GTEST_SKIP() << "library built with WCNN_NO_FAILPOINTS";
    }
    void TearDown() override { fp::reset(); }
};

/** Seed for the probability sweep; CI rotates it nightly. */
std::uint64_t
chaosSeed()
{
    const char *env = std::getenv("WCNN_CHAOS_SEED");
    if (env == nullptr || *env == '\0')
        return 20260807u;
    return std::strtoull(env, nullptr, 10);
}

/**
 * One pass through every pipeline entry point, small enough to run
 * dozens of times under sanitizers. Touches: collectDataset,
 * collectSimulated, csv write/read, grid search, cross validation,
 * trainer (inside both), and model serialize write/read. Returns a
 * digest of everything computed, for bit-identity comparisons.
 */
struct PipelineDigest
{
    std::string csvText;
    std::string modelText;
    std::vector<double> cvAverage;
    double gridBestError = 0.0;
    std::size_t datasetRows = 0;
};

PipelineDigest
runPipeline(std::size_t threads)
{
    PipelineDigest digest;

    // Collection: analytic sampler through both collectors.
    Rng rng(17);
    const auto space = wcnn::sim::SampleSpace::paperLike();
    const auto configs = wcnn::sim::randomDesign(space, 12, rng);
    const auto params = wcnn::sim::WorkloadParams::defaults();
    wcnn::sim::CollectOptions collect;
    collect.threads = threads;
    collect.quarantine = true;
    const Dataset ds = wcnn::sim::collectDataset(
        configs, [&params](const wcnn::sim::ThreeTierConfig &cfg) {
            return wcnn::sim::analyticThreeTier(cfg, params);
        },
        collect);
    const Dataset sim_ds = wcnn::sim::collectSimulated(
        {configs.begin(), configs.begin() + 2}, params, 33, 2, collect);
    digest.datasetRows = ds.size() + sim_ds.size();
    if (ds.size() < 8)
        throw wcnn::Error("chaos", "too many dropped configs to model");

    // CSV round trip.
    std::stringstream csv;
    wcnn::data::writeCsv(ds, csv);
    digest.csvText = csv.str();
    const Dataset reread = wcnn::data::readCsv(csv);

    // Tuning + cross validation (quarantine mode) on the samples.
    wcnn::model::NnModelOptions nn;
    nn.train.maxEpochs = 30;
    nn.seed = 3;
    wcnn::model::GridSearchOptions grid;
    grid.hiddenUnits = {3, 4};
    grid.targetLosses = {0.05};
    grid.threads = threads;
    grid.onFailure = wcnn::model::OnFailure::Quarantine;
    const auto tuned = wcnn::model::gridSearch(nn, reread, grid);
    digest.gridBestError = tuned.best().validationError;

    wcnn::model::CvOptions cv;
    cv.folds = 4;
    cv.keepPredictions = false;
    cv.threads = threads;
    cv.onFailure = wcnn::model::OnFailure::Quarantine;
    const auto cv_result = wcnn::model::crossValidate(
        [] { return std::make_unique<wcnn::model::LinearModel>(); },
        reread, cv);
    digest.cvAverage = cv_result.averageValidationError();

    // Model serialization round trip.
    Rng mlp_rng(5);
    wcnn::nn::Mlp net(2,
                      {{3, wcnn::nn::Activation::tanh()},
                       {1, wcnn::nn::Activation::identity()}},
                      wcnn::nn::InitRule::Xavier, mlp_rng);
    std::stringstream model;
    wcnn::nn::Serializer::write(net, model);
    digest.modelText = model.str();
    (void)wcnn::nn::Serializer::read(model);
    return digest;
}

void
expectSameDigest(const PipelineDigest &a, const PipelineDigest &b)
{
    EXPECT_EQ(a.csvText, b.csvText);
    EXPECT_EQ(a.modelText, b.modelText);
    EXPECT_EQ(a.cvAverage, b.cvAverage);
    EXPECT_EQ(a.gridBestError, b.gridBestError);
    EXPECT_EQ(a.datasetRows, b.datasetRows);
}

} // namespace

TEST_F(ChaosPipelineTest, EverySiteAlwaysFiringYieldsTypedErrorOrResult)
{
    // (a): with each site firing on every hit, each entry point either
    // completes (the stage quarantined its way around the fault) or
    // raises a typed wcnn::Error — never a crash, leak, or contract
    // abort. Sanitizer presets turn any leak/race into a failure.
    for (const auto &site : kSites) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            fp::reset();
            fp::armFromSpec(site + "=always");
            try {
                (void)runPipeline(threads);
            } catch (const wcnn::Error &e) {
                EXPECT_FALSE(std::string(e.what()).empty())
                    << site << " threads=" << threads;
            }
            EXPECT_GT(fp::hits(site), 0u)
                << "site " << site << " was never reached";
        }
    }
}

TEST_F(ChaosPipelineTest, SingleTransientFaultPerSiteIsSurvivable)
{
    // Every site, firing exactly once, at every pipeline entry point:
    // retryable stages recover, quarantining stages record and carry
    // on, I/O stages raise their typed error. Still no crash.
    for (const auto &site : kSites) {
        fp::reset();
        fp::armFromSpec(site + "=nth:1");
        try {
            (void)runPipeline(1);
        } catch (const wcnn::Error &e) {
            EXPECT_FALSE(std::string(e.what()).empty()) << site;
        }
    }
}

TEST_F(ChaosPipelineTest, ProbabilitySweepWithRotatingSeed)
{
    // Seeded random schedules across ALL sites at once. Each round is
    // reproducible from (WCNN_CHAOS_SEED, round); CI rotates the env
    // var nightly to walk the schedule space.
    const std::uint64_t seed = chaosSeed();
    for (std::uint64_t round = 0; round < 8; ++round) {
        fp::reset();
        std::string spec;
        for (const auto &site : kSites) {
            spec += site + "=prob:0.02:" +
                    std::to_string(seed + 1000 * round) + ";";
        }
        fp::armFromSpec(spec);
        try {
            (void)runPipeline(1);
        } catch (const wcnn::Error &e) {
            EXPECT_FALSE(std::string(e.what()).empty())
                << "seed " << seed << " round " << round;
        }
    }
}

TEST_F(ChaosPipelineTest, FullyRetriedScheduleIsBitIdenticalToCleanRun)
{
    // (b): faults that the collectors retry to success must leave no
    // trace in the results. One transient fault in each retryable
    // site, spaced so every retry succeeds (maxAttempts default 3).
    fp::reset();
    const PipelineDigest clean = runPipeline(1);

    fp::reset();
    fp::armFromSpec("collect.sample=nth:3;sim.replicate=nth:2");
    const PipelineDigest chaotic = runPipeline(1);
    EXPECT_EQ(fp::fires("collect.sample"), 1u);
    EXPECT_EQ(fp::fires("sim.replicate"), 1u);
    expectSameDigest(clean, chaotic);
}

TEST_F(ChaosPipelineTest, ArmedButNeverFiringScheduleIsBitIdentical)
{
    // The active() gate itself must not perturb results: a trigger
    // that never fires leaves the pipeline bit-identical to a run
    // with the registry empty.
    fp::reset();
    const PipelineDigest clean = runPipeline(1);

    fp::reset();
    fp::armFromSpec("collect.sample=nth:1000000;cv.fold=prob:0");
    const PipelineDigest armed = runPipeline(1);
    EXPECT_EQ(fp::fires("collect.sample"), 0u);
    expectSameDigest(clean, armed);
}

TEST_F(ChaosPipelineTest, QuarantineBookkeepingMatchesInjectedSchedule)
{
    // (c): at threads=1 hit numbers are deterministic, so the exact
    // set of failed items is predictable from the armed schedule.
    const Dataset ds = [] {
        Rng rng(21);
        Dataset out({"a", "b"}, {"y"});
        for (std::size_t i = 0; i < 24; ++i) {
            const double a = rng.uniform(1, 10);
            const double b = rng.uniform(1, 10);
            out.add({a, b}, {2 * a - b + rng.normal(0, 0.05)});
        }
        return out;
    }();

    // CV: folds 2 and 4 (hits 2 and 4) quarantine; 1 and 3 survive.
    fp::armFromSpec("cv.fold=nth:2;cv.fold2=off");
    wcnn::model::CvOptions cv;
    cv.folds = 4;
    cv.keepPredictions = false;
    cv.threads = 1;
    cv.onFailure = wcnn::model::OnFailure::Quarantine;
    auto cv_result = wcnn::model::crossValidate(
        [] { return std::make_unique<wcnn::model::LinearModel>(); }, ds,
        cv);
    EXPECT_EQ(fp::fires("cv.fold"), 1u);
    EXPECT_EQ(cv_result.failedCount(), 1u);
    EXPECT_TRUE(cv_result.trials[1].failed);
    EXPECT_FALSE(cv_result.trials[0].failed);
    EXPECT_FALSE(cv_result.trials[2].failed);
    EXPECT_FALSE(cv_result.trials[3].failed);

    // Grid: candidates at hits 1 and 3 fail, 2 and 4 survive.
    fp::reset();
    fp::armFromSpec("grid.candidate=nth:1;grid.candidate2=off");
    wcnn::model::NnModelOptions nn;
    nn.train.maxEpochs = 25;
    nn.seed = 3;
    wcnn::model::GridSearchOptions grid;
    grid.hiddenUnits = {2, 3};
    grid.targetLosses = {0.05};
    grid.threads = 1;
    grid.onFailure = wcnn::model::OnFailure::Quarantine;
    const auto tuned = wcnn::model::gridSearch(nn, ds, grid);
    EXPECT_EQ(fp::fires("grid.candidate"), 1u);
    EXPECT_EQ(tuned.failedCount(), 1u);
    EXPECT_TRUE(tuned.entries[0].failed);
    EXPECT_FALSE(tuned.entries[1].failed);
    EXPECT_EQ(tuned.bestIndex, 1u);

    // Every fire is accounted for: failures recorded == fires.
    EXPECT_EQ(tuned.failedCount() + cv_result.failedCount(), 2u);
}

TEST_F(ChaosPipelineTest, GoldenPathUnaffectedWhenDisarmed)
{
    // With the registry empty the pipeline is the pipeline: two runs
    // are bit-identical, and identical to a run after arm+reset.
    const PipelineDigest a = runPipeline(1);
    fp::armFromSpec("collect.sample=always");
    fp::reset();
    const PipelineDigest b = runPipeline(1);
    expectSameDigest(a, b);
}
