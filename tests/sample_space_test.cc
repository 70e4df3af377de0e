/**
 * @file
 * Tests for experiment designs and dataset collection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "numeric/rng.hh"
#include "sim/sample_space.hh"

using namespace wcnn::sim;
using wcnn::numeric::Rng;

TEST(GridDesignTest, SizeIsProductOfAxes)
{
    const auto configs =
        gridDesign(SampleSpace::paperLike(), {2, 3, 4, 5});
    EXPECT_EQ(configs.size(), 2u * 3u * 4u * 5u);
}

TEST(GridDesignTest, SinglePointAxisUsesMidpoint)
{
    SampleSpace space;
    space.injectionRate = {500, 600, false};
    const auto configs = gridDesign(space, {1, 1, 1, 1});
    ASSERT_EQ(configs.size(), 1u);
    EXPECT_DOUBLE_EQ(configs[0].injectionRate, 550.0);
}

TEST(GridDesignTest, EndpointsIncluded)
{
    SampleSpace space;
    space.webQueue = {14, 20, true};
    const auto configs = gridDesign(space, {1, 1, 1, 4});
    std::set<double> webs;
    for (const auto &c : configs)
        webs.insert(c.webQueue);
    EXPECT_TRUE(webs.count(14.0));
    EXPECT_TRUE(webs.count(20.0));
}

TEST(RandomDesignTest, RespectsRangesAndIntegrality)
{
    Rng rng(1);
    const SampleSpace space = SampleSpace::paperLike();
    const auto configs = randomDesign(space, 100, rng);
    ASSERT_EQ(configs.size(), 100u);
    for (const auto &c : configs) {
        EXPECT_GE(c.injectionRate, space.injectionRate.lo);
        EXPECT_LE(c.injectionRate, space.injectionRate.hi);
        EXPECT_GE(c.defaultQueue, space.defaultQueue.lo);
        EXPECT_LE(c.defaultQueue, space.defaultQueue.hi);
        // Thread-count axes are integral.
        EXPECT_DOUBLE_EQ(c.defaultQueue, std::round(c.defaultQueue));
        EXPECT_DOUBLE_EQ(c.mfgQueue, std::round(c.mfgQueue));
        EXPECT_DOUBLE_EQ(c.webQueue, std::round(c.webQueue));
    }
}

TEST(LatinHypercubeTest, StratifiesContinuousAxes)
{
    Rng rng(2);
    SampleSpace space;
    space.injectionRate = {0.0, 100.0, false};
    const std::size_t n = 10;
    const auto configs = latinHypercubeDesign(space, n, rng);
    ASSERT_EQ(configs.size(), n);
    // Exactly one sample per 10-unit stratum of the injection axis.
    std::set<int> strata;
    for (const auto &c : configs) {
        strata.insert(static_cast<int>(c.injectionRate / 10.0));
    }
    EXPECT_EQ(strata.size(), n);
}

TEST(LatinHypercubeTest, DeterministicGivenSeed)
{
    const SampleSpace space = SampleSpace::paperLike();
    Rng a(3), b(3);
    const auto ca = latinHypercubeDesign(space, 8, a);
    const auto cb = latinHypercubeDesign(space, 8, b);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(ca[i].injectionRate, cb[i].injectionRate);
        EXPECT_DOUBLE_EQ(ca[i].webQueue, cb[i].webQueue);
    }
}

TEST(FactorialDesignTest, SixteenCornersPlusCenters)
{
    const SampleSpace space = SampleSpace::paperLike();
    const auto configs = factorialDesign(space, 3);
    ASSERT_EQ(configs.size(), 19u);
    // Every corner is an extreme of each axis.
    std::set<std::vector<double>> corners;
    for (std::size_t i = 0; i < 16; ++i) {
        const auto &c = configs[i];
        EXPECT_TRUE(c.injectionRate == space.injectionRate.lo ||
                    c.injectionRate == space.injectionRate.hi);
        EXPECT_TRUE(c.webQueue == space.webQueue.lo ||
                    c.webQueue == space.webQueue.hi);
        corners.insert(c.toVector());
    }
    EXPECT_EQ(corners.size(), 16u); // all distinct
    // Centers sit at the midpoints.
    for (std::size_t i = 16; i < 19; ++i) {
        EXPECT_DOUBLE_EQ(configs[i].injectionRate,
                         (space.injectionRate.lo +
                          space.injectionRate.hi) / 2.0);
    }
}

TEST(CollectTest, DatasetHasPaperColumnNames)
{
    Rng rng(4);
    const auto configs =
        latinHypercubeDesign(SampleSpace::paperLike(), 5, rng);
    const auto ds = collectAnalytic(configs,
                                    WorkloadParams::defaults());
    EXPECT_EQ(ds.size(), 5u);
    EXPECT_EQ(ds.inputs(), ThreeTierConfig::parameterNames());
    EXPECT_EQ(ds.outputs(), PerfSample::indicatorNames());
}

TEST(CollectTest, CollectDatasetAppliesFunctor)
{
    std::vector<ThreeTierConfig> configs(3);
    configs[1].injectionRate = 999;
    std::size_t calls = 0;
    // The counting sampler is not thread-safe: collect serially.
    const auto ds = collectDataset(
        configs,
        [&](const ThreeTierConfig &cfg) {
            ++calls;
            PerfSample s;
            s.throughput = cfg.injectionRate;
            return s;
        },
        1);
    EXPECT_EQ(calls, 3u);
    EXPECT_DOUBLE_EQ(ds[1].y[4], 999.0);
    EXPECT_DOUBLE_EQ(ds[1].x[0], 999.0);
}

TEST(CollectTest, SimulatedCollectionIsDeterministic)
{
    std::vector<ThreeTierConfig> configs(2);
    for (auto &c : configs) {
        c.warmup = 5.0;
        c.measure = 15.0;
    }
    configs[1].webQueue = 15;
    const auto params = WorkloadParams::defaults();
    const auto a = collectSimulated(configs, params, 7, 2);
    const auto b = collectSimulated(configs, params, 7, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].y, b[i].y);
}

TEST(CollectTest, ReplicationReducesVariance)
{
    // The spread of repeated 1-replicate measurements should exceed
    // the spread of 4-replicate averages for the same configuration.
    ThreeTierConfig cfg;
    cfg.warmup = 5.0;
    cfg.measure = 15.0;
    const auto params = WorkloadParams::defaults();
    std::vector<double> single, averaged;
    for (std::uint64_t s = 0; s < 6; ++s) {
        single.push_back(
            collectSimulated({cfg}, params, 1000 + s, 1)[0].y[4]);
        averaged.push_back(
            collectSimulated({cfg}, params, 2000 + 10 * s, 4)[0].y[4]);
    }
    const double spread_single =
        *std::max_element(single.begin(), single.end()) -
        *std::min_element(single.begin(), single.end());
    const double spread_avg =
        *std::max_element(averaged.begin(), averaged.end()) -
        *std::min_element(averaged.begin(), averaged.end());
    EXPECT_LT(spread_avg, spread_single * 1.05);
}
