/**
 * @file
 * MicroBatcher determinism and admission control. The central claim —
 * a batched run is bit-identical to per-request ModelBundle::predict,
 * at every batch composition — is checked under real concurrency
 * (many client threads hammering one batcher) with exact double
 * equality. Also pins: group atomicity (a group larger than maxBatch
 * still runs whole), the dispatch rule (one batch takes every group
 * queued, never waiting for more), typed admission failures
 * (Overloaded / NoModelError / BadRequest / stopped), drain-on-stop,
 * and counter arithmetic.
 *
 * Tests that need groups to stay queued hold the dispatcher without a
 * sleep: one group on a deliberately slow bundle (a wide hidden
 * layer) is submitted first, and the groups under test are queued
 * once stats().batches shows the dispatcher took it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/batcher.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/registry.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Matrix;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::BadRequest;
using wcnn::serve::BatcherOptions;
using wcnn::serve::BundlePtr;
using wcnn::serve::BundleRegistry;
using wcnn::serve::MicroBatcher;
using wcnn::serve::ModelBundle;
using wcnn::serve::NoModelError;
using wcnn::serve::Overloaded;
using wcnn::serve::PredictionFuture;
using wcnn::serve::ServeError;

namespace {

/**
 * A 3-in/2-out bundle with `width` logistic hidden units. A wide layer
 * makes a deliberately slow bundle: a forward costs about 20 ns per
 * hidden unit per row on a 4-vCPU x86-64 host.
 */
BundlePtr
makeBundle(std::uint64_t seed = 1, std::size_t width = 8)
{
    Rng rng(seed);
    Mlp net(3,
            {LayerSpec{width, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(net),
        Standardizer::fromMoments({1.0, 2.0, 3.0}, {0.5, 1.5, 2.0}),
        Standardizer::fromMoments({0.1, -0.2}, {2.0, 3.0}),
        {"a", "b", "c"}, {"u", "v"}, "batching"));
}

/** Width that makes a one- or two-row hold last about 10 ms. */
constexpr std::size_t kSlowWidth = std::size_t{1} << 18;

/**
 * Occupy the dispatcher: submit one `rows`-row group and return once
 * the dispatcher has taken it, so the groups submitted next stay
 * queued behind its forward.
 */
PredictionFuture
holdDispatcher(MicroBatcher &batcher, std::size_t rows)
{
    const std::uint64_t taken = batcher.stats().batches;
    PredictionFuture hold = batcher.submitMany(Matrix(rows, 3));
    while (batcher.stats().batches == taken)
        std::this_thread::yield();
    return hold;
}

Vector
randomInput(Rng &rng)
{
    return {rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)};
}

} // namespace

TEST(ServeBatchingTest, BitIdenticalToDirectPredictUnderLoad)
{
    // Hammer the batcher from several threads and demand exact
    // equality with the direct (unbatched) bundle predict for every
    // request. The clients start behind a held dispatcher, so at least
    // one batch coalesces several of their groups.
    const std::size_t clients = 4;
    const std::size_t per_client = 40;
    BundleRegistry registry;
    const BundlePtr bundle = makeBundle(1, std::size_t{1} << 14);
    registry.swap(bundle);

    BatcherOptions opts;
    opts.maxBatch = 16;
    MicroBatcher batcher(registry, opts);
    PredictionFuture hold = holdDispatcher(batcher, opts.maxBatch);

    std::vector<std::thread> threads;
    std::vector<std::string> failures(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Rng rng = Rng::stream(99, c);
            for (std::size_t i = 0; i < per_client; ++i) {
                const Vector x = randomInput(rng);
                const Vector got = batcher.predictOne(x);
                const Vector want = bundle->predict(x);
                if (got.size() != want.size()) {
                    failures[c] = "size mismatch";
                    return;
                }
                for (std::size_t j = 0; j < want.size(); ++j)
                    if (got[j] != want[j]) { // exact, not approximate
                        failures[c] = "bit mismatch at output " +
                                      std::to_string(j);
                        return;
                    }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t c = 0; c < clients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    EXPECT_EQ(hold.get().rows(), opts.maxBatch);

    const MicroBatcher::Stats s = batcher.stats();
    EXPECT_EQ(s.rows, clients * per_client + opts.maxBatch);
    EXPECT_EQ(s.groups, clients * per_client + 1);
    EXPECT_LT(s.batches, s.groups);
    EXPECT_EQ(s.maxBatchRows, opts.maxBatch);
}

TEST(ServeBatchingTest, SubmitManyKeepsRowOrder)
{
    BundleRegistry registry;
    const BundlePtr bundle = makeBundle(2);
    registry.swap(bundle);
    MicroBatcher batcher(registry);

    Rng rng(5);
    Matrix xs(9, 3);
    for (std::size_t i = 0; i < xs.rows(); ++i)
        xs.setRow(i, randomInput(rng));
    const Matrix ys = batcher.submitMany(xs).get();
    ASSERT_EQ(ys.rows(), xs.rows());
    for (std::size_t i = 0; i < xs.rows(); ++i) {
        const Vector want = bundle->predict(xs.row(i));
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(ys(i, j), want[j]) << "row " << i;
    }
}

TEST(ServeBatchingTest, GroupLargerThanMaxBatchRunsWhole)
{
    BundleRegistry registry;
    const BundlePtr bundle = makeBundle(3);
    registry.swap(bundle);

    BatcherOptions opts;
    opts.maxBatch = 4; // group of 11 rows exceeds it
    MicroBatcher batcher(registry, opts);

    Rng rng(6);
    Matrix xs(11, 3);
    for (std::size_t i = 0; i < xs.rows(); ++i)
        xs.setRow(i, randomInput(rng));
    const Matrix ys = batcher.submitMany(xs).get();
    ASSERT_EQ(ys.rows(), 11u);
    for (std::size_t i = 0; i < xs.rows(); ++i) {
        const Vector want = bundle->predict(xs.row(i));
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(ys(i, j), want[j]) << "row " << i;
    }
}

TEST(ServeBatchingTest, MaxBatchOneStillAnswersExactly)
{
    BundleRegistry registry;
    const BundlePtr bundle = makeBundle(4);
    registry.swap(bundle);

    BatcherOptions opts;
    opts.maxBatch = 1; // per-request baseline configuration
    MicroBatcher batcher(registry, opts);

    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
        const Vector x = randomInput(rng);
        const Vector got = batcher.predictOne(x);
        const Vector want = bundle->predict(x);
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(got[j], want[j]);
    }
}

TEST(ServeBatchingTest, NoModelDeployedThrowsTyped)
{
    BundleRegistry registry; // never swapped
    MicroBatcher batcher(registry);
    EXPECT_THROW((void)batcher.predictOne({1.0, 2.0, 3.0}),
                 NoModelError);
}

TEST(ServeBatchingTest, ArityMismatchThrowsBadRequest)
{
    BundleRegistry registry;
    registry.swap(makeBundle());
    MicroBatcher batcher(registry);
    EXPECT_THROW((void)batcher.predictOne({1.0, 2.0}), BadRequest);
    Matrix wide(2, 5);
    EXPECT_THROW((void)batcher.submitMany(wide), BadRequest);
}

TEST(ServeBatchingTest, EmptyGroupThrowsBadRequest)
{
    BundleRegistry registry;
    registry.swap(makeBundle());
    MicroBatcher batcher(registry);
    Matrix empty(0, 3);
    EXPECT_THROW((void)batcher.submitMany(empty), BadRequest);
}

TEST(ServeBatchingTest, QueueBoundRejectsWithOverloaded)
{
    BundleRegistry registry;
    registry.swap(makeBundle(1, kSlowWidth));

    BatcherOptions opts;
    opts.maxQueueRows = 8;
    opts.maxBatch = 4;
    MicroBatcher batcher(registry, opts);
    PredictionFuture hold = holdDispatcher(batcher, 2);

    // Flood the held queue with more rows than the bound allows: two
    // 3-row groups fit under 8, every later one is rejected typed, and
    // the stats agree with whatever happened.
    Rng rng(8);
    std::vector<PredictionFuture> accepted;
    std::uint64_t rejected = 0;
    for (int g = 0; g < 64; ++g) {
        Matrix xs(3, 3);
        for (std::size_t i = 0; i < xs.rows(); ++i)
            xs.setRow(i, randomInput(rng));
        try {
            accepted.push_back(batcher.submitMany(std::move(xs)));
        } catch (const Overloaded &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(hold.get().rows(), 2u);
    for (PredictionFuture &f : accepted)
        EXPECT_EQ(f.get().rows(), 3u);
    EXPECT_EQ(batcher.stats().rejected, rejected);
    EXPECT_EQ(batcher.stats().groups, accepted.size() + 1);
}

TEST(ServeBatchingTest, StopDrainsQueuedGroupsThenRefuses)
{
    BundleRegistry registry;
    const BundlePtr bundle = makeBundle(1, kSlowWidth);
    registry.swap(bundle);
    MicroBatcher batcher(registry);
    PredictionFuture hold = holdDispatcher(batcher, 1);

    Rng rng(9);
    std::vector<Vector> inputs;
    std::vector<PredictionFuture> futures;
    for (int g = 0; g < 6; ++g) {
        Matrix xs(1, 3);
        const Vector x = randomInput(rng);
        xs.setRow(0, x);
        inputs.push_back(x);
        futures.push_back(batcher.submitMany(std::move(xs)));
    }
    batcher.stop(); // must drain: every future resolves with a result
    EXPECT_EQ(hold.get().rows(), 1u);
    for (std::size_t g = 0; g < futures.size(); ++g) {
        const Matrix ys = futures[g].get();
        const Vector want = bundle->predict(inputs[g]);
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(ys(0, j), want[j]) << "group " << g;
    }
    // The six groups queued behind the hold ran as one batch: the
    // dispatcher takes everything queued.
    EXPECT_EQ(batcher.stats().batches, 2u);
    EXPECT_THROW((void)batcher.predictOne({1.0, 2.0, 3.0}), ServeError);
    batcher.stop(); // idempotent
}

TEST(ServeBatchingTest, IncompatibleSwapFailsPendingGroupTyped)
{
    // A group queued for a 3-input bundle must fail typed — not crash,
    // not answer garbage — when a 2-input bundle is swapped in before
    // the dispatcher reaches it: queue it behind a held dispatcher,
    // swap, then drain.
    BundleRegistry registry;
    registry.swap(makeBundle(1, kSlowWidth));

    MicroBatcher batcher(registry);
    PredictionFuture hold = holdDispatcher(batcher, 1);

    Matrix xs(1, 3);
    xs.setRow(0, {1.0, 2.0, 3.0});
    PredictionFuture f = batcher.submitMany(std::move(xs));

    Rng rng(10);
    Mlp small(2, {LayerSpec{2, Activation::identity()}},
              InitRule::SmallUniform, rng);
    registry.swap(std::make_shared<const ModelBundle>(
        ModelBundle::fromParts(std::move(small),
                               Standardizer::identity(2),
                               Standardizer::identity(2), {"a", "b"},
                               {"u", "v"}, "narrow")));
    batcher.stop();
    EXPECT_THROW((void)f.get(), BadRequest);
    // The held group may have snapshotted either bundle: it answers
    // on the old one or fails typed on the new one, never crashes.
    try {
        EXPECT_EQ(hold.get().rows(), 1u);
    } catch (const BadRequest &) {
    }
}
