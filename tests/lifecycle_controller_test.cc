/**
 * @file
 * The lifecycle state machine end to end: a drifting stream promotes
 * a retrained candidate, a transient blip is rejected at the gate,
 * rollback() restores the displaced incumbent, a huge shadow window
 * costs no memory up front, and the promoted registry stays
 * consistent under concurrent predict traffic (the suite the TSan
 * preset exercises).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "lifecycle/controller.hh"
#include "lifecycle/host.hh"
#include "lifecycle/replay.hh"
#include "lifecycle_test_util.hh"
#include "serve/registry.hh"

namespace {

using namespace wcnn;
using namespace wcnn::lifecycle_test;
using lifecycle::Decision;
using lifecycle::LifecycleController;
using lifecycle::Stage;

void
feedAll(LifecycleController &controller,
        const lifecycle::Journal &journal)
{
    for (const lifecycle::ObservationRecord &rec : journal.records)
        controller.record(rec);
}

TEST(LifecycleController, SustainedDriftPromotes)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    feedAll(controller, promotionJournal(*incumbent));

    const auto stats = controller.stats();
    EXPECT_EQ(stats.drifts, 1u);
    EXPECT_EQ(stats.retrains, 1u);
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.rejections, 0u);

    // The registry now serves the candidate, version bumped, and the
    // displaced incumbent is waiting in the rollback history.
    EXPECT_EQ(registry.version(), 2u);
    EXPECT_EQ(registry.active()->tag(), "lifecycle-r0");
    EXPECT_EQ(controller.historyDepth(), 1u);
    EXPECT_EQ(controller.stage(), Stage::Monitoring);

    // Decision log: a drift, then a promote whose candidate error
    // beat the incumbent's.
    const std::vector<Decision> decisions = controller.decisions();
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[0].event, "drift");
    EXPECT_EQ(decisions[1].event, "promote");
    EXPECT_LT(decisions[1].candidateError,
              decisions[1].incumbentError);

    // The promoted bundle actually tracks the drifted surface.
    const double err = lifecycle::relativeError(
        registry.active()->predict({0.5, 0.5}),
        {driftedSurface(0.5, 0.5)});
    EXPECT_LT(err, 0.2);
}

TEST(LifecycleController, TransientBlipIsRejected)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    feedAll(controller, rejectionJournal(*incumbent));

    const auto stats = controller.stats();
    EXPECT_EQ(stats.drifts, 1u);
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.rejections, 1u);

    // Incumbent untouched: same bundle object, version unchanged,
    // nothing to roll back to.
    EXPECT_EQ(registry.version(), 1u);
    EXPECT_EQ(registry.active().get(), incumbent.get());
    EXPECT_EQ(controller.historyDepth(), 0u);
    EXPECT_EQ(controller.stage(), Stage::Monitoring);
}

TEST(LifecycleController, RollbackRestoresDisplacedIncumbent)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    feedAll(controller, promotionJournal(*incumbent));
    ASSERT_EQ(controller.historyDepth(), 1u);
    ASSERT_NE(registry.active().get(), incumbent.get());

    EXPECT_TRUE(controller.rollback());
    EXPECT_EQ(registry.active().get(), incumbent.get());
    EXPECT_EQ(registry.version(), 3u); // swap counts like any deploy
    EXPECT_EQ(controller.historyDepth(), 0u);
    EXPECT_EQ(controller.stats().rollbacks, 1u);
    EXPECT_EQ(controller.decisions().back().event, "rollback");

    // History exhausted: a second rollback is a clean no-op.
    EXPECT_FALSE(controller.rollback());
    EXPECT_EQ(registry.version(), 3u);
}

TEST(LifecycleController, RollbackAbandonsInFlightShadow)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    // Promote once so the history is non-empty, then drift again and
    // stop mid-shadow.
    lifecycle::Journal journal = promotionJournal(*incumbent);
    numeric::Rng rng(33);
    appendSegment(journal, *incumbent, rng, 20, Truth::Base);
    feedAll(controller, journal);
    ASSERT_EQ(controller.stats().promotions, 1u);

    // The promoted bundle predicts the drifted surface, so *base*
    // observations now look like drift: push it into Shadowing.
    lifecycle::Journal blip;
    blip.inputDim = 2;
    blip.outputDim = 1;
    appendSegment(blip, *registry.active(), rng, 40, Truth::Base);
    for (const auto &rec : blip.records) {
        controller.record(rec);
        if (controller.stage() == Stage::Shadowing)
            break;
    }
    ASSERT_EQ(controller.stage(), Stage::Shadowing);

    EXPECT_TRUE(controller.rollback());
    EXPECT_EQ(controller.stage(), Stage::Monitoring);
    EXPECT_EQ(registry.active().get(), incumbent.get());
}

TEST(LifecycleController, HugeShadowWindowKeepsRecording)
{
    // The shadow window counts records; it reserves nothing up front,
    // so a window far beyond memory still shadows and keeps recording.
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    lifecycle::LifecycleOptions opts = testOptions();
    opts.shadowWindow = std::size_t{1} << 30;
    LifecycleController controller(host, opts);

    lifecycle::Journal journal = promotionJournal(*incumbent);
    numeric::Rng rng(34);
    appendSegment(journal, *incumbent, rng, 64, Truth::Drifted);
    feedAll(controller, journal);

    EXPECT_EQ(controller.stage(), Stage::Shadowing);
    const auto stats = controller.stats();
    EXPECT_EQ(stats.records, journal.records.size());
    EXPECT_EQ(stats.drifts, 1u);
    EXPECT_EQ(stats.promotions + stats.rejections, 0u);
    EXPECT_EQ(registry.active().get(), incumbent.get());
}

TEST(LifecycleController, HistoryIsBounded)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);

    lifecycle::LifecycleOptions opts = testOptions();
    opts.historyLimit = 2;
    LifecycleController controller(host, opts);

    // Alternate the ground truth so every retrain's candidate beats
    // the bundle promoted for the *other* surface: repeated
    // promotions.
    numeric::Rng rng(44);
    std::size_t promotions = 0;
    for (int flip = 0; flip < 8 && promotions < 4; ++flip) {
        const Truth truth =
            (flip % 2 == 0) ? Truth::Drifted : Truth::Base;
        lifecycle::Journal seg;
        seg.inputDim = 2;
        seg.outputDim = 1;
        appendSegment(seg, *registry.active(), rng, 48, truth);
        feedAll(controller, seg);
        promotions = controller.stats().promotions;
    }
    ASSERT_GE(promotions, 3u);
    EXPECT_LE(controller.historyDepth(), 2u);
}

TEST(LifecycleController, PromotionIsSafeUnderConcurrentPredicts)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    // Reader threads hammer whatever bundle is active while the
    // controller promotes and rolls back underneath them — the
    // registry's snapshot semantics must keep every predict on a
    // complete bundle (TSan-clean by construction).
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> predicts{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&registry, &stop, &predicts] {
            while (!stop.load()) {
                const serve::BundlePtr bundle = registry.active();
                const numeric::Vector y = bundle->predict({0.3, 0.7});
                if (!y.empty())
                    predicts.fetch_add(1);
            }
        });
    }

    feedAll(controller, promotionJournal(*incumbent));
    EXPECT_TRUE(controller.rollback());

    stop.store(true);
    for (std::thread &reader : readers)
        reader.join();

    EXPECT_EQ(controller.stats().promotions, 1u);
    EXPECT_EQ(controller.stats().rollbacks, 1u);
    EXPECT_GT(predicts.load(), 0u);
    EXPECT_EQ(registry.active().get(), incumbent.get());
}

TEST(LifecycleController, DigestIsDeterministic)
{
    const auto incumbent = makeIncumbent();
    const lifecycle::Journal journal = promotionJournal(*incumbent);

    const auto run = [&] {
        serve::BundleRegistry registry;
        registry.swap(incumbent);
        lifecycle::RegistryHost host(registry);
        LifecycleController controller(host, testOptions());
        feedAll(controller, journal);
        return controller.digest();
    };
    const std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first.size(), 16u);
}

} // namespace
