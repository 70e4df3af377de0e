/**
 * @file
 * Golden pinning of the lifecycle replay: the checked-in drift
 * journal (tests/data/lifecycle_drift.journal), replayed against the
 * checked-in incumbent bundle, must reproduce the pinned decision
 * digest and final-bundle digest. This is the acceptance gate of
 * DESIGN.md §5.9: decisions and candidate weights are functions of
 * (record stream, seed) alone.
 *
 * The options below are deliberately restricted to what
 * `wcnn lifecycle replay` can express on its command line, so CI's
 * lifecycle-smoke job replays the same journal through the CLI and
 * asserts the same digest (tests/data/lifecycle_drift.digest):
 *
 *   wcnn lifecycle replay --journal tests/data/lifecycle_drift.journal
 *     --model tests/data/lifecycle_incumbent.bundle
 *     --drift-window 8 --drift-threshold 0.25 --drift-patience 2
 *     --retrain-window 16 --shadow-window 8 --seed 99 --epochs 400
 *
 * Regenerate after an *intentional* lifecycle/model change with
 *   WCNN_GOLDEN_REGEN=1 ./golden_lifecycle_test
 * which rewrites the journal, the incumbent bundle and the digest
 * file in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "lifecycle/controller.hh"
#include "lifecycle/journal.hh"
#include "lifecycle/replay.hh"
#include "lifecycle_test_util.hh"
#include "serve/bundle.hh"

#ifndef WCNN_LIFECYCLE_DATA_DIR
#error "build must define WCNN_LIFECYCLE_DATA_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace wcnn;

const std::string kDataDir = WCNN_LIFECYCLE_DATA_DIR;
const std::string kJournalPath = kDataDir + "/lifecycle_drift.journal";
const std::string kBundlePath =
    kDataDir + "/lifecycle_incumbent.bundle";
const std::string kDigestPath = kDataDir + "/lifecycle_drift.digest";

/**
 * Exactly the knobs the CLI invocation in the header sets; everything
 * else stays at library defaults so the CLI run matches.
 */
lifecycle::LifecycleOptions
goldenOptions()
{
    lifecycle::LifecycleOptions opts;
    opts.drift.window = 8;
    opts.drift.threshold = 0.25;
    opts.drift.patience = 2;
    opts.retrain.seed = 99;
    opts.retrain.model.train.maxEpochs = 400;
    opts.retrainWindow = 16;
    opts.shadowWindow = 8;
    return opts;
}

bool
regenRequested()
{
    const char *env = std::getenv("WCNN_GOLDEN_REGEN");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

TEST(GoldenLifecycle, ReplayMatchesPinnedDigests)
{
    if (regenRequested()) {
        const auto incumbent = lifecycle_test::makeIncumbent();
        const lifecycle::Journal journal =
            lifecycle_test::promotionJournal(*incumbent);
        lifecycle::writeJournal(kJournalPath, journal);
        incumbent->save(kBundlePath);

        const lifecycle::ReplayResult result = lifecycle::replayJournal(
            journal, incumbent, goldenOptions());
        std::ofstream digest(kDigestPath);
        digest << "decisions " << result.digest << '\n'
               << "bundle " << result.finalBundleDigest << '\n';
        ASSERT_TRUE(digest.good());
        std::printf("regenerated %s\n  decisions %s\n  bundle %s\n",
                    kDataDir.c_str(), result.digest.c_str(),
                    result.finalBundleDigest.c_str());
        return;
    }

    // Pinned values live next to the journal so the CI smoke job can
    // assert them without compiling this test's tables.
    std::ifstream digest_file(kDigestPath);
    ASSERT_TRUE(digest_file.good()) << kDigestPath;
    std::string key;
    std::string expect_decisions;
    std::string expect_bundle;
    digest_file >> key >> expect_decisions;
    ASSERT_EQ(key, "decisions");
    digest_file >> key >> expect_bundle;
    ASSERT_EQ(key, "bundle");

    const lifecycle::Journal journal =
        lifecycle::readJournal(kJournalPath);
    auto incumbent = std::make_shared<const serve::ModelBundle>(
        serve::ModelBundle::load(kBundlePath));

    const lifecycle::ReplayResult result =
        lifecycle::replayJournal(journal, incumbent, goldenOptions());
    EXPECT_EQ(result.digest, expect_decisions)
        << "decision digest diverged";
    EXPECT_EQ(result.finalBundleDigest, expect_bundle)
        << "candidate weights diverged";
    // The stream promotes exactly once.
    EXPECT_EQ(result.stats.promotions, 1u);
    EXPECT_EQ(result.finalVersion, 2u);
}

TEST(GoldenLifecycle, LiveControllerMatchesReplay)
{
    if (regenRequested())
        GTEST_SKIP() << "regen run";

    // The same record stream driven through a hand-held controller
    // (the live-serve shape) must land on the byte-identical digest —
    // replay is the live loop, not a reimplementation.
    const lifecycle::Journal journal =
        lifecycle::readJournal(kJournalPath);
    auto incumbent = std::make_shared<const serve::ModelBundle>(
        serve::ModelBundle::load(kBundlePath));

    const lifecycle::ReplayResult result =
        lifecycle::replayJournal(journal, incumbent, goldenOptions());

    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    lifecycle::LifecycleController controller(host, goldenOptions());
    for (const lifecycle::ObservationRecord &rec : journal.records)
        controller.record(rec);

    EXPECT_EQ(controller.digest(), result.digest);
    EXPECT_EQ(lifecycle::bundleDigest(*registry.active()),
              result.finalBundleDigest);
}

} // namespace
