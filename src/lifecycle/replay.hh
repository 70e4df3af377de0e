/**
 * @file
 * Offline replay: the lifecycle loop as a pure batch computation.
 *
 * Feeds a journaled record stream through a fresh LifecycleController
 * over a private registry. Because the controller is a pure function
 * of (record stream, seed) — lint R10 keeps the wall clock out — the
 * replay reproduces a live run's drift points, candidate weights, and
 * promote/reject verdicts bit-identically. The loop has no thread
 * count: the shadow gate scores its window in one loop, in record
 * order. That makes the journal the unit of post-mortem: re-run it
 * with different thresholds, inspect every decision, pin the whole
 * loop under a golden digest (tests/golden_lifecycle_test.cc, CI
 * lifecycle-smoke).
 */

#ifndef WCNN_LIFECYCLE_REPLAY_HH
#define WCNN_LIFECYCLE_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lifecycle/controller.hh"
#include "lifecycle/journal.hh"

namespace wcnn {
namespace lifecycle {

/** Everything a replay run produces. */
struct ReplayResult
{
    /** Records consumed. */
    std::size_t records = 0;

    /** Every state-machine transition, in decision order. */
    std::vector<Decision> decisions;

    /** decisionDigest() over `decisions` — the golden value. */
    std::string digest;

    /** Registry version after the run (= promotions + 1). */
    std::uint64_t finalVersion = 0;

    /** The bundle left serving (incumbent or last promotion). */
    serve::BundlePtr finalBundle;

    /** bundleDigest() of finalBundle — pins the candidate weights. */
    std::string finalBundleDigest;

    /** Counter snapshot. */
    LifecycleStats stats;
};

/**
 * Replay a parsed journal against an initial incumbent.
 *
 * @param journal Record stream (readJournal()).
 * @param initial Incumbent bundle deployed before the first record;
 *                must be loaded and match the journal's dimensions.
 * @param options Loop configuration (threshold, windows, seed).
 * @return The full decision log and digests.
 * @throws JournalError on a journal/bundle dimension mismatch;
 *         LifecycleError from armed lifecycle.* failpoints.
 */
ReplayResult replayJournal(const Journal &journal,
                           serve::BundlePtr initial,
                           const LifecycleOptions &options);

} // namespace lifecycle
} // namespace wcnn

#endif // WCNN_LIFECYCLE_REPLAY_HH
