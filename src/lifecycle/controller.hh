/**
 * @file
 * The lifecycle state machine: drift -> retrain -> shadow -> gate.
 *
 * Closes the loop the ROADMAP queued at PR 5: the BundleRegistry could
 * hot-swap atomically, but nothing produced new bundles. The
 * LifecycleController consumes the record stream (record.hh) and
 * drives four stages:
 *
 *   Monitoring --drift--> Retraining --ok--> Shadowing --gate--> back
 *        ^                    |                  |
 *        +---- retrain failed +    promote / reject
 *
 *  - **Monitoring**: every record's relative error feeds the
 *    DriftDetector; records accumulate in a bounded retrain window (a
 *    ring whose slots are reused in place, so intake stops allocating
 *    once the window is full). Shadowed records join the ring when
 *    their shadow ends, in record order.
 *  - **Retraining** (synchronous): on drift, a candidate is trained on
 *    that window under seed-stream discipline (retrain.hh). A diverged
 *    retrain is a typed rejection, not a crash.
 *  - **Shadowing**: the next `shadowWindow` records are predicted by
 *    the candidate *alongside* the incumbent; its outputs are compared
 *    against the observations but never served — reply bytes are
 *    produced upstream of the sink, so shadowing is invisible on the
 *    wire by construction (ServeCore::observe). The window is kept
 *    flat (one row per record: x, observed, and the incumbent's
 *    error, computed at intake), so it holds one arity: a record that
 *    does not fit the candidate abandons the shadow with a typed
 *    error.
 *  - **Gate**: candidate beats the incumbent on windowed error ->
 *    atomic promote through the BundleHost (registry swap, cache
 *    invalidated, version bumped), with the displaced incumbent pushed
 *    onto a bounded history for one-command rollback(); otherwise the
 *    candidate is dropped.
 *
 * Determinism contract (lint R10): every decision is a function of the
 * record stream and the configured seed — record counts instead of
 * timers, seed streams instead of entropy, no wall-clock reads in this
 * directory. Replaying a journal therefore reproduces decisions,
 * candidate weights, and the decision digest bit-identically, which
 * tests/golden_lifecycle_test.cc pins.
 *
 * Failpoint sites: lifecycle.observe (record intake), lifecycle.detect
 * (drift evaluation), lifecycle.retrain (candidate training),
 * lifecycle.shadow (shadow-window evaluation), lifecycle.promote (the
 * gate). Faults surface typed; an aborted transition discards the
 * candidate and leaves the incumbent serving (chaos_lifecycle_test).
 */

#ifndef WCNN_LIFECYCLE_CONTROLLER_HH
#define WCNN_LIFECYCLE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "numeric/matrix.hh"

#include "lifecycle/drift.hh"
#include "lifecycle/host.hh"
#include "lifecycle/record.hh"
#include "lifecycle/retrain.hh"

namespace wcnn {
namespace lifecycle {

/** Full controller configuration. */
struct LifecycleOptions
{
    /** Drift detector tuning. */
    DriftOptions drift;

    /** Candidate training (hyperparameters + base seed). */
    RetrainOptions retrain;

    /** Most-recent records a candidate is retrained on (>= 1). */
    std::size_t retrainWindow = 64;

    /** Records a candidate is shadow-evaluated over (>= 1). */
    std::size_t shadowWindow = 32;

    /** Displaced incumbents kept for rollback (>= 1). */
    std::size_t historyLimit = 4;
};

/** The controller's current stage. */
enum class Stage
{
    Monitoring, ///< feeding the drift detector
    Shadowing,  ///< a candidate is under evaluation
};

/**
 * One state-machine transition, in decision order — the unit the
 * replay goldens digest.
 */
struct Decision
{
    /** Record seq that triggered the transition (rollback: records
     *  seen so far). */
    std::uint64_t seq = 0;

    /** "drift", "retrain-failed", "promote", "reject" or "rollback". */
    std::string event;

    /** Host version after the transition. */
    std::uint64_t version = 0;

    /** Windowed incumbent error (gate decisions only). */
    double incumbentError = 0.0;

    /** Windowed candidate error (gate decisions only). */
    double candidateError = 0.0;

    /** Bundle tag involved (candidate or restored incumbent). */
    std::string detail;
};

/** Stable one-line rendering of a decision (%.17g doubles). */
std::string formatDecision(const Decision &decision);

/** FNV-1a 64 digest over formatDecision() lines, as 16 hex chars. */
std::string decisionDigest(const std::vector<Decision> &decisions);

/**
 * Digest of a bundle's serialized artifact (weights, moments, schema)
 * — the "identical weights" half of the replay acceptance gate.
 */
std::string bundleDigest(const serve::ModelBundle &bundle);

/** Aggregate counters (exact, deterministic). */
struct LifecycleStats
{
    std::uint64_t records = 0;    ///< records accepted
    std::uint64_t drifts = 0;     ///< drift declarations
    std::uint64_t retrains = 0;   ///< candidates trained (or attempted)
    std::uint64_t promotions = 0; ///< candidates promoted
    std::uint64_t rejections = 0; ///< candidates rejected at the gate
    std::uint64_t rollbacks = 0;  ///< rollback() calls that restored
};

/**
 * The drift/retrain/shadow/promotion loop over one BundleHost.
 * Thread-safe: record() and rollback() serialize on one mutex, and
 * the lock-acquisition order *is* the record-stream order decisions
 * are functions of.
 */
class LifecycleController
{
  public:
    /**
     * @param bundle_host Where promotions land; must outlive the
     *                    controller.
     * @param options     Loop configuration.
     */
    LifecycleController(BundleHost &bundle_host,
                        LifecycleOptions options);

    LifecycleController(const LifecycleController &) = delete;
    LifecycleController &operator=(const LifecycleController &) = delete;

    /**
     * Consume one feedback record — the ServeCore observation-sink
     * shape. Drives the full state machine synchronously: a record
     * can trigger drift, a retrain, a shadow verdict, and a promotion
     * before this returns. The record is written straight into the
     * windows under the lock, never built or copied whole.
     *
     * @throws LifecycleError from armed lifecycle.* failpoints (the
     *         in-flight transition is discarded; the incumbent and
     *         host stay consistent), and when a record shadowed
     *         against a candidate disagrees with its dimensions (the
     *         candidate is discarded). RetrainFailure is *not*
     *         thrown — a diverged retrain is a recorded
     *         "retrain-failed" decision.
     */
    void record(const numeric::Vector &x,
                const numeric::Vector &predicted,
                const numeric::Vector &observed);

    /** Journal-record overload (replay path); seq is ignored — the
     *  controller numbers records by arrival. */
    void record(const ObservationRecord &rec);

    /**
     * One-command rollback: restore the most recently displaced
     * incumbent through the host (cache invalidated, version bumped).
     *
     * @return False when the history is empty (nothing restored).
     */
    bool rollback();

    /** Current stage. */
    Stage stage() const;

    /** Transitions so far, in decision order. */
    std::vector<Decision> decisions() const;

    /** Digest of decisions() — the replay golden. */
    std::string digest() const;

    /** Counter snapshot. */
    LifecycleStats stats() const;

    /** Bundles available to rollback(). */
    std::size_t historyDepth() const;

    /** The configuration in effect. */
    const LifecycleOptions &options() const { return opts; }

  private:
    /** Write a record's x and observed into the retrain ring,
     *  reusing its oldest slot once the ring is full. */
    void rememberLocked(std::uint64_t seq, const double *x,
                        std::size_t xdim, const double *observed,
                        std::size_t ydim);

    /** The retrain ring, oldest record first. */
    std::vector<ObservationRecord> retrainWindowLocked() const;

    /** Monitoring-stage step: detector feed + drift handling. */
    void monitorLocked(std::uint64_t seq, const numeric::Vector &x,
                       const numeric::Vector &predicted,
                       const numeric::Vector &observed);

    /** Shadowing-stage step: buffer + gate on a full window. */
    void shadowLocked(std::uint64_t seq, const numeric::Vector &x,
                      const numeric::Vector &predicted,
                      const numeric::Vector &observed);

    /** Evaluate the full shadow buffer and promote or reject. */
    void gateLocked(std::uint64_t seq);

    /** Move the shadowed records into the retrain ring, discard the
     *  candidate and return to Monitoring. */
    void abandonShadowLocked();

    BundleHost &host;
    const LifecycleOptions opts;

    mutable std::mutex mutex;
    DriftDetector detector;
    /** Retrain window: a ring of at most retrainWindow records
     *  (x and observed; a retrain reads nothing else). */
    std::vector<ObservationRecord> recent;
    std::size_t recentNext = 0; ///< ring slot the next record takes
    serve::BundlePtr candidate; ///< under shadow evaluation
    // The shadow window, flat and in record order: one row per record
    // holding its x, its observed and its incumbent relative error.
    numeric::Vector shadowRows;
    std::size_t shadowCount = 0;      ///< records in the window
    std::uint64_t shadowFirstSeq = 0; ///< seq of the window's first record
    std::uint64_t nextSeq = 0;
    std::uint64_t retrainIndex = 0;
    Stage currentStage = Stage::Monitoring;
    std::vector<Decision> log;
    std::deque<serve::BundlePtr> history; ///< displaced incumbents
    LifecycleStats counters;
};

} // namespace lifecycle
} // namespace wcnn

#endif // WCNN_LIFECYCLE_CONTROLLER_HH
