/**
 * @file
 * The serving core: everything a request needs except the transport.
 *
 * ServeCore owns the BundleRegistry (hot swap), the PredictionCache,
 * the MicroBatcher, and the exact wire counters, and answers
 * requests cache-then-batch. It knows nothing about sockets: the
 * EventServer (event_server.hh) feeds it through one Session per
 * connection (session.hh), while bench_lifecycle and
 * chaos_lifecycle_test drive it directly with no transport at all.
 *
 * The reply bytes a client sees are checked against a sequential
 * model that shares no serving code with this one — the expected
 * stream is built from ModelBundle::predict and the protocol codec
 * alone (tests/serve_equivalence_test.cc).
 */

#ifndef WCNN_SERVE_ENGINE_HH
#define WCNN_SERVE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hh"
#include "serve/batcher.hh"
#include "serve/cache.hh"
#include "serve/registry.hh"

namespace wcnn {
namespace serve {

/** Full server configuration. */
struct ServeOptions
{
    /** Local address to bind. */
    std::string host = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** listen(2) backlog. */
    int backlog = 32;

    /** Concurrent connection bound; the surplus is rejected typed. */
    std::size_t maxConnections = 32;

    /** Idle connection timeout; <= 0 disables. */
    int idleTimeoutMs = 30000;

    /**
     * Whether a connection handler may coalesce the requests it has
     * buffered into one batcher group and their responses into one
     * write. False forces one group per request and one write(2) per
     * response — a server with no batching anywhere in its path,
     * the honest per-request baseline `wcnn bench-serve` and
     * bench_serve compare micro-batching against.
     */
    bool coalesceFrames = true;

    /**
     * Number of shard event loops the acceptor distributes
     * connections over (round-robin). 0 selects one per hardware
     * thread, capped at 8.
     */
    std::size_t shards = 0;

    /** Micro-batching knobs. */
    BatcherOptions batch;

    /** Prediction cache knobs; capacity 0 disables caching. */
    CacheOptions cache;
};

/** Wire-level counters (exact). */
struct ServeStats
{
    /** Connections accepted and handled. */
    std::uint64_t accepted = 0;
    /** Connections rejected by the connection bound. */
    std::uint64_t rejectedConnections = 0;
    /** Predict requests answered (success or typed error). */
    std::uint64_t requests = 0;
    /** Requests answered with an error frame. */
    std::uint64_t errors = 0;
    /** Pings answered. */
    std::uint64_t pings = 0;
    /** Observe feedback records accepted (Ack sent). */
    std::uint64_t observations = 0;
    /** Observations dropped because the lifecycle sink faulted. */
    std::uint64_t droppedObservations = 0;
    /** Connections currently being served. */
    std::size_t activeConnections = 0;
};

/**
 * Transport-independent serving core: bundle registry, prediction
 * cache, micro-batcher, and exact wire counters.
 */
class ServeCore
{
  public:
    /** @param options The owning server's configuration. */
    explicit ServeCore(const ServeOptions &options);

    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /** Atomically install a bundle and invalidate the cache. */
    std::uint64_t deploy(BundlePtr bundle);

    /** Snapshot of the active bundle (null before the first deploy). */
    BundlePtr active() const { return bundles.active(); }

    /** Version of the active bundle (bumps on every deploy). */
    std::uint64_t version() const { return bundles.version(); }

    /**
     * Lifecycle feedback sink: (x, predicted, observed) per accepted
     * Observe request. Calls are serialized under one lock, so the
     * order the sink sees *is* the record-stream order the lifecycle
     * determinism contract is stated over.
     */
    using ObservationSink = std::function<void(
        const numeric::Vector &x, const numeric::Vector &predicted,
        const numeric::Vector &observed)>;

    /** Install (or clear, with {}) the observation sink. */
    void setObservationSink(ObservationSink sink);

    /**
     * Handle one Observe feedback record: validate, predict x on the
     * incumbent bundle (direct, deterministic bits — no cache, no
     * batcher), and forward (x, predicted, observed) to the sink.
     * The reply a client sees never depends on the sink: a sink
     * fault is contained here (record dropped, counter bumped), so
     * shadow evaluation is invisible on the wire by construction.
     *
     * @throws NoModelError before the first deploy, BadRequest when
     *         x or y disagree with the bundle's dimensions.
     */
    void observe(const numeric::Vector &x, const numeric::Vector &y);

    /** In-process predict: cache, then micro-batcher on a miss. */
    numeric::Vector predict(const numeric::Vector &x);

    /** In-process batched predict (row i of the result = row i in). */
    numeric::Matrix predictMany(const numeric::Matrix &xs);

    /** Result callback: (request index, prediction). */
    using OnResult =
        std::function<void(std::size_t, const numeric::Vector &)>;
    /** Error callback: (request index, typed error). */
    using OnError =
        std::function<void(std::size_t, const wcnn::Error &)>;

    /**
     * One in-flight batcher group of answerRequestsAsync(): the
     * future plus everything finishGroup() needs to deliver it —
     * which request slot each row answers, the cache keys, and the
     * bundle version guarding the cache inserts.
     */
    struct PendingGroup
    {
        PredictionFuture future;
        /** Request index answered by each future row, in row order. */
        std::vector<std::size_t> slots;
        /** Cache key per row (the request vectors themselves). */
        std::vector<numeric::Vector> keys;
        /** Bundle version at submit; inserts skip on a raced swap. */
        std::uint64_t version = 0;
        /** answerRequestsAsync() entry time (latency telemetry). */
        std::int64_t startNs = 0;

        /** Whether finishGroup() would return without blocking. */
        bool ready() const { return future.ready(); }
    };

    /**
     * Answer a coalesced span of request vectors without blocking:
     * everything answerable *now* — admission failures, arity errors,
     * cache hits — is delivered through the callbacks, in request
     * order, before returning; cache misses are submitted to the
     * batcher as one group (or one group per request when coalescing
     * is off) without waiting. Each returned group must later be
     * handed to finishGroup() to deliver its rows. `on_ready` is
     * forwarded to MicroBatcher::submitMany (fires once per group,
     * from the dispatcher thread, after that group resolved) so an
     * event loop can sleep instead of polling.
     */
    std::vector<PendingGroup> answerRequestsAsync(
        const std::vector<numeric::Vector> &requests,
        const OnResult &on_result, const OnError &on_error,
        const std::function<void()> &on_ready);

    /**
     * Deliver a resolved group's rows through the callbacks (blocks
     * if the group has not resolved yet), inserting cacheable results
     * under the version guard. Call at most once per group.
     */
    void finishGroup(PendingGroup &group, const OnResult &on_result,
                     const OnError &on_error);

    /** Refuse new batches and drain the queued ones (shutdown). */
    void stopBatcher() { queue.stop(); }

    /** Micro-batcher counters. */
    MicroBatcher::Stats batcherStats() const { return queue.stats(); }

    /** Prediction cache counters. */
    PredictionCache::Stats cacheStats() const { return cache.stats(); }

    // Exact wire counters, bumped by the server and the Session.
    void noteAccepted();
    void noteRejectedConnection();
    void notePing();
    void noteProtocolError();
    void noteFrameError();

    /** Counter snapshot (activeConnections left 0; the server
     *  fills it). */
    ServeStats statsSnapshot() const;

  private:
    const ServeOptions &opts;
    BundleRegistry bundles;
    PredictionCache cache;
    MicroBatcher queue;

    /** Serializes sink installs and calls (record-stream order). */
    mutable std::mutex sinkMutex;
    ObservationSink sink;

    std::atomic<std::uint64_t> nAccepted{0};
    std::atomic<std::uint64_t> nRejected{0};
    std::atomic<std::uint64_t> nRequests{0};
    std::atomic<std::uint64_t> nErrors{0};
    std::atomic<std::uint64_t> nPings{0};
    std::atomic<std::uint64_t> nObservations{0};
    std::atomic<std::uint64_t> nDroppedObservations{0};
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_ENGINE_HH
