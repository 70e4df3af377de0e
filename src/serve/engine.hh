/**
 * @file
 * The serving core: everything a request needs except the transport.
 *
 * ServeCore owns its copy of the ServeOptions, the BundleRegistry
 * (hot swap), the PredictionCache and the exact wire counters, and
 * answers requests cache-then-forward on the calling thread: hits
 * from the cache, misses as consecutive ModelBundle::predictAll
 * forwards of at most `maxBatch` rows, in row order. No request
 * waits on another thread. It knows nothing about sockets: the
 * EventServer (event_server.hh) feeds it through one Session per
 * connection (session.hh), so each shard loop runs the forwards for
 * what it read, while bench_lifecycle and chaos_lifecycle_test drive
 * it directly with no transport at all.
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
     * Whether a connection may answer the requests of one read
     * together: their cache misses as shared forwards and their
     * replies as one write. False forces one forward per request and
     * one write(2) per response — a server with no batching anywhere
     * in its path, the honest per-request baseline bench_serve
     * compares micro-batching against.
     */
    bool coalesceFrames = true;

    /**
     * Row budget per forward. The misses of one read run as
     * consecutive forwards of at most this many rows; 1 gives every
     * miss its own forward.
     */
    std::size_t maxBatch = 64;

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
    /** Forwards run for wire requests. */
    std::uint64_t batches = 0;
    /** Largest row count of any single forward. */
    std::size_t maxBatchRows = 0;
    /** Connections currently being served. */
    std::size_t activeConnections = 0;
};

/**
 * Transport-independent serving core: bundle registry, prediction
 * cache, and exact wire counters.
 */
class ServeCore
{
  public:
    /** @param options The server configuration (copied). */
    explicit ServeCore(ServeOptions options);

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
     * incumbent bundle (direct, deterministic bits — no cache), and
     * forward (x, predicted, observed) to the sink.
     * The reply a client sees never depends on the sink: a sink
     * fault is contained here (record dropped, counter bumped), so
     * shadow evaluation is invisible on the wire by construction.
     *
     * @throws NoModelError before the first deploy, BadRequest when
     *         x or y disagree with the bundle's dimensions.
     */
    void observe(const numeric::Vector &x, const numeric::Vector &y);

    /**
     * In-process predict: the cache, then ModelBundle::predict on a
     * miss (bit-identical either way).
     *
     * @throws NoModelError before the first deploy, BadRequest when x
     *         disagrees with the bundle's input dimension.
     */
    numeric::Vector predict(const numeric::Vector &x);

    /** Result callback: (request index, prediction). */
    using OnResult =
        std::function<void(std::size_t, const numeric::Vector &)>;
    /** Error callback: (request index, typed error). */
    using OnError =
        std::function<void(std::size_t, const wcnn::Error &)>;

    /**
     * Answer a span of request vectors on the calling thread, calling
     * exactly one callback per request before returning. Arity errors
     * and cache hits are answered first, in request order; the misses
     * then run as consecutive forwards of at most `maxBatch` rows (1
     * when coalescing is off), in row order, on the bundle snapshot
     * taken on entry. A failed forward answers its own rows with a
     * typed error and leaves the other forwards alone.
     */
    void answer(const std::vector<numeric::Vector> &requests,
                const OnResult &on_result, const OnError &on_error);

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
    /** One forward over the misses `rows` (indices into `requests`):
     *  deliver each row, fill the cache under the version guard. */
    void forward(const BundleRegistry::Snapshot &snap,
                 const std::vector<numeric::Vector> &requests,
                 const std::size_t *rows, std::size_t count,
                 const OnResult &on_result, const OnError &on_error);

    const ServeOptions opts;
    BundleRegistry bundles;
    PredictionCache cache;

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
    std::atomic<std::uint64_t> nBatches{0};
    std::atomic<std::size_t> maxRows{0};
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_ENGINE_HH
