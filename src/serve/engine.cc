#include "engine.hh"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "serve/error.hh"

namespace wcnn {
namespace serve {

namespace {

/** Non-negative microseconds between two telemetry timestamps. */
std::uint64_t
elapsedUs(std::int64_t start_ns, std::int64_t end_ns)
{
    const std::int64_t d = end_ns - start_ns;
    return static_cast<std::uint64_t>(d > 0 ? d / 1000 : 0);
}

/** The typed answer to a request of the wrong arity. */
BadRequest
arityMismatch(std::size_t got, const ModelBundle &bundle)
{
    return BadRequest("request has " + std::to_string(got) +
                      " inputs, bundle expects " +
                      std::to_string(bundle.inputDim()));
}

} // namespace

// ServeCore ----------------------------------------------------------

ServeCore::ServeCore(ServeOptions options)
    : opts(std::move(options)), cache(opts.cache)
{
    WCNN_REQUIRE(opts.maxConnections >= 1,
                 "maxConnections must be >= 1");
    WCNN_REQUIRE(opts.maxBatch >= 1, "maxBatch must be >= 1");
}

std::uint64_t
ServeCore::deploy(BundlePtr bundle)
{
    const std::uint64_t version = bundles.swap(std::move(bundle));
    // Order matters: the swap is visible before the clear, so a racing
    // predict can at worst re-insert a prediction of the *new* bundle.
    cache.clear();
    return version;
}

void
ServeCore::setObservationSink(ObservationSink new_sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    sink = std::move(new_sink);
}

void
ServeCore::observe(const numeric::Vector &x, const numeric::Vector &y)
{
    const BundlePtr bundle = bundles.active();
    if (bundle == nullptr)
        throw NoModelError();
    if (x.size() != bundle->inputDim())
        throw BadRequest("observation has " + std::to_string(x.size()) +
                         " inputs, bundle expects " +
                         std::to_string(bundle->inputDim()));
    if (y.size() != bundle->outputDim())
        throw BadRequest("observation has " + std::to_string(y.size()) +
                         " outputs, bundle expects " +
                         std::to_string(bundle->outputDim()));

    // Direct forward on the incumbent: deterministic bits, and the
    // cache never sees feedback traffic.
    const numeric::Vector predicted = bundle->predict(x);

    nObservations.fetch_add(1);
    WCNN_COUNTER_ADD("serve.observations", 1);

    // The sink is called under the lock: the acquisition order defines
    // the record-stream order lifecycle decisions are functions of. A
    // sink fault is contained — the record is dropped and counted, the
    // client still gets its Ack, the incumbent keeps serving.
    std::lock_guard<std::mutex> lock(sinkMutex);
    if (!sink)
        return;
    try {
        sink(x, predicted, y);
    } catch (const wcnn::Error &) {
        nDroppedObservations.fetch_add(1);
        WCNN_COUNTER_ADD("serve.observations_dropped", 1);
    }
}

numeric::Vector
ServeCore::predict(const numeric::Vector &x)
{
    numeric::Vector y;
    if (cache.lookup(x, y))
        return y;
    const BundleRegistry::Snapshot snap = bundles.snapshot();
    if (snap.bundle == nullptr)
        throw NoModelError();
    if (x.size() != snap.bundle->inputDim())
        throw arityMismatch(x.size(), *snap.bundle);
    y = snap.bundle->predict(x);
    // Best-effort: skip the insert when a hot swap raced the forward,
    // so a stale prediction cannot outlive deploy()'s invalidation.
    if (bundles.version() == snap.version)
        cache.insert(x, y);
    return y;
}

void
ServeCore::answer(const std::vector<numeric::Vector> &requests,
                  const OnResult &on_result, const OnError &on_error)
{
    nRequests.fetch_add(requests.size());
    WCNN_COUNTER_ADD("serve.requests", requests.size());
    const std::int64_t start_ns =
        WCNN_TELEMETRY_ENABLED() ? core::telemetry::nowNs() : 0;

    // One snapshot for the whole span: every forward below runs on
    // this bundle, and its version guards every cache insert.
    const BundleRegistry::Snapshot snap = bundles.snapshot();
    std::vector<std::size_t> misses;
    numeric::Vector y;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (snap.bundle == nullptr) {
            nErrors.fetch_add(1);
            on_error(i, NoModelError());
        } else if (requests[i].size() != snap.bundle->inputDim()) {
            nErrors.fetch_add(1);
            on_error(i, arityMismatch(requests[i].size(), *snap.bundle));
        } else if (cache.lookup(requests[i], y)) {
            on_result(i, y);
        } else {
            misses.push_back(i);
        }
    }

    // The misses, in row order, as forwards of at most the row budget
    // (this is the coalescing that turns a pipelined client into a
    // batched forward; the per-request baseline runs one row each).
    const std::size_t budget = opts.coalesceFrames ? opts.maxBatch : 1;
    for (std::size_t at = 0; at < misses.size(); at += budget)
        forward(snap, requests, misses.data() + at,
                std::min(budget, misses.size() - at), on_result,
                on_error);

    if (start_ns != 0) {
        const std::uint64_t elapsed_us =
            elapsedUs(start_ns, core::telemetry::nowNs());
        for (std::size_t i = 0; i < requests.size(); ++i)
            WCNN_HISTOGRAM_RECORD("serve.request_us", elapsed_us);
    }
}

void
ServeCore::forward(const BundleRegistry::Snapshot &snap,
                   const std::vector<numeric::Vector> &requests,
                   const std::size_t *rows, std::size_t count,
                   const OnResult &on_result, const OnError &on_error)
{
    WCNN_SPAN("serve.batch", static_cast<double>(count));
    WCNN_HISTOGRAM_RECORD("serve.batch.rows", count);
    nBatches.fetch_add(1);
    std::size_t seen = maxRows.load();
    while (count > seen && !maxRows.compare_exchange_weak(seen, count)) {
    }

    const ModelBundle &bundle = *snap.bundle;
    numeric::Matrix ys;
    try {
        WCNN_FAILPOINT("serve.predict",
                       throw ServeError("injected: serve.predict"));
        numeric::Matrix xs(count, bundle.inputDim());
        for (std::size_t k = 0; k < count; ++k)
            xs.setRow(k, requests[rows[k]]);
        ys = bundle.predictAll(xs);
    } catch (const wcnn::Error &error) {
        // A fault costs this forward's rows, never the caller's loop.
        nErrors.fetch_add(count);
        for (std::size_t k = 0; k < count; ++k)
            on_error(rows[k], error);
        return;
    } catch (const std::exception &e) {
        // Bugs (contract trips) neither: converted to a typed serving
        // fault carrying the text.
        const ServeError error(std::string("predict failed: ") +
                               e.what());
        nErrors.fetch_add(count);
        for (std::size_t k = 0; k < count; ++k)
            on_error(rows[k], error);
        return;
    }

    // Best-effort cache fill: skipped when a hot swap raced the
    // forward, so a stale prediction cannot outlive deploy()'s
    // invalidation.
    const bool cacheable = bundles.version() == snap.version;
    for (std::size_t k = 0; k < count; ++k) {
        const numeric::Vector y = ys.row(k);
        if (cacheable)
            cache.insert(requests[rows[k]], y);
        on_result(rows[k], y);
    }
}

void
ServeCore::noteAccepted()
{
    nAccepted.fetch_add(1);
    WCNN_COUNTER_ADD("serve.conn.accepted", 1);
}

void
ServeCore::noteRejectedConnection()
{
    nRejected.fetch_add(1);
    WCNN_COUNTER_ADD("serve.conn.rejected", 1);
}

void
ServeCore::notePing()
{
    nPings.fetch_add(1);
}

void
ServeCore::noteProtocolError()
{
    nErrors.fetch_add(1);
    WCNN_COUNTER_ADD("serve.protocol_errors", 1);
}

void
ServeCore::noteFrameError()
{
    nErrors.fetch_add(1);
}

ServeStats
ServeCore::statsSnapshot() const
{
    ServeStats s;
    s.accepted = nAccepted.load();
    s.rejectedConnections = nRejected.load();
    s.requests = nRequests.load();
    s.errors = nErrors.load();
    s.pings = nPings.load();
    s.observations = nObservations.load();
    s.droppedObservations = nDroppedObservations.load();
    s.batches = nBatches.load();
    s.maxBatchRows = maxRows.load();
    return s;
}

} // namespace serve
} // namespace wcnn
