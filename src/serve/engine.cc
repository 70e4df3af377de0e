#include "engine.hh"

#include <utility>

#include "core/contracts.hh"
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

} // namespace

// ServeCore ----------------------------------------------------------

ServeCore::ServeCore(ServeOptions options)
    : opts(std::move(options)), cache(opts.cache),
      queue(bundles, opts.batch)
{
    WCNN_REQUIRE(opts.maxConnections >= 1,
                 "maxConnections must be >= 1");
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

    // Direct forward on the incumbent: deterministic bits, and neither
    // the cache nor the batcher sees feedback traffic.
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
    const std::uint64_t version = bundles.version();
    y = queue.predictOne(x);
    // Best-effort: skip the insert when a hot swap raced the forward,
    // so a stale prediction cannot outlive deploy()'s invalidation.
    if (bundles.version() == version)
        cache.insert(x, y);
    return y;
}

std::vector<ServeCore::PendingGroup>
ServeCore::answerRequestsAsync(
    const std::vector<numeric::Vector> &requests,
    const OnResult &on_result, const OnError &on_error,
    const std::function<void()> &on_ready)
{
    std::vector<PendingGroup> out;
    if (!opts.coalesceFrames && requests.size() > 1) {
        // Per-request baseline: every request is its own group (its
        // own dispatcher wakeup, its own forward).
        for (std::size_t i = 0; i < requests.size(); ++i) {
            std::vector<PendingGroup> sub = answerRequestsAsync(
                {requests[i]},
                [&](std::size_t, const numeric::Vector &y) {
                    on_result(i, y);
                },
                [&](std::size_t, const wcnn::Error &error) {
                    on_error(i, error);
                },
                on_ready);
            for (PendingGroup &group : sub) {
                // The inner group indexes its single-request view;
                // re-address its rows to the caller's slot.
                for (std::size_t &slot : group.slots)
                    slot = i;
                out.push_back(std::move(group));
            }
        }
        return out;
    }

    nRequests.fetch_add(requests.size());
    WCNN_COUNTER_ADD("serve.requests", requests.size());
    const std::int64_t start_ns =
        WCNN_TELEMETRY_ENABLED() ? core::telemetry::nowNs() : 0;

    const BundlePtr bundle = bundles.active();
    std::vector<std::size_t> miss_index;
    numeric::Vector y;

    // Pass 1: per-request validation and cache lookups.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (bundle == nullptr) {
            nErrors.fetch_add(1);
            on_error(i, NoModelError());
        } else if (requests[i].size() != bundle->inputDim()) {
            nErrors.fetch_add(1);
            on_error(i, BadRequest(
                            "request has " +
                            std::to_string(requests[i].size()) +
                            " inputs, bundle expects " +
                            std::to_string(bundle->inputDim())));
        } else if (cache.lookup(requests[i], y)) {
            on_result(i, y);
        } else {
            miss_index.push_back(i);
        }
    }

    // Pass 2: all misses as ONE batcher group (this is the coalescing
    // that turns a pipelined client into a batched forward) — but
    // submitted without waiting; finishGroup() delivers the rows.
    if (!miss_index.empty()) {
        PendingGroup group;
        group.version = bundles.version();
        group.startNs = start_ns;
        group.slots = std::move(miss_index);
        group.keys.reserve(group.slots.size());
        for (const std::size_t i : group.slots)
            group.keys.push_back(requests[i]);
        try {
            numeric::Matrix xs(group.slots.size(),
                               bundle->inputDim());
            for (std::size_t k = 0; k < group.slots.size(); ++k)
                xs.setRow(k, requests[group.slots[k]]);
            group.future = queue.submitMany(std::move(xs), on_ready);
            out.push_back(std::move(group));
        } catch (const wcnn::Error &error) {
            // Admission control (Overloaded) and races with stop():
            // answered inline, synchronously, like a validation
            // failure.
            nErrors.fetch_add(group.slots.size());
            for (const std::size_t i : group.slots)
                on_error(i, error);
        }
    }

    if (start_ns != 0) {
        // Inline answers (everything not pending) record their
        // latency now; pending rows record theirs in finishGroup().
        std::size_t pending_rows = 0;
        for (const PendingGroup &group : out)
            pending_rows += group.slots.size();
        const std::uint64_t elapsed_us =
            elapsedUs(start_ns, core::telemetry::nowNs());
        for (std::size_t i = pending_rows; i < requests.size(); ++i)
            WCNN_HISTOGRAM_RECORD("serve.request_us", elapsed_us);
    }
    return out;
}

void
ServeCore::finishGroup(PendingGroup &group, const OnResult &on_result,
                       const OnError &on_error)
{
    try {
        const numeric::Matrix ys = group.future.get();
        // Best-effort cache fill: skipped when a hot swap raced the
        // forward, so a stale prediction cannot outlive deploy()'s
        // invalidation.
        const bool cacheable = bundles.version() == group.version;
        for (std::size_t k = 0; k < group.slots.size(); ++k) {
            const numeric::Vector row = ys.row(k);
            if (cacheable)
                cache.insert(group.keys[k], row);
            on_result(group.slots[k], row);
        }
    } catch (const wcnn::Error &error) {
        nErrors.fetch_add(group.slots.size());
        for (const std::size_t i : group.slots)
            on_error(i, error);
    }
    if (group.startNs != 0) {
        const std::uint64_t elapsed_us =
            elapsedUs(group.startNs, core::telemetry::nowNs());
        for (std::size_t k = 0; k < group.slots.size(); ++k)
            WCNN_HISTOGRAM_RECORD("serve.request_us", elapsed_us);
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
    return s;
}

} // namespace serve
} // namespace wcnn
