#include "batcher.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <vector>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "serve/error.hh"

namespace wcnn {
namespace serve {

namespace {

/** what() is "<kind>: <message>"; recover the bare message. */
std::string
bareMessage(const wcnn::Error &e)
{
    const std::string full = e.what();
    const std::string prefix = e.kind() + ": ";
    if (full.compare(0, prefix.size(), prefix) == 0)
        return full.substr(prefix.size());
    return full;
}

/** Reconstruct the typed exception a BatchOutcome kind stands for. */
[[noreturn]] void
rethrowOutcome(const std::string &kind, const std::string &message)
{
    if (kind == "serve.overloaded")
        throw Overloaded(message);
    if (kind == "serve.protocol")
        throw ProtocolError(message);
    if (kind == "serve.no_model")
        throw NoModelError();
    if (kind == "serve.bad_request")
        throw BadRequest(message);
    if (kind == "serve")
        throw ServeError(message);
    throw wcnn::Error(kind, message);
}

} // namespace

numeric::Matrix
PredictionFuture::get()
{
    BatchOutcome outcome = inner.get();
    if (outcome.ok)
        return std::move(outcome.ys);
    rethrowOutcome(outcome.kind, outcome.message);
}

bool
PredictionFuture::ready() const
{
    return inner.valid() &&
           inner.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
}

void
MicroBatcher::resolve(Group &group, BatchOutcome outcome)
{
    group.promise.set_value(std::move(outcome));
    // The hook fires strictly after the future is readable: a poller
    // woken by it must observe ready()==true, never a spurious wake
    // it would then wait on forever.
    if (group.notify)
        group.notify();
}

MicroBatcher::MicroBatcher(BundleRegistry &registry,
                           BatcherOptions options)
    : registry(registry), opts(options)
{
    WCNN_REQUIRE(opts.maxBatch >= 1, "maxBatch must be >= 1");
    WCNN_REQUIRE(opts.maxQueueRows >= 1, "maxQueueRows must be >= 1");
    dispatcher = std::thread([this] { dispatchLoop(); });
}

MicroBatcher::~MicroBatcher()
{
    stop();
}

PredictionFuture
MicroBatcher::submitMany(numeric::Matrix xs,
                         std::function<void()> on_ready)
{
    if (xs.rows() == 0)
        throw BadRequest("empty request group");

    const BundlePtr bundle = registry.active();
    if (bundle == nullptr)
        throw NoModelError();
    if (xs.cols() != bundle->inputDim())
        throw BadRequest("request has " + std::to_string(xs.cols()) +
                         " inputs, bundle expects " +
                         std::to_string(bundle->inputDim()));

    Group group;
    group.xs = std::move(xs);
    group.notify = std::move(on_ready);
    group.enqueuedNs = core::telemetry::nowNs();
    auto future = group.promise.get_future();

    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping)
            throw ServeError("batcher is stopped");
        const std::size_t rows = group.xs.rows();
        if (pendingRows + rows > opts.maxQueueRows) {
            ++counters.rejected;
            WCNN_COUNTER_ADD("serve.queue.rejected", 1);
            throw Overloaded(
                "prediction queue is full (" +
                std::to_string(pendingRows) + " rows pending, bound " +
                std::to_string(opts.maxQueueRows) + ")");
        }
        pendingRows += rows;
        ++counters.groups;
        counters.rows += rows;
        queue.push_back(std::move(group));
        WCNN_GAUGE_SET("serve.queue.depth",
                       static_cast<double>(pendingRows));
    }
    queueReady.notify_all();
    return PredictionFuture(std::move(future));
}

numeric::Vector
MicroBatcher::predictOne(const numeric::Vector &x)
{
    numeric::Matrix xs(1, x.size());
    xs.setRow(0, x);
    return submitMany(std::move(xs)).get().row(0);
}

void
MicroBatcher::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping && !dispatcher.joinable())
            return;
        stopping = true;
    }
    queueReady.notify_all();
    if (dispatcher.joinable())
        dispatcher.join();
}

MicroBatcher::Stats
MicroBatcher::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

void
MicroBatcher::dispatchLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        queueReady.wait(lock,
                        [this] { return stopping || !queue.empty(); });
        if (queue.empty())
            return; // stopping, and every queued group has executed

        // Take what is queued, never wait for more: whole groups up
        // to the row budget, always at least one so an oversized group
        // still executes (alone). Rows that arrive during the forward
        // form the next batch.
        std::vector<Group> batch;
        std::size_t batch_rows = 0;
        while (!queue.empty()) {
            const std::size_t rows = queue.front().xs.rows();
            if (!batch.empty() && batch_rows + rows > opts.maxBatch)
                break;
            batch_rows += rows;
            batch.push_back(std::move(queue.front()));
            queue.pop_front();
        }
        pendingRows -= batch_rows;
        ++counters.batches;
        counters.maxBatchRows =
            std::max(counters.maxBatchRows, batch_rows);
        WCNN_GAUGE_SET("serve.queue.depth",
                       static_cast<double>(pendingRows));

        lock.unlock();
        executeBatch(batch, batch_rows);
        lock.lock();
    }
}

void
MicroBatcher::executeBatch(std::vector<Group> &batch,
                           std::size_t batch_rows)
{
    WCNN_SPAN("serve.batch", static_cast<double>(batch_rows),
              static_cast<double>(batch.size()));
    WCNN_HISTOGRAM_RECORD("serve.batch.rows", batch_rows);
    if (WCNN_TELEMETRY_ENABLED()) {
        const std::int64_t now = core::telemetry::nowNs();
        for (const Group &group : batch) {
            const std::int64_t wait_ns = now - group.enqueuedNs;
            WCNN_HISTOGRAM_RECORD(
                "serve.queue_wait_us",
                static_cast<std::uint64_t>(
                    wait_ns > 0 ? wait_ns / 1000 : 0));
        }
    }

    // Failures travel as data (BatchOutcome), never as exception
    // objects: the typed exception is constructed afresh in each
    // waiter's own thread by PredictionFuture::get().
    auto fail_all = [&batch](const std::string &kind,
                             const std::string &message) {
        for (Group &group : batch)
            resolve(group, BatchOutcome{{}, false, kind, message});
    };

    WCNN_FAILPOINT("serve.predict", {
        fail_all("serve", "injected: serve.predict");
        return;
    });

    const BundlePtr bundle = registry.active();
    if (bundle == nullptr) {
        fail_all("serve.no_model", "no model deployed");
        return;
    }

    // Revalidate per group: a hot swap between submit and execution
    // may have changed the input arity. Incompatible groups fail
    // typed; compatible ones proceed against the snapshot bundle.
    std::vector<Group *> valid;
    valid.reserve(batch.size());
    std::size_t valid_rows = 0;
    for (Group &group : batch) {
        if (group.xs.cols() != bundle->inputDim()) {
            resolve(group, BatchOutcome{
                {},
                false,
                "serve.bad_request",
                "model swapped to arity " +
                    std::to_string(bundle->inputDim()) +
                    " while the request was queued"});
        } else {
            valid.push_back(&group);
            valid_rows += group.xs.rows();
        }
    }
    if (valid.empty())
        return;

    // One concatenated forward for the whole batch.
    numeric::Matrix xs(valid_rows, bundle->inputDim());
    std::size_t row = 0;
    for (const Group *group : valid)
        for (std::size_t i = 0; i < group->xs.rows(); ++i)
            xs.setRow(row++, group->xs.row(i));

    // Same as-data rule as fail_all above.
    const auto fail_valid = [&valid](const std::string &kind,
                                     const std::string &message) {
        for (Group *group : valid)
            resolve(*group, BatchOutcome{{}, false, kind, message});
    };

    numeric::Matrix ys;
    try {
        ys = bundle->predictAll(xs);
    } catch (const wcnn::Error &e) {
        // Faults must not kill the dispatcher: the waiting callers
        // get the failure (kind and text preserved), the server
        // survives.
        fail_valid(e.kind(), bareMessage(e));
        return;
    } catch (const std::exception &e) {
        // Bugs (contract trips) neither: converted to a typed
        // serving fault carrying the text.
        fail_valid("serve", std::string("predict failed: ") + e.what());
        return;
    }

    // Scatter result rows back to the waiting groups, in order.
    row = 0;
    for (Group *group : valid) {
        numeric::Matrix out(group->xs.rows(), bundle->outputDim());
        for (std::size_t i = 0; i < out.rows(); ++i)
            out.setRow(i, ys.row(row++));
        resolve(*group, BatchOutcome{std::move(out), true, {}, {}});
    }
}

} // namespace serve
} // namespace wcnn
