#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "core/telemetry.hh"

namespace wcnn {
namespace core {

std::size_t
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // One runner (threads <= 1 or n == 1) is the serial path: the
    // caller drains every index inline and no thread is spawned.
    const std::size_t runners =
        std::min(threads == 0 ? hardwareThreads() : threads, n);
    WCNN_SPAN("pool.batch", n, runners);
    // Fork timestamp feeding the pool.queue_wait_ns histogram; 0 when
    // telemetry is off.
    const std::int64_t fork_ns =
        WCNN_TELEMETRY_ENABLED() ? telemetry::nowNs() : 0;

    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::size_t fail_index = n;
    std::exception_ptr failure;

    // One runner: claim indices from the shared counter until it
    // passes n, keeping the lowest-index failure.
    const auto drain = [&] {
        std::size_t executed = 0;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            ++executed;
            try {
                if (fork_ns != 0) {
                    WCNN_HISTOGRAM_RECORD(
                        "pool.queue_wait_ns",
                        static_cast<std::uint64_t>(std::max<std::int64_t>(
                            0, telemetry::nowNs() - fork_ns)));
                }
                WCNN_COUNTER_ADD("pool.tasks", 1);
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(failure_mutex);
                if (i < fail_index) {
                    fail_index = i;
                    failure = std::current_exception();
                }
            }
        }
        // Per-runner task share of this call (load-imbalance signal).
        if (executed > 0)
            WCNN_EVENT("pool.drain", executed);
    };

    {
        // jthreads join when this scope ends, on every path.
        std::vector<std::jthread> workers;
        workers.reserve(runners - 1);
        for (std::size_t t = 1; t < runners; ++t) {
            try {
                workers.emplace_back(drain);
            } catch (const std::system_error &) {
                // Out of OS threads: the runners already started, the
                // caller among them, still drain every index.
                break;
            }
        }
        drain();
    }
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace core
} // namespace wcnn
