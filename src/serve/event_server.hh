/**
 * @file
 * EventServer: the TCP inference server, an epoll reactor.
 *
 * Topology (one instance each; the serving logic lives in ServeCore):
 *
 *     acceptor thread ──round-robin──► N shard event loops ──► core
 *            │                              │
 *       TcpListener                   Reactor (epoll + eventfd)
 *                                     TimerWheel (idle timeouts)
 *
 * Every connection of a shard is multiplexed onto one event-loop
 * thread: nonblocking reads drain a socket to EAGAIN, the Session
 * state machine (session.hh) turns the bytes into staged replies,
 * and a buffered writer flushes them — falling back to EPOLLOUT when
 * the kernel buffer fills, and *pausing reads* (backpressure) when a
 * slow reader lets its transmit buffer grow past a bound. Idle
 * timeouts come from a timer wheel at 100 ms granularity.
 *
 * A request never blocks its shard: misses are submitted to the
 * micro-batcher and their reply slots wait in the Session's outbox;
 * the batcher's completion hook wakes the shard to emit them. So a
 * request arriving while a batch runs its forward is decoded at once
 * and joins the next batch instead of waiting behind a blocked reader
 * (DESIGN.md §5.7 has the measurement that chose this design).
 *
 * Reply bytes and their order, typed rejections, admission control,
 * hot-swap semantics and graceful drain are pinned against a
 * sequential reply model by tests/serve_equivalence_test.cc, and
 * tortured by serve_torture_test.cc and chaos_serve_test.cc.
 *
 * Fault tolerance:
 *  - Admission control, not backpressure-by-stalling: a full predict
 *    queue throws serve::Overloaded which becomes a typed error frame
 *    the client can retry on; a full connection table answers the
 *    surplus connection with that same error frame and closes it.
 *  - Malformed wire bytes get a "serve.protocol" error frame and the
 *    connection is closed; the server itself never dies on garbage.
 *  - Blast radius: a connection whose handling throws (socket error,
 *    injected failpoint) is closed and forgotten; its shard loop and
 *    every other connection on it keep running — chaos_serve_test
 *    pins this "one poisoned connection never kills its shard".
 *  - Hot swap: deploy() atomically installs a new bundle and clears
 *    the prediction cache; in-flight batches finish on the bundle
 *    snapshot they started with.
 *
 * Failpoint sites: serve.accept in the acceptor, serve.read before
 * every read attempt, serve.write before every flush attempt,
 * serve.decode in the Session, serve.predict in the MicroBatcher.
 */

#ifndef WCNN_SERVE_EVENT_SERVER_HH
#define WCNN_SERVE_EVENT_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine.hh"
#include "serve/net/socket.hh"

namespace wcnn {
namespace serve {

/**
 * Batched, cached, fault-tolerant TCP inference server: an acceptor
 * distributing connections round-robin over per-core shard event
 * loops.
 */
class EventServer
{
  public:
    /**
     * Construct the serving stack (no socket yet; see start()). The
     * batcher dispatcher starts immediately, so the in-process
     * predict() path works without start().
     */
    explicit EventServer(ServeOptions options = {});

    /** stop()s. */
    ~EventServer();

    EventServer(const EventServer &) = delete;
    EventServer &operator=(const EventServer &) = delete;

    /** Atomically install a bundle (hot swap); see ServeCore. */
    std::uint64_t deploy(BundlePtr bundle)
    {
        return core.deploy(std::move(bundle));
    }

    /** Snapshot of the active bundle (null before the first deploy). */
    BundlePtr active() const { return core.active(); }

    /** Version of the active bundle (bumps on every deploy). */
    std::uint64_t version() const { return core.version(); }

    /** Install the lifecycle observation sink; see ServeCore. */
    void setObservationSink(ServeCore::ObservationSink sink)
    {
        core.setObservationSink(std::move(sink));
    }

    /** In-process predict, bit-identical to ModelBundle::predict. */
    numeric::Vector predict(const numeric::Vector &x)
    {
        return core.predict(x);
    }

    /**
     * Bind the listener, spin up the shard loops, start accepting.
     *
     * @throws ServeError when the address cannot be bound.
     */
    void start();

    /**
     * Graceful drain: stop accepting, let every shard flush the
     * replies it has staged, close all connections, join all
     * threads, drain the batcher. Idempotent.
     */
    void stop();

    /** Bound port; valid after start(). */
    std::uint16_t port() const { return boundPort; }

    /** Whether start() succeeded and stop() has not run. */
    bool running() const { return accepting.load(); }

    /** Exact wire counters. */
    ServeStats stats() const
    {
        ServeStats s = core.statsSnapshot();
        s.activeConnections = liveConns.load();
        return s;
    }

    /** Micro-batcher counters. */
    MicroBatcher::Stats batcherStats() const
    {
        return core.batcherStats();
    }

    /** Prediction cache counters. */
    PredictionCache::Stats cacheStats() const
    {
        return core.cacheStats();
    }

    /** The configuration the server was built with. */
    const ServeOptions &options() const { return opts; }

  private:
    class Shard;
    friend class Shard;

    void acceptLoop();

    const ServeOptions opts;
    ServeCore core;

    std::vector<std::unique_ptr<Shard>> workers;
    std::unique_ptr<net::TcpListener> listener;
    std::uint16_t boundPort = 0;
    std::thread acceptor;
    std::atomic<bool> accepting{false};
    std::atomic<bool> stopping{false};
    std::atomic<std::size_t> liveConns{0};
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_EVENT_SERVER_HH
