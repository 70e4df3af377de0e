#include "event_server.hh"

#include <algorithm>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "core/parallel.hh"
#include "core/telemetry.hh"
#include "serve/error.hh"
#include "serve/net/protocol.hh"
#include "serve/net/reactor.hh"
#include "serve/session.hh"

namespace wcnn {
namespace serve {

namespace {

/** Event-loop tick: poll bound, stop-flag latency, and timer-wheel
 *  granularity (the resolution idle timeouts land with). */
constexpr int kTickMs = 100;

/**
 * Read chunk size. Under deep pipelining a shard serves many
 * connections per sweep, and one big read per connection both cuts
 * the syscall count and lets the Session coalesce more frames into
 * one batcher group. (Chunk size never changes the response bytes —
 * the Session is fragmentation-invariant by the reply-ordering
 * contract.)
 */
constexpr std::size_t kReadChunk = 64 * 1024;

/** Transmit-buffer bound past which a connection's reads pause. */
constexpr std::size_t kTxBackpressureBytes = 256 * 1024;

/** Timer-wheel ring size: covers 512 ticks (~51 s) per rotation. */
constexpr std::size_t kWheelSlots = 512;

constexpr std::int64_t kMsToNs = 1000000;

/** Bounded flush attempts per connection during a graceful drain. */
constexpr int kDrainSpins = 50;

} // namespace

/**
 * One shard: an event-loop thread owning a Reactor, a TimerWheel,
 * and the connections the acceptor handed it. Everything here runs
 * on the shard thread except adopt() and wake().
 */
class EventServer::Shard
{
  public:
    explicit Shard(EventServer &server)
        : srv(server),
          wheel(std::int64_t{kTickMs} * kMsToNs, kWheelSlots,
                core::telemetry::nowNs())
    {
    }

    void start()
    {
        thread = std::thread([this] { loop(); });
    }

    void join()
    {
        if (thread.joinable())
            thread.join();
    }

    /** Hand over an accepted (blocking) stream. Any thread. */
    void adopt(net::TcpStream stream)
    {
        {
            std::lock_guard<std::mutex> lock(inboxMutex);
            inbox.push_back(std::move(stream));
        }
        reactor.wakeup();
    }

    /** Interrupt the loop's wait (stop signalling). Any thread. */
    void wake()
    {
        reactor.wakeup();
    }

    /**
     * A connection's batcher group resolved: queue it for a
     * non-blocking collect and wake the loop. Called from the
     * MicroBatcher dispatcher thread (via the Session's on_ready
     * hook), which is why EventServer::stop() must join the
     * dispatcher before destroying shards.
     */
    void notifyReady(int fd)
    {
        bool first = false;
        {
            std::lock_guard<std::mutex> lock(readyMutex);
            first = readyFds.empty();
            readyFds.push_back(fd);
        }
        // One wakeup per drain is enough: whoever made the list
        // non-empty arms it, the rest of a batch's notifies ride
        // along (collectReady() swaps the whole list). A batch
        // resolving 8 groups costs 1 eventfd syscall, not 8.
        if (first)
            reactor.wakeup();
    }

  private:
    /** Per-connection state: socket, protocol machine, tx buffer. */
    struct Conn
    {
        net::TcpStream stream;
        Session session;
        net::Bytes tx;
        std::size_t txOff = 0;
        bool closeAfterFlush = false;
        bool paused = false; ///< backpressure: reads suspended
        bool armedRead = true;
        bool armedWrite = false;
        std::int64_t idleDeadlineNs = 0;

        Conn(net::TcpStream s, ServeCore &core, bool coalesce,
             std::function<void()> on_ready)
            : stream(std::move(s)),
              session(core, coalesce, std::move(on_ready))
        {
        }
    };

    void loop()
    {
        std::vector<net::Reactor::Event> events;
        std::vector<int> due;
        for (;;) {
            reactor.wait(events, kTickMs);
            const bool draining =
                srv.stopping.load(std::memory_order_acquire);
            adoptPending();
            collectReady();

            for (const net::Reactor::Event &ev : events) {
                auto it = conns.find(ev.fd);
                if (it == conns.end())
                    continue;
                Conn &c = *it->second;
                try {
                    if (ev.writable)
                        flushTx(c);
                    if (ev.readable || ev.hangup)
                        onReadable(c);
                    settle(ev.fd, c);
                } catch (const wcnn::Error &) {
                    // Blast radius: a socket error or injected fault
                    // costs this connection, never the shard.
                    closeConn(ev.fd);
                }
            }

            if (srv.opts.idleTimeoutMs > 0)
                expireIdle(due);

            if (draining) {
                drain();
                return;
            }
        }
    }

    void adoptPending()
    {
        std::vector<net::TcpStream> pending;
        {
            std::lock_guard<std::mutex> lock(inboxMutex);
            pending.swap(inbox);
        }
        if (pending.empty())
            return;
        const std::int64_t now = core::telemetry::nowNs();
        for (net::TcpStream &stream : pending) {
            stream.setNonBlocking(true);
            const int fd = stream.nativeHandle();
            auto conn = std::make_unique<Conn>(
                std::move(stream), srv.core, srv.opts.coalesceFrames,
                [this, fd] { notifyReady(fd); });
            if (srv.opts.idleTimeoutMs > 0) {
                conn->idleDeadlineNs =
                    now +
                    std::int64_t{srv.opts.idleTimeoutMs} * kMsToNs;
                wheel.schedule(fd, conn->idleDeadlineNs);
            }
            reactor.add(fd, /*want_read=*/true, /*want_write=*/false);
            conns.emplace(fd, std::move(conn));
        }
    }

    /**
     * Drain the ready inbox: connections whose batcher group
     * resolved since the last tick get a non-blocking collect, so
     * their now-complete replies reach the wire.
     */
    void collectReady()
    {
        std::vector<int> fds;
        {
            std::lock_guard<std::mutex> lock(readyMutex);
            fds.swap(readyFds);
        }
        for (const int fd : fds) {
            auto it = conns.find(fd);
            if (it == conns.end())
                continue; // closed (or reused) since the notify
            Conn &c = *it->second;
            try {
                pump(c);
                settle(fd, c);
            } catch (const wcnn::Error &) {
                closeConn(fd);
            }
        }
    }

    /** Collect completed replies (non-blocking) and flush them. */
    void pump(Conn &c)
    {
        std::vector<net::Bytes> writes;
        c.session.collect(/*block=*/false, writes);
        for (net::Bytes &frame : writes)
            c.tx.insert(c.tx.end(), frame.begin(), frame.end());
        flushTx(c);
    }

    /** Read to EAGAIN, feeding each chunk through the Session. */
    void onReadable(Conn &c)
    {
        std::uint8_t chunk[kReadChunk];
        while (!c.paused && !c.closeAfterFlush) {
            WCNN_FAILPOINT("serve.read",
                           throw ServeError("injected: serve.read"));
            std::size_t n = 0;
            const net::NbStatus status =
                c.stream.readNb(chunk, sizeof(chunk), n);
            if (status == net::NbStatus::WouldBlock)
                return;
            if (status == net::NbStatus::Eof) {
                // Half-close: every buffered frame has been staged
                // (and submitted); emit what is ready, finish the
                // rest when it resolves, then close.
                c.closeAfterFlush = true;
                return;
            }
            if (srv.opts.idleTimeoutMs > 0)
                c.idleDeadlineNs =
                    core::telemetry::nowNs() +
                    std::int64_t{srv.opts.idleTimeoutMs} * kMsToNs;

            // The consume never blocks on the batcher: in-flight
            // predictions park in the session outbox and come back
            // through notifyReady()/collectReady(), which is what
            // lets one shard hold many in-flight batch groups.
            const Session::Verdict verdict =
                c.session.consume(chunk, n);
            pump(c);
            if (verdict == Session::Verdict::CloseAfterFlush) {
                c.closeAfterFlush = true;
                return;
            }
            if (c.tx.size() - c.txOff > kTxBackpressureBytes)
                c.paused = true;
        }
    }

    /** Write the tx buffer until done or EAGAIN. */
    void flushTx(Conn &c)
    {
        while (c.txOff < c.tx.size()) {
            WCNN_FAILPOINT("serve.write",
                           throw ServeError("injected: serve.write"));
            std::size_t wrote = 0;
            const net::NbStatus status = c.stream.writeNb(
                c.tx.data() + c.txOff, c.tx.size() - c.txOff, wrote);
            if (status == net::NbStatus::WouldBlock)
                return;
            c.txOff += wrote;
        }
        c.tx.clear();
        c.txOff = 0;
        c.paused = false; // tx drained: resume reading
    }

    /** Close a fully-flushed closing conn, or re-arm epoll interest. */
    void settle(int fd, Conn &c)
    {
        const bool flushed = c.txOff >= c.tx.size();
        if (c.closeAfterFlush && flushed && c.session.drained()) {
            // The drained() gate keeps a half-closed connection open
            // until its in-flight predictions have been emitted —
            // those replies are owed before the FIN.
            closeConn(fd);
            return;
        }
        const bool want_read = !c.paused && !c.closeAfterFlush;
        const bool want_write = !flushed;
        if (want_read != c.armedRead || want_write != c.armedWrite) {
            reactor.modify(fd, want_read, want_write);
            c.armedRead = want_read;
            c.armedWrite = want_write;
        }
    }

    void closeConn(int fd)
    {
        auto it = conns.find(fd);
        if (it == conns.end())
            return;
        reactor.remove(fd);
        it->second->stream.close();
        conns.erase(it);
        srv.liveConns.fetch_sub(1);
    }

    /** Fire the timer wheel; close idle conns, lazily re-arm live
     *  ones (activity only moved the deadline forward). */
    void expireIdle(std::vector<int> &due)
    {
        const std::int64_t now = core::telemetry::nowNs();
        due.clear();
        wheel.collect(now, due);
        for (const int fd : due) {
            auto it = conns.find(fd);
            if (it == conns.end())
                continue;
            Conn &c = *it->second;
            if (now >= c.idleDeadlineNs)
                closeConn(fd); // slow-loris: drop silently
            else
                wheel.schedule(fd, c.idleDeadlineNs);
        }
    }

    /** Graceful drain: flush staged replies (bounded), close all. */
    void drain()
    {
        for (auto &entry : conns) {
            Conn &c = *entry.second;
            try {
                // Settle in-flight predictions first: the batcher is
                // still running here (EventServer::stop() joins the
                // shards before stopping it), and stop() itself
                // drains queued groups — an accepted request is
                // answered even across a shutdown.
                std::vector<net::Bytes> writes;
                c.session.collect(/*block=*/true, writes);
                for (net::Bytes &frame : writes)
                    c.tx.insert(c.tx.end(), frame.begin(),
                                frame.end());
                int spins = 0;
                while (c.txOff < c.tx.size() &&
                       spins++ < kDrainSpins) {
                    std::size_t wrote = 0;
                    const net::NbStatus status = c.stream.writeNb(
                        c.tx.data() + c.txOff,
                        c.tx.size() - c.txOff, wrote);
                    if (status == net::NbStatus::WouldBlock)
                        c.stream.waitWritable(kTickMs);
                    else
                        c.txOff += wrote;
                }
            } catch (const wcnn::Error &) {
                // The peer vanished mid-drain; its loss.
            }
            reactor.remove(entry.first);
            c.stream.close();
        }
        srv.liveConns.fetch_sub(conns.size());
        conns.clear();
    }

    EventServer &srv;
    net::Reactor reactor;
    net::TimerWheel wheel;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::mutex inboxMutex;
    std::vector<net::TcpStream> inbox;
    std::mutex readyMutex;
    std::vector<int> readyFds; ///< conns with a resolved group
    std::thread thread;
};

// EventServer --------------------------------------------------------

EventServer::EventServer(ServeOptions options)
    : opts(std::move(options)), core(opts)
{
}

EventServer::~EventServer()
{
    stop();
}

void
EventServer::start()
{
    WCNN_REQUIRE(!accepting.load() && !stopping.load(),
                 "start() on a running or stopped server");
    const std::size_t shard_count =
        opts.shards > 0
            ? opts.shards
            : std::min<std::size_t>(core::hardwareThreads(), 8);
    workers.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i)
        workers.push_back(std::make_unique<Shard>(*this));

    listener = std::make_unique<net::TcpListener>(opts.host, opts.port,
                                                  opts.backlog);
    boundPort = listener->port();

    for (auto &worker : workers)
        worker->start();
    accepting.store(true);
    acceptor = std::thread([this] { acceptLoop(); });
}

void
EventServer::stop()
{
    stopping.store(true, std::memory_order_release);
    accepting.store(false);
    if (listener != nullptr)
        listener->close();
    if (acceptor.joinable())
        acceptor.join();
    for (auto &worker : workers)
        worker->wake();
    for (auto &worker : workers)
        worker->join();
    // Stop the batcher BEFORE destroying the shards: its dispatcher
    // thread fires notifyReady() hooks into shard objects, and
    // stopBatcher() joins it — after this line no hook can still be
    // in flight against a shard about to be freed.
    core.stopBatcher();
    workers.clear();
}

void
EventServer::acceptLoop()
{
    std::size_t next = 0;
    while (!stopping.load()) {
        net::TcpStream stream = listener->accept(kTickMs);
        if (!stream.valid())
            continue;
        if (stopping.load())
            break;

        bool drop = false;
        WCNN_FAILPOINT("serve.accept", drop = true);
        if (drop) {
            // Injected accept failure: the connection is lost, the
            // server is not.
            stream.close();
            continue;
        }

        if (liveConns.load() >= opts.maxConnections) {
            // Admission control: answer typed, close, move on.
            core.noteRejectedConnection();
            const net::Bytes frame = net::encodeError(
                "serve.overloaded",
                "connection limit of " +
                    std::to_string(opts.maxConnections) + " reached");
            try {
                stream.writeAll(frame.data(), frame.size());
            } catch (const ServeError &) {
                // The rejected peer vanished first; nothing to do.
            }
            stream.close();
            continue;
        }

        core.noteAccepted();
        liveConns.fetch_add(1);
        workers[next]->adopt(std::move(stream));
        next = (next + 1) % workers.size();
    }
}

} // namespace serve
} // namespace wcnn
