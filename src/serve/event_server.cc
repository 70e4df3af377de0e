#include "event_server.hh"

#include <algorithm>
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
 * the syscall count and lets the Session answer more frames with one
 * forward. (Chunk size never changes the response bytes — the Session
 * is fragmentation-invariant by the reply-ordering contract.)
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

        Conn(net::TcpStream s, ServeCore &core, bool coalesce)
            : stream(std::move(s)), session(core, coalesce)
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
                std::move(stream), srv.core, srv.opts.coalesceFrames);
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
     * Queue a consume()'s writes and flush each on its own while the
     * socket takes them: one write(2) per element, so the per-request
     * baseline keeps its one write per reply. Behind a backlog the
     * writes wait for EPOLLOUT instead.
     */
    void queueWrites(Conn &c)
    {
        for (net::Bytes &bytes : writes) {
            if (c.tx.empty()) {
                c.tx.swap(bytes);
                flushTx(c);
            } else {
                c.tx.insert(c.tx.end(), bytes.begin(), bytes.end());
            }
        }
    }

    /** Read until the socket is empty, feeding each chunk through
     *  the Session. */
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
                // Half-close: every complete frame has been answered;
                // flush the replies, then close.
                c.closeAfterFlush = true;
                return;
            }
            if (srv.opts.idleTimeoutMs > 0)
                c.idleDeadlineNs =
                    core::telemetry::nowNs() +
                    std::int64_t{srv.opts.idleTimeoutMs} * kMsToNs;

            // The consume answers every frame the chunk completed,
            // cache misses included, on this thread. The writes are
            // cleared first: a flush that threw for another connection
            // may have left some behind.
            writes.clear();
            const Session::Verdict verdict =
                c.session.consume(chunk, n, writes);
            queueWrites(c);
            if (verdict == Session::Verdict::CloseAfterFlush) {
                c.closeAfterFlush = true;
                return;
            }
            if (c.tx.size() - c.txOff > kTxBackpressureBytes)
                c.paused = true;
            // A short read emptied the socket; whatever arrives next
            // (data or EOF) makes the level-triggered epoll report
            // the connection again, so there is no EAGAIN to read.
            if (n < sizeof(chunk))
                return;
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
        if (c.closeAfterFlush && flushed) {
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
                // Every request read has been answered already; what
                // is owed is the unflushed tail of the tx buffer.
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
    std::vector<net::Bytes> writes; ///< one consume()'s output
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
        std::min<std::size_t>(core::hardwareThreads(), 8);
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
