/**
 * @file
 * Thin blocking TCP wrappers: TcpListener and TcpStream.
 *
 * This directory (src/serve/net/) is the only place in the tree
 * allowed to include POSIX socket headers or call socket syscalls
 * (lint rule R7) — everything above it speaks in terms of these two
 * classes and the pure protocol codec, so transport concerns (fd
 * lifetime, partial writes, SIGPIPE, poll timeouts) cannot leak into
 * the serving logic or the tests.
 *
 * Both classes are move-only RAII handles over a file descriptor.
 * The blocking API serves the client side (ServeClient, the load
 * generators, tests) and the server's acceptor: reads and accepts
 * are timeout-bounded via poll, so a caller can observe a stop flag
 * or give up on a silent peer, and writes always complete fully or
 * throw a typed ServeError. The server's own connections run on the
 * nonblocking API (readNb/writeNb) under a Reactor.
 */

#ifndef WCNN_SERVE_NET_SOCKET_HH
#define WCNN_SERVE_NET_SOCKET_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wcnn {
namespace serve {
namespace net {

/** Result of a timeout-bounded read. */
enum class ReadStatus
{
    Data,    ///< at least one byte was read
    Eof,     ///< the peer closed the connection
    Timeout, ///< no data within the timeout; try again
};

/**
 * Result of a nonblocking read/write attempt (the server's
 * vocabulary; kept separate from ReadStatus so the blocking API's
 * exhaustive switches stay exhaustive).
 */
enum class NbStatus
{
    Ready,      ///< bytes were transferred
    WouldBlock, ///< nothing transferable now; wait for readiness
    Eof,        ///< (reads only) the peer closed the connection
};

/**
 * One connected TCP socket (client or accepted server side).
 */
class TcpStream
{
  public:
    /** Invalid (unconnected) stream. */
    TcpStream() = default;

    /** Adopt an already-connected descriptor (from accept()). */
    explicit TcpStream(int descriptor);

    TcpStream(TcpStream &&other) noexcept;
    TcpStream &operator=(TcpStream &&other) noexcept;
    TcpStream(const TcpStream &) = delete;
    TcpStream &operator=(const TcpStream &) = delete;

    /** Closes the descriptor. */
    ~TcpStream();

    /**
     * Connect to host:port (IPv4 dotted quad or "localhost").
     *
     * @throws ServeError when the connection cannot be established.
     */
    static TcpStream connect(const std::string &host, std::uint16_t port);

    /** Whether the stream holds an open descriptor. */
    bool valid() const { return fd >= 0; }

    /**
     * Read up to `capacity` bytes, waiting at most `timeout_ms`.
     *
     * @param buffer     Destination.
     * @param capacity   Destination size; must be > 0.
     * @param bytes_read Set to the byte count when Data is returned.
     * @param timeout_ms Poll bound in milliseconds; < 0 waits forever.
     * @throws ServeError on a socket error.
     */
    ReadStatus readSome(std::uint8_t *buffer, std::size_t capacity,
                        std::size_t &bytes_read, int timeout_ms);

    /**
     * Write the whole buffer (looping over partial sends, SIGPIPE
     * suppressed).
     *
     * @throws ServeError when the peer is gone or the socket errors.
     */
    void writeAll(const void *data, std::size_t size);

    /**
     * Switch the descriptor between blocking and nonblocking modes
     * (O_NONBLOCK). The server runs every accepted stream
     * nonblocking; the blocking API above must not be used after
     * enabling this.
     *
     * @throws ServeError when the flag cannot be changed.
     */
    void setNonBlocking(bool enabled);

    /**
     * Nonblocking read attempt.
     *
     * @param buffer     Destination.
     * @param capacity   Destination size; must be > 0.
     * @param bytes_read Set to the byte count when Ready is returned.
     * @throws ServeError on a socket error.
     */
    NbStatus readNb(std::uint8_t *buffer, std::size_t capacity,
                    std::size_t &bytes_read);

    /**
     * Nonblocking write attempt (partial writes expected; SIGPIPE
     * suppressed).
     *
     * @param data          Source.
     * @param size          Bytes offered; must be > 0.
     * @param bytes_written Set to the byte count when Ready is
     *                      returned.
     * @throws ServeError when the peer is gone or the socket errors.
     */
    NbStatus writeNb(const void *data, std::size_t size,
                     std::size_t &bytes_written);

    /**
     * Wait until the socket accepts more bytes (graceful-drain
     * flushing of a nonblocking stream).
     *
     * @param timeout_ms Poll bound in milliseconds; < 0 waits forever.
     * @return True when writable, false on timeout.
     * @throws ServeError on a socket error.
     */
    bool waitWritable(int timeout_ms);

    /** Half-close: shut down the write side, keep reading (FIN). */
    void shutdownWrite();

    /**
     * The raw descriptor, for registration with a Reactor. Ownership
     * stays with the stream; -1 when invalid.
     */
    int nativeHandle() const { return fd; }

    /** Close now (idempotent; the destructor also closes). */
    void close();

  private:
    int fd = -1;
};

/**
 * A listening TCP socket bound to a local address.
 */
class TcpListener
{
  public:
    /**
     * Bind and listen.
     *
     * @param host    Local IPv4 address to bind ("127.0.0.1").
     * @param port    Port; 0 picks an ephemeral port (see port()).
     * @param backlog listen(2) backlog.
     * @throws ServeError when the address cannot be bound.
     */
    TcpListener(const std::string &host, std::uint16_t port, int backlog);

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** Closes the listening descriptor. */
    ~TcpListener();

    /** The actually bound port (resolves port 0). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Accept one connection, waiting at most `timeout_ms`.
     *
     * @param timeout_ms Poll bound in milliseconds; < 0 waits forever.
     * @return The accepted stream, or an invalid stream on timeout or
     *         after close().
     * @throws ServeError on a listener error.
     */
    TcpStream accept(int timeout_ms);

    /**
     * Stop listening (accept() starts returning invalid streams).
     *
     * Thread-safe against a concurrent accept(): the descriptor is
     * handed off atomically and accept() tolerates the EBADF of a
     * just-closed fd, so a stopping thread may call close() while the
     * accept loop is blocked in poll.
     */
    void close();

  private:
    std::atomic<int> fd{-1};
    std::uint16_t boundPort = 0;
};

} // namespace net
} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_NET_SOCKET_HH
