/**
 * @file
 * Blocking binary-protocol client of the inference server.
 *
 * ServeClient is the sanctioned way for tests, benches and the CLI to
 * talk to a running EventServer without touching sockets (lint
 * rule R7 keeps raw socket code inside src/serve/net/). It speaks the
 * binary framing from protocol.hh and reconstructs the server's typed
 * error frames back into the matching wcnn::serve exception, so a
 * remote fault surfaces to the caller exactly like a local one:
 *
 *     client.predict(x)  ==  server-side predict(x), bit-identical,
 *                            or the same typed throw.
 *
 * Two call styles:
 *  - predict(x): one round trip, blocking.
 *  - sendPredict(x) ... readPrediction(): pipelined — queue many
 *    requests before reading any response. The server coalesces the
 *    buffered frames into one micro-batch, which is where the
 *    batching throughput on a single connection comes from.
 *
 * rawSend() exists for protocol tests that must write malformed bytes.
 */

#ifndef WCNN_SERVE_NET_CLIENT_HH
#define WCNN_SERVE_NET_CLIENT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "numeric/matrix.hh"
#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"

namespace wcnn {
namespace serve {
namespace net {

/**
 * One client connection speaking the binary protocol.
 */
class ServeClient
{
  public:
    /**
     * Connect to a server.
     *
     * @param host       Server address ("127.0.0.1" / "localhost").
     * @param port       Server port.
     * @param timeout_ms Per-read timeout; a silent server throws
     *                   ServeError after this long.
     * @throws ServeError when the connection cannot be established.
     */
    static ServeClient connect(const std::string &host,
                               std::uint16_t port,
                               int timeout_ms = 10000);

    ServeClient(ServeClient &&) = default;
    ServeClient &operator=(ServeClient &&) = default;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * One blocking predict round trip.
     *
     * @param x Configuration vector.
     * @return The prediction, bit-identical to a server-local predict.
     * @throws The server's typed error (Overloaded, BadRequest,
     *         NoModelError, ProtocolError) or ServeError on transport
     *         failure.
     */
    numeric::Vector predict(const numeric::Vector &x);

    /** Queue one predict request without waiting (pipelining). */
    void sendPredict(const numeric::Vector &x);

    /**
     * Read the next prediction of a pipelined request, in send order.
     *
     * @throws Like predict().
     */
    numeric::Vector readPrediction();

    /**
     * One blocking observe round trip: report the indicator values
     * actually measured for configuration x (the lifecycle feedback
     * channel). Returns on the server's Ack.
     *
     * @throws The server's typed error (NoModelError, BadRequest) or
     *         ServeError on transport failure.
     */
    void observe(const numeric::Vector &x, const numeric::Vector &y);

    /**
     * Liveness round trip.
     *
     * @return True when the server answered the ping with a pong.
     */
    bool ping();

    /** Write raw bytes (malformed-frame tests). */
    void rawSend(const void *data, std::size_t size);

    /**
     * Read one frame of any type (protocol tests).
     *
     * @throws ServeError on transport failure/timeout, ProtocolError
     *         when the server sends undecodable bytes.
     */
    Frame readFrame();

    /** Close the connection (idempotent). */
    void close();

  private:
    explicit ServeClient(TcpStream s, int timeout) noexcept
        : stream(std::move(s)), timeoutMs(timeout)
    {
    }

    TcpStream stream;
    Bytes buffer;
    int timeoutMs = 10000;
};

/**
 * Rebuild the typed exception a serve error kind denotes and throw it.
 * Unknown kinds throw the base ServeError with the kind prefixed.
 */
[[noreturn]] void throwServeError(const std::string &kind,
                                  const std::string &message);

} // namespace net
} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_NET_CLIENT_HH
