/**
 * @file
 * Per-connection protocol state machine, transport-independent.
 *
 * A Session owns everything about one connection that is *not* I/O:
 * the receive buffer, the binary-vs-JSON mode detection, incremental
 * frame decoding, and answering. Transports feed it raw received
 * bytes via consume(), which answers every complete frame on the
 * calling thread — the requests of one call through one
 * ServeCore::answer(), so their cache misses share forwards — and
 * hands back the replies, in frame-arrival order, as the writes to
 * make: one coalesced buffer, or one buffer per reply when coalescing
 * is off, so the per-request baseline (coalesceFrames = false) keeps
 * its one-write-per-response shape. Nothing is left pending between
 * calls: when consume() returns, every frame it decoded is answered.
 *
 * The transport contributes when reads happen and how writes are
 * flushed, never what bytes are produced: those are a function of
 * the frames received alone, which is what lets the equivalence
 * suite compare each stream byte for byte with a sequential reply
 * model (tests/serve_equivalence_test.cc).
 *
 * Reply ordering contract: replies leave strictly in frame arrival
 * order — a pong or a protocol-error frame never overtakes the
 * responses of requests received before it, no matter how the reads
 * were fragmented. (The pre-reactor server let a pong jump ahead of
 * requests that shared its read chunk, which made the wire stream
 * depend on TCP segmentation; the equivalence gate forbids exactly
 * that kind of nondeterminism.)
 *
 * Failpoints: the "serve.decode" site lives here (one check per
 * decoded frame/line); "serve.read"/"serve.write" belong to the
 * transport and "serve.predict" to ServeCore's forward.
 */

#ifndef WCNN_SERVE_SESSION_HH
#define WCNN_SERVE_SESSION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hh"
#include "serve/net/protocol.hh"

namespace wcnn {
namespace serve {

/**
 * Protocol state machine of one connection.
 */
class Session
{
  public:
    /** What the transport must do after a consume() call. */
    enum class Verdict
    {
        Continue,        ///< keep reading
        CloseAfterFlush, ///< stop reading; close once the writes are out
    };

    /**
     * @param serve_core Shared serving core answering the requests.
     * @param coalesce   ServeOptions::coalesceFrames of the server.
     */
    Session(ServeCore &serve_core, bool coalesce);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Feed received bytes, answer every complete frame/line now
     * buffered, and append the replies to `writes` in frame-arrival
     * order: one element per intended write(2) — a single coalesced
     * element when coalescing is on, one per reply when it is off.
     *
     * @throws ServeError from the "serve.decode" failpoint; typed
     *         request failures never throw — they become error
     *         frames/lines among the replies.
     */
    Verdict consume(const std::uint8_t *data, std::size_t n,
                    std::vector<net::Bytes> &writes);

  private:
    enum class Mode
    {
        Detect, ///< no bytes seen yet
        Binary, ///< length-prefixed frames
        Json,   ///< newline-delimited JSON
    };

    Verdict processBinary();
    Verdict processJson();

    /** Answer one Observe record inline (Ack or typed error). */
    void handleObserve(const numeric::Vector &x,
                       const numeric::Vector &y, bool json);

    /** Reserve the reply slot of a decoded request. */
    void queueRequest(numeric::Vector x);

    /** Answer the queued requests into their reply slots. */
    void answerRequests(bool json);

    /** Move this call's replies into `writes`. */
    void emit(std::vector<net::Bytes> &writes);

    ServeCore &core;
    const bool coalesce;
    Mode mode = Mode::Detect;
    net::Bytes rx;      ///< undecoded bytes (binary mode)
    std::string rxText; ///< unconsumed text (JSON mode)

    // Per-consume() scratch, kept to reuse its capacity.
    std::vector<net::Bytes> replies;        ///< arrival order
    std::vector<numeric::Vector> requests;  ///< decoded requests
    std::vector<std::size_t> requestSlots;  ///< reply slot per request
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_SESSION_HH
