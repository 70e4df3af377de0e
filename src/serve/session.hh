/**
 * @file
 * Per-connection protocol state machine, transport-independent.
 *
 * A Session owns everything about one connection that is *not* I/O:
 * the receive buffer, the binary-vs-JSON mode detection, incremental
 * frame decoding, coalescing consecutive requests into one batcher
 * group, and the strict request-order staging of replies. Transports
 * feed it raw received bytes via consume(), then call collect() to
 * take the reply buffers that are ready — each element is exactly one
 * write(2)'s worth, so the per-request baseline (coalesceFrames =
 * false) keeps its one-write-per-response shape.
 *
 * consume() never blocks on the batcher: requests are submitted
 * asynchronously (ServeCore::answerRequestsAsync) and their reply
 * slots stay pending in the outbox until the prediction resolves.
 * The EventServer calls collect(block=false) and is woken by the
 * batcher's completion hook, so a shard event loop keeps serving its
 * other connections while a prediction is in flight; this is what
 * lets the server hold more in-flight batch groups than it has
 * shards. Only the graceful drain calls collect(block=true), to
 * answer every accepted request before the close.
 *
 * The transport contributes when reads happen and how writes are
 * flushed, never what bytes are produced: those are a function of
 * the frames received alone, which is what lets the equivalence
 * suite compare each stream byte for byte with a sequential reply
 * model (tests/serve_equivalence_test.cc).
 *
 * Reply ordering contract: replies are staged strictly in frame
 * arrival order — a pong or a protocol-error frame never overtakes
 * the responses of requests received before it, no matter how the
 * reads were fragmented and no matter which batcher group resolves
 * first. collect() only releases the *contiguous completed prefix*
 * of the outbox; a reply staged behind a still-pending prediction
 * waits for it. (The pre-reactor server let a pong jump ahead of
 * requests that shared its read chunk, which made the wire stream
 * depend on TCP segmentation; the equivalence gate forbids exactly
 * that kind of nondeterminism.)
 *
 * Failpoints: the "serve.decode" site lives here (one check per
 * decoded frame/line); "serve.read"/"serve.write" belong to the
 * transport and "serve.predict" to the MicroBatcher.
 */

#ifndef WCNN_SERVE_SESSION_HH
#define WCNN_SERVE_SESSION_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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
        CloseAfterFlush, ///< stop reading; close once drained()
    };

    /**
     * @param serve_core Shared serving core answering the requests.
     * @param coalesce   ServeOptions::coalesceFrames of the server.
     * @param on_ready   Optional wake hook, forwarded to the batcher
     *                   (MicroBatcher::submitMany): fires from the
     *                   dispatcher thread when an in-flight group
     *                   resolved, meaning a collect(false) call would
     *                   now make progress. Event-loop transports pass
     *                   their reactor wakeup.
     */
    Session(ServeCore &serve_core, bool coalesce,
            std::function<void()> on_ready = {});

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Feed received bytes and process every complete frame/line now
     * buffered: pongs and typed errors are staged immediately,
     * requests are submitted to the serving core without blocking.
     *
     * @throws ServeError from the "serve.decode" failpoint; typed
     *         request failures never throw — they become error
     *         frames/lines in the outbox.
     */
    Verdict consume(const std::uint8_t *data, std::size_t n);

    /**
     * Deliver resolved predictions into their outbox slots, then
     * append every reply buffer that is ready — the contiguous
     * completed prefix of the outbox, in frame-arrival order — to
     * `writes` (one element per intended write(2); a single
     * coalesced element when coalescing is on).
     *
     * @param block True blocks until every in-flight group resolved
     *        (the graceful drain); false only takes what is already
     *        complete.
     */
    void collect(bool block, std::vector<net::Bytes> &writes);

    /** Whether any batcher group is still in flight. */
    bool hasPending() const { return !pending.empty(); }

    /** Whether every staged reply has been collected (nothing is in
     *  flight and the outbox is empty) — the close gate transports
     *  check before honouring Verdict::CloseAfterFlush. */
    bool drained() const { return pending.empty() && outbox.empty(); }

  private:
    enum class Mode
    {
        Detect, ///< no bytes seen yet
        Binary, ///< length-prefixed frames
        Json,   ///< newline-delimited JSON
    };

    /** One staged reply, in frame-arrival order. */
    struct Entry
    {
        net::Bytes bytes;
        bool done = false; ///< false while its prediction is pending
    };

    /** An in-flight batcher group plus the slot addressing needed to
     *  land its rows in the outbox. */
    struct Pending
    {
        ServeCore::PendingGroup group;
        /** Outbox sequence number per request index. */
        std::vector<std::uint64_t> seqs;
        bool json = false;
    };

    Verdict processBinary();
    Verdict processJson();

    /** Answer one Observe record inline (Ack or typed error). */
    void handleObserve(const numeric::Vector &x,
                       const numeric::Vector &y, bool json);

    /** Stage a completed reply at the tail of the outbox. */
    void stageDone(net::Bytes bytes);

    /** Submit decoded requests asynchronously; `seqs[i]` is the
     *  outbox slot reserved for request i's reply. */
    void submitRequests(const std::vector<numeric::Vector> &requests,
                        std::vector<std::uint64_t> seqs, bool json);

    /** Entry for an absolute sequence number. */
    Entry &entryAt(std::uint64_t seq);

    /** Fill a request slot with its reply. */
    void fulfil(std::uint64_t seq, net::Bytes bytes);

    /** Resolve one finished group into its outbox slots. */
    void finish(Pending &p);

    /** Move the completed outbox prefix into `writes`. */
    void emit(std::vector<net::Bytes> &writes);

    ServeCore &core;
    const bool coalesce;
    std::function<void()> onReady;
    Mode mode = Mode::Detect;
    net::Bytes rx;      ///< undecoded bytes (binary mode)
    std::string rxText; ///< unconsumed text (JSON mode)

    std::deque<Entry> outbox;       ///< staged replies, arrival order
    std::uint64_t baseSeq = 0;      ///< seq of outbox.front()
    std::vector<Pending> pending;   ///< in-flight batcher groups
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_SESSION_HH
