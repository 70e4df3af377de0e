#include "session.hh"

#include <utility>

#include "core/failpoint.hh"
#include "serve/error.hh"

namespace wcnn {
namespace serve {

namespace {

net::Bytes
toBytes(const std::string &s)
{
    return net::Bytes(s.begin(), s.end());
}

} // namespace

Session::Session(ServeCore &serve_core, bool coalesce_frames)
    : core(serve_core), coalesce(coalesce_frames)
{
}

Session::Verdict
Session::consume(const std::uint8_t *data, std::size_t n,
                 std::vector<net::Bytes> &writes)
{
    if (mode == Mode::Detect) {
        if (n == 0)
            return Verdict::Continue;
        // Mode detection: the first byte a connection sends. '{'
        // selects JSON lines, anything else must open a binary frame.
        mode = net::looksLikeJson(data[0]) ? Mode::Json : Mode::Binary;
    }
    replies.clear();
    requests.clear();
    requestSlots.clear();
    Verdict verdict = Verdict::Continue;
    if (mode == Mode::Json) {
        rxText.append(reinterpret_cast<const char *>(data), n);
        verdict = processJson();
    } else {
        rx.insert(rx.end(), data, data + n);
        verdict = processBinary();
    }
    emit(writes);
    return verdict;
}

Session::Verdict
Session::processBinary()
{
    // Decode every complete frame currently buffered. Replies take
    // their slots in arrival order; a request's slot is filled once
    // every request of this call has been answered together.
    bool close_after_flush = false;

    while (!close_after_flush) {
        WCNN_FAILPOINT("serve.decode",
                       throw ServeError("injected: serve.decode"));
        net::DecodeResult r = net::tryDecode(rx.data(), rx.size());
        if (r.status == net::DecodeStatus::NeedMore)
            break;
        if (r.status == net::DecodeStatus::Malformed) {
            replies.push_back(net::encodeError("serve.protocol", r.error));
            core.noteProtocolError();
            close_after_flush = true;
            break;
        }
        rx.erase(rx.begin(),
                 rx.begin() + static_cast<std::ptrdiff_t>(r.consumed));
        switch (r.frame.type) {
        case net::FrameType::Request:
            queueRequest(std::move(r.frame.values));
            break;
        case net::FrameType::Ping:
            core.notePing();
            replies.push_back(net::encodePong());
            break;
        case net::FrameType::Observe:
            handleObserve(r.frame.values, r.frame.observed,
                          /*json=*/false);
            break;
        default:
            // Clients must not send server-side frame types.
            replies.push_back(net::encodeError(
                "serve.protocol", "unexpected frame type from client"));
            core.noteFrameError();
            close_after_flush = true;
            break;
        }
    }

    answerRequests(/*json=*/false);

    return close_after_flush ? Verdict::CloseAfterFlush
                             : Verdict::Continue;
}

Session::Verdict
Session::processJson()
{
    // Cut every complete line out of the buffer, then answer the
    // requests among them together (same coalescing as binary mode).
    bool close_after_flush = false;

    std::size_t newline = rxText.find('\n');
    while (newline != std::string::npos && !close_after_flush) {
        std::string line = rxText.substr(0, newline);
        rxText.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty()) {
            newline = rxText.find('\n');
            continue;
        }
        WCNN_FAILPOINT("serve.decode",
                       throw ServeError("injected: serve.decode"));
        try {
            net::Frame frame = net::parseJsonLine(line);
            if (frame.type == net::FrameType::Ping) {
                core.notePing();
                replies.push_back(toBytes(net::formatJsonPong()));
            } else if (frame.type == net::FrameType::Observe) {
                handleObserve(frame.values, frame.observed,
                              /*json=*/true);
            } else {
                queueRequest(std::move(frame.values));
            }
        } catch (const ProtocolError &error) {
            core.noteProtocolError();
            replies.push_back(toBytes(net::formatJsonError(
                error.kind(), bareErrorMessage(error))));
            close_after_flush = true;
        }
        newline = rxText.find('\n');
    }

    answerRequests(/*json=*/true);

    return close_after_flush ? Verdict::CloseAfterFlush
                             : Verdict::Continue;
}

void
Session::handleObserve(const numeric::Vector &x,
                       const numeric::Vector &y, bool json)
{
    // Observations are answered at decode, in arrival order: the
    // Ack (or typed validation error) takes the slot behind the
    // requests decoded ahead of it.
    try {
        core.observe(x, y);
        replies.push_back(json ? toBytes(net::formatJsonAck())
                               : net::encodeAck());
    } catch (const wcnn::Error &error) {
        core.noteFrameError();
        replies.push_back(
            json ? toBytes(net::formatJsonError(error.kind(),
                                                bareErrorMessage(error)))
                 : net::encodeError(error.kind(),
                                    bareErrorMessage(error)));
    }
}

void
Session::queueRequest(numeric::Vector x)
{
    requestSlots.push_back(replies.size());
    replies.emplace_back(); // filled by answerRequests()
    requests.push_back(std::move(x));
}

void
Session::answerRequests(bool json)
{
    if (requests.empty())
        return;
    core.answer(
        requests,
        [this, json](std::size_t i, const numeric::Vector &y) {
            replies[requestSlots[i]] =
                json ? toBytes(net::formatJsonResponse(y))
                     : net::encodeResponse(y);
        },
        [this, json](std::size_t i, const wcnn::Error &error) {
            replies[requestSlots[i]] =
                json ? toBytes(net::formatJsonError(
                           error.kind(), bareErrorMessage(error)))
                     : net::encodeError(error.kind(),
                                        bareErrorMessage(error));
        });
}

void
Session::emit(std::vector<net::Bytes> &writes)
{
    if (replies.empty())
        return;
    if (!coalesce) {
        // Per-request baseline: one write(2) per reply frame, like a
        // server with no batching anywhere.
        for (net::Bytes &reply : replies)
            writes.push_back(std::move(reply));
        return;
    }
    if (replies.size() == 1) {
        writes.push_back(std::move(replies.front()));
        return;
    }
    std::size_t total = 0;
    for (const net::Bytes &reply : replies)
        total += reply.size();
    net::Bytes out;
    out.reserve(total);
    for (const net::Bytes &reply : replies)
        out.insert(out.end(), reply.begin(), reply.end());
    writes.push_back(std::move(out));
}

} // namespace serve
} // namespace wcnn
