/**
 * @file
 * The serving equivalence gate: the server vs a sequential reply model.
 *
 * The repo's discipline for fast paths is "admitted only through an
 * equivalence gate" (kernel_equivalence_test pins the batched kernels
 * to their single-row oracles bit-for-bit). This suite is the serving
 * counterpart. Its oracle is a sequential reply model local to this
 * file: for each scripted client it answers the bytes the client
 * sent one frame (or JSON line) at a time, in arrival order, with
 * ModelBundle::predict and the protocol codec — no cache, no
 * forwards, no Session, no ServeCore. The server's response
 * stream must equal the model's BYTE FOR BYTE: binary framing and
 * JSON lines, pipelined bursts under different TCP fragmentations,
 * typed per-request errors, wire garbage, and connection-limit
 * rejections. Since the model shares no serving code with the server,
 * a reordered, coalesced-wrong or recomputed reply cannot hide behind
 * a shared implementation.
 *
 * Where hard byte-identity would require fixing timing itself (hot
 * swap under churn), the suite pins the semantics instead: every
 * request gets an in-order outcome that is bit-exact under some
 * deployed bundle.
 *
 * The scripted clients write raw protocol bytes, half-close, and
 * slurp the response stream to EOF — no client-library smarts hide a
 * server-side difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/event_server.hh"
#include "serve/net/client.hh"
#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"

namespace net = wcnn::serve::net;

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::BundlePtr;
using wcnn::serve::EventServer;
using wcnn::serve::ModelBundle;
using wcnn::serve::ProtocolError;
using wcnn::serve::ServeOptions;

namespace {

constexpr const char *kHost = "127.0.0.1";

/** `width` hidden units; a wide layer makes a deliberately slow
 *  bundle (about 20 ns per hidden unit per row). */
BundlePtr
makeBundle(std::uint64_t seed = 7, std::size_t width = 6)
{
    Rng rng(seed);
    Mlp mlp(3,
            {LayerSpec{width, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(mlp), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "b", "c"}, {"u", "v"},
        "equivalence-" + std::to_string(seed)));
}

/** One scripted client: raw byte chunks written in order, with an
 *  optional pause between chunks to force separate server reads. */
struct ClientScript
{
    std::vector<net::Bytes> chunks;
    int interChunkDelayMs = 0;

    /** Everything the client sends, as one byte string. */
    net::Bytes sent() const
    {
        net::Bytes all;
        for (const net::Bytes &chunk : chunks)
            all.insert(all.end(), chunk.begin(), chunk.end());
        return all;
    }
};

/** Append-concatenate. */
void
append(net::Bytes &to, const net::Bytes &piece)
{
    to.insert(to.end(), piece.begin(), piece.end());
}

net::Bytes
fromString(const std::string &text)
{
    return net::Bytes(text.begin(), text.end());
}

/** Split a byte string into fixed-size pieces. */
std::vector<net::Bytes>
splitChunks(const net::Bytes &all, std::size_t piece)
{
    std::vector<net::Bytes> out;
    for (std::size_t off = 0; off < all.size(); off += piece) {
        const std::size_t end = std::min(off + piece, all.size());
        out.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(off),
                         all.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return out;
}

// The sequential reply model -----------------------------------------

/** The bad-request message a Request or Observe frame earns from
 *  `bundle`, or "" when its dimensions fit. */
std::string
arityError(const ModelBundle &bundle, const net::Frame &frame)
{
    const bool observe = frame.type == net::FrameType::Observe;
    const std::string what = observe ? "observation" : "request";
    if (frame.values.size() != bundle.inputDim())
        return what + " has " + std::to_string(frame.values.size()) +
               " inputs, bundle expects " +
               std::to_string(bundle.inputDim());
    if (observe && frame.observed.size() != bundle.outputDim())
        return what + " has " + std::to_string(frame.observed.size()) +
               " outputs, bundle expects " +
               std::to_string(bundle.outputDim());
    return "";
}

/** Binary framing: answer each complete frame in order; the first
 *  malformed or client-illegal frame ends the stream with its
 *  protocol error, and a torn tail at the half-close gets nothing. */
net::Bytes
modelBinaryReplies(const ModelBundle &bundle, const net::Bytes &sent)
{
    net::Bytes out;
    std::size_t off = 0;
    for (;;) {
        const net::DecodeResult r =
            net::tryDecode(sent.data() + off, sent.size() - off);
        if (r.status == net::DecodeStatus::NeedMore)
            return out;
        if (r.status == net::DecodeStatus::Malformed) {
            append(out, net::encodeError("serve.protocol", r.error));
            return out;
        }
        off += r.consumed;
        const net::Frame &frame = r.frame;
        if (frame.type == net::FrameType::Ping) {
            append(out, net::encodePong());
        } else if (frame.type != net::FrameType::Request &&
                   frame.type != net::FrameType::Observe) {
            append(out,
                   net::encodeError("serve.protocol",
                                    "unexpected frame type from client"));
            return out;
        } else if (const std::string bad = arityError(bundle, frame);
                   !bad.empty()) {
            append(out, net::encodeError("serve.bad_request", bad));
        } else if (frame.type == net::FrameType::Request) {
            append(out, net::encodeResponse(bundle.predict(frame.values)));
        } else {
            append(out, net::encodeAck());
        }
    }
}

/** JSON lines: answer each complete non-empty line in order; the
 *  first unparseable line ends the stream with its protocol error. */
std::string
modelJsonReplies(const ModelBundle &bundle, const std::string &sent)
{
    std::string out;
    std::size_t start = 0;
    std::size_t newline = sent.find('\n');
    for (; newline != std::string::npos;
         start = newline + 1, newline = sent.find('\n', start)) {
        std::string line = sent.substr(start, newline - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        net::Frame frame;
        try {
            frame = net::parseJsonLine(line);
        } catch (const ProtocolError &error) {
            // what() is "<kind>: <message>"; the line carries both
            // fields separately.
            const std::string what = error.what();
            out += net::formatJsonError(
                error.kind(), what.substr(error.kind().size() + 2));
            return out;
        }
        if (frame.type == net::FrameType::Ping)
            out += net::formatJsonPong();
        else if (const std::string bad = arityError(bundle, frame);
                 !bad.empty())
            out += net::formatJsonError("serve.bad_request", bad);
        else if (frame.type == net::FrameType::Observe)
            out += net::formatJsonAck();
        else
            out += net::formatJsonResponse(bundle.predict(frame.values));
    }
    return out;
}

/**
 * The exact response stream a correct server sends a client that
 * wrote `sent` and then half-closed. A first byte of '{' selects JSON
 * lines for the whole connection, anything else binary frames.
 */
net::Bytes
modelReplies(const ModelBundle &bundle, const net::Bytes &sent)
{
    if (sent.empty())
        return {};
    if (sent.front() == '{')
        return fromString(modelJsonReplies(
            bundle, std::string(sent.begin(), sent.end())));
    return modelBinaryReplies(bundle, sent);
}

// Running scripts against the server ---------------------------------

/**
 * Run every script concurrently against a fresh server: write the
 * chunks, half-close, slurp the response stream to EOF. Returns one
 * raw byte stream per client.
 */
std::vector<net::Bytes>
runScripts(const ServeOptions &opts, const BundlePtr &bundle,
           const std::vector<ClientScript> &scripts)
{
    EventServer server(opts);
    server.deploy(bundle);
    server.start();

    std::vector<net::Bytes> streams(scripts.size());
    std::vector<std::thread> threads;
    threads.reserve(scripts.size());
    for (std::size_t i = 0; i < scripts.size(); ++i) {
        threads.emplace_back([&, i] {
            net::TcpStream stream =
                net::TcpStream::connect(kHost, server.port());
            for (const net::Bytes &chunk : scripts[i].chunks) {
                stream.writeAll(chunk.data(), chunk.size());
                if (scripts[i].interChunkDelayMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            scripts[i].interChunkDelayMs));
            }
            stream.shutdownWrite();
            std::uint8_t buf[4096];
            std::size_t n = 0;
            while (stream.readSome(buf, sizeof(buf), n, 10000) ==
                   net::ReadStatus::Data)
                streams[i].insert(streams[i].end(), buf, buf + n);
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();
    return streams;
}

/** Decode a raw response stream into frames (must parse cleanly). */
std::vector<net::Frame>
decodeStream(const net::Bytes &stream)
{
    std::vector<net::Frame> frames;
    std::size_t off = 0;
    while (off < stream.size()) {
        const net::DecodeResult r =
            net::tryDecode(stream.data() + off, stream.size() - off);
        EXPECT_EQ(r.status, net::DecodeStatus::Frame)
            << "undecodable response stream at offset " << off;
        if (r.status != net::DecodeStatus::Frame)
            break;
        frames.push_back(r.frame);
        off += r.consumed;
    }
    return frames;
}

/** Short human rendering of a response stream for failure output. */
std::string
describe(const net::Bytes &stream)
{
    if (!stream.empty() && stream.front() == '{')
        return std::string(stream.begin(), stream.end());
    std::string out;
    for (const net::Frame &frame : decodeStream(stream)) {
        out += out.empty() ? "" : " ";
        switch (frame.type) {
        case net::FrameType::Response:
            out += "Response";
            break;
        case net::FrameType::Pong:
            out += "Pong";
            break;
        case net::FrameType::Ack:
            out += "Ack";
            break;
        case net::FrameType::Error:
            out += "Error(" + frame.errorKind + ")";
            break;
        default:
            out += "?";
            break;
        }
    }
    return out;
}

/** Every client's stream equals the reply model's, byte for byte. */
void
expectStreamsMatchModel(const ModelBundle &bundle,
                        const std::vector<ClientScript> &scripts,
                        const std::vector<net::Bytes> &streams)
{
    ASSERT_EQ(streams.size(), scripts.size());
    for (std::size_t i = 0; i < scripts.size(); ++i) {
        const net::Bytes want = modelReplies(bundle, scripts[i].sent());
        EXPECT_EQ(streams[i], want)
            << "client " << i << " diverged from the reply model\n"
            << "  server: " << describe(streams[i]) << "\n"
            << "  model:  " << describe(want);
    }
}

} // namespace

TEST(ServeEquivalenceTest,
     BinaryPipeliningIsChunkingInvariantAndByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // The same 8 pipelined requests, three TCP fragmentations: one
    // frame per write, everything in one write, and 7-byte shreds
    // (every length prefix split across segments).
    Rng rng(101);
    net::Bytes all;
    std::vector<net::Bytes> perFrame;
    for (int i = 0; i < 8; ++i) {
        const Vector x{rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2)};
        perFrame.push_back(net::encodeRequest(x));
        append(all, perFrame.back());
    }
    const std::vector<ClientScript> scripts = {
        ClientScript{perFrame, 1},
        ClientScript{{all}, 0},
        ClientScript{splitChunks(all, 7), 1},
    };

    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    // One model stream for all three: the response stream depends on
    // the frames sent, never on TCP segmentation.
    ASSERT_EQ(decodeStream(modelReplies(*bundle, all)).size(), 8u);
    expectStreamsMatchModel(*bundle, scripts, streams);
}

TEST(ServeEquivalenceTest, MixedPingsAndRequestsKeepArrivalOrder)
{
    const BundlePtr bundle = makeBundle();
    const Vector x0{0.5, -1.0, 1.5};
    const Vector x1{1.5, 0.25, -0.5};
    const Vector x2{-0.75, 2.0, 0.0};

    // Strict arrival order: a pong never overtakes the response of a
    // request received before it.
    net::Bytes burst;
    append(burst, net::encodeRequest(x0));
    append(burst, net::encodePing());
    append(burst, net::encodeRequest(x1));
    append(burst, net::encodePing());
    append(burst, net::encodeRequest(x2));

    const std::vector<ClientScript> scripts = {ClientScript{{burst}, 0}};
    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    EXPECT_EQ(describe(modelReplies(*bundle, burst)),
              "Response Pong Response Pong Response");
    expectStreamsMatchModel(*bundle, scripts, streams);
}

TEST(ServeEquivalenceTest, TypedErrorsAndGarbageAreByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // good, wrong-arity, good, then wire garbage: the responses and
    // the bad-request error keep arrival order, the protocol error
    // for the garbage comes last, then the connection closes.
    net::Bytes burst;
    append(burst, net::encodeRequest({1.0, 2.0, 3.0}));
    append(burst, net::encodeRequest({4.0, 5.0})); // arity 2 != 3
    append(burst, net::encodeRequest({6.0, 7.0, 8.0}));
    append(burst, fromString("zz")); // not a frame

    const std::vector<ClientScript> scripts = {ClientScript{{burst}, 0}};
    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    EXPECT_EQ(describe(modelReplies(*bundle, burst)),
              "Response Error(serve.bad_request) Response "
              "Error(serve.protocol)");
    expectStreamsMatchModel(*bundle, scripts, streams);
}

TEST(ServeEquivalenceTest, JsonLinesModeIsByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // Client 0: predict / ping / wrong-arity / predict — all valid
    // JSON, so the connection stays open until the half-close.
    net::Bytes lines0;
    append(lines0,
           fromString("{\"op\":\"predict\",\"x\":[0.5,-1.0,1.5]}\n"));
    append(lines0, fromString("{\"op\":\"ping\"}\n"));
    append(lines0, fromString("{\"op\":\"predict\",\"x\":[1.0]}\n"));
    append(lines0,
           fromString("{\"op\":\"predict\",\"x\":[2.0,0.25,-0.5]}\n"));

    // Client 1: one good line, then a line with an embedded NUL — a
    // protocol error that closes the connection.
    std::string nul_line = "{\"op\":\"predict\",";
    nul_line += '\0';
    nul_line += "\"x\":[1,2,3]}\n";
    net::Bytes lines1;
    append(lines1,
           fromString("{\"op\":\"predict\",\"x\":[1.0,1.0,1.0]}\n"));
    append(lines1, fromString(nul_line));

    const std::vector<ClientScript> scripts = {
        ClientScript{splitChunks(lines0, 11), 1}, // shredded lines
        ClientScript{{lines1}, 0},
    };

    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    const net::Bytes want0 = modelReplies(*bundle, lines0);
    const std::string s0(want0.begin(), want0.end());
    EXPECT_NE(s0.find("\"pong\":true"), std::string::npos);
    EXPECT_NE(s0.find("serve.bad_request"), std::string::npos);
    const net::Bytes want1 = modelReplies(*bundle, lines1);
    const std::string s1(want1.begin(), want1.end());
    EXPECT_NE(s1.find("serve.protocol"), std::string::npos);
    expectStreamsMatchModel(*bundle, scripts, streams);
}

TEST(ServeEquivalenceTest, ConnectionLimitRejectionIsByteIdentical)
{
    const BundlePtr bundle = makeBundle();
    ServeOptions opts;
    opts.maxConnections = 1;

    EventServer server(opts);
    server.deploy(bundle);
    server.start();

    // Occupy the single slot, with a round trip to guarantee the
    // connection is fully registered.
    net::ServeClient occupant =
        net::ServeClient::connect(kHost, server.port());
    (void)occupant.predict({1.0, 2.0, 3.0});

    // The surplus connection gets the typed rejection, then EOF.
    net::TcpStream surplus = net::TcpStream::connect(kHost, server.port());
    net::Bytes stream;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while (surplus.readSome(buf, sizeof(buf), n, 10000) ==
           net::ReadStatus::Data)
        stream.insert(stream.end(), buf, buf + n);

    EXPECT_EQ(stream, net::encodeError("serve.overloaded",
                                       "connection limit of 1 reached"))
        << describe(stream);
    EXPECT_EQ(server.stats().rejectedConnections, 1u);
    server.stop();
}

TEST(ServeEquivalenceTest, HotSwapUnderLoadIsIdenticalOnBothEngines)
{
    const BundlePtr bundleA = makeBundle(21);
    const BundlePtr bundleB = makeBundle(22);

    // Deterministic request set, reused in both phases so the swap's
    // cache invalidation is also exercised.
    Rng rng(33);
    std::vector<Vector> xs;
    for (int i = 0; i < 6; ++i)
        xs.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-2, 2)});

    EventServer server;
    server.deploy(bundleA);
    server.start();

    // A churn client pipelines throughout the swap: every answer must
    // be bit-exact under SOME deployed bundle, and once B appears, A
    // never comes back (monotone transition).
    std::atomic<bool> churn_stop{false};
    std::string churn_failure;
    const Vector churn_x{0.125, -0.25, 0.5};
    std::thread churn([&] {
        const Vector wantA = bundleA->predict(churn_x);
        const Vector wantB = bundleB->predict(churn_x);
        bool saw_b = false;
        try {
            net::ServeClient client =
                net::ServeClient::connect(kHost, server.port());
            while (!churn_stop.load()) {
                const Vector got = client.predict(churn_x);
                const bool is_a = got == wantA;
                const bool is_b = got == wantB;
                if (!is_a && !is_b) {
                    churn_failure = "answer under no bundle";
                    return;
                }
                if (is_b)
                    saw_b = true;
                else if (saw_b && is_a) {
                    churn_failure = "bundle A after bundle B";
                    return;
                }
            }
        } catch (const wcnn::Error &e) {
            churn_failure = e.what();
        }
    });

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    for (const Vector &x : xs) {
        const Vector got = client.predict(x);
        const Vector want = bundleA->predict(x);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(got[j], want[j]) << "phase A";
    }

    server.deploy(bundleB);

    for (const Vector &x : xs) {
        const Vector got = client.predict(x);
        const Vector want = bundleB->predict(x);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(got[j], want[j]) << "phase B";
    }

    churn_stop.store(true);
    churn.join();
    EXPECT_EQ(churn_failure, "");
    server.stop();
}

namespace {

/** One JSON array of numbers, %.17g per element. */
std::string
jsonArray(const Vector &v)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
        out += i == 0 ? "" : ",";
        out += buf;
    }
    return out + "]";
}

Vector
randomVector(Rng &rng, std::size_t n)
{
    Vector v(n);
    for (double &value : v)
        value = rng.uniform(-2, 2);
    return v;
}

/**
 * A generated client program: 1–24 pipelined frames (binary) or lines
 * (JSON) — fresh and repeated predicts, pings, observes, wrong-arity
 * requests — optionally ended by a malformed frame or a torn tail.
 * Repeats draw from `pool`, which every connection of one program
 * shares, so the cache sees hits across connections too.
 */
ClientScript
generateClient(Rng &rng, std::vector<Vector> &pool)
{
    const bool json = rng.uniform() < 0.5;
    const auto frame = [json](const std::string &line,
                              const net::Bytes &binary) {
        return json ? fromString(line + "\n") : binary;
    };
    net::Bytes all;
    const auto frames = static_cast<int>(rng.uniformInt(1, 24));
    for (int f = 0; f < frames; ++f) {
        const double pick = rng.uniform();
        if (pick < 0.35 || (pick < 0.55 && pool.empty())) {
            pool.push_back(randomVector(rng, 3));
            append(all, frame("{\"op\":\"predict\",\"x\":" +
                                  jsonArray(pool.back()) + "}",
                              net::encodeRequest(pool.back())));
        } else if (pick < 0.55) {
            const Vector &x = pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) -
                                      1))];
            append(all, frame("{\"op\":\"predict\",\"x\":" +
                                  jsonArray(x) + "}",
                              net::encodeRequest(x)));
        } else if (pick < 0.65) {
            append(all, frame("{\"op\":\"ping\"}", net::encodePing()));
        } else if (pick < 0.85) {
            // Mostly well-formed observes, sometimes of the wrong
            // input or output arity.
            const std::size_t xn = rng.uniform() < 0.85 ? 3 : 2;
            const std::size_t yn = rng.uniform() < 0.85 ? 2 : 1;
            const Vector x = randomVector(rng, xn);
            const Vector y = randomVector(rng, yn);
            append(all, frame("{\"op\":\"observe\",\"x\":" + jsonArray(x) +
                                  ",\"y\":" + jsonArray(y) + "}",
                              net::encodeObserve(x, y)));
        } else {
            const Vector x = randomVector(
                rng, rng.uniform() < 0.5 ? 2 : 4); // bundle expects 3
            append(all, frame("{\"op\":\"predict\",\"x\":" +
                                  jsonArray(x) + "}",
                              net::encodeRequest(x)));
        }
    }

    // The ending: nothing, a malformed frame, or a torn tail.
    const double ending = rng.uniform();
    net::Bytes malformed;
    if (ending < 0.15) {
        malformed = json ? fromString("{\"op\":\"teleport\"}\n")
                         : (rng.uniform() < 0.5
                                ? fromString("zz")
                                : net::encodeResponse({1.0, 2.0}));
    } else if (ending < 0.3) {
        const net::Bytes whole =
            frame("{\"op\":\"ping\"}", net::encodeRequest({1, 2, 3}));
        const auto keep = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(whole.size()) - 1));
        if (json)
            append(all, fromString("{\"op\":\"ping\"}")); // no newline
        else
            all.insert(all.end(), whole.begin(),
                       whole.begin() + static_cast<std::ptrdiff_t>(keep));
    }

    // Split at random points. A malformed ending travels whole in the
    // last write: the server closes on it, and bytes still in flight
    // behind it would reset the connection before the client read
    // its replies.
    ClientScript script;
    std::vector<std::size_t> cuts;
    const auto ncuts = rng.uniformInt(0, 5);
    for (std::int64_t c = 0; c < ncuts && all.size() > 1; ++c)
        cuts.push_back(static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(all.size()) - 1)));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
        script.chunks.emplace_back(
            all.begin() + static_cast<std::ptrdiff_t>(from),
            all.begin() + static_cast<std::ptrdiff_t>(cut));
        from = cut;
    }
    script.chunks.emplace_back(
        all.begin() + static_cast<std::ptrdiff_t>(from), all.end());
    if (!malformed.empty())
        script.chunks.push_back(malformed);
    script.interChunkDelayMs = rng.uniform() < 0.2 ? 1 : 0;
    return script;
}

} // namespace

TEST(ServeEquivalenceTest, GeneratedProgramsMatchTheModel)
{
    // Seeded programs over 1–4 connections, each seed on its own
    // server configuration; every stream must equal the sequential
    // reply model byte for byte.
    const BundlePtr bundle = makeBundle();
    constexpr std::uint64_t kSeeds = 240;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        Rng rng(seed);
        ServeOptions opts;
        opts.cache.capacity = rng.uniform() < 0.5 ? 0 : 64;
        opts.coalesceFrames = rng.uniform() < 0.5;
        opts.maxBatch = rng.uniform() < 0.5 ? 1 : 64;

        std::vector<Vector> pool;
        std::vector<ClientScript> scripts;
        const auto clients = rng.uniformInt(1, 4);
        for (std::int64_t c = 0; c < clients; ++c)
            scripts.push_back(generateClient(rng, pool));

        const std::vector<net::Bytes> streams =
            runScripts(opts, bundle, scripts);
        expectStreamsMatchModel(*bundle, scripts, streams);
        if (HasFailure()) {
            ADD_FAILURE() << "generated program seed " << seed
                          << " (cache " << opts.cache.capacity
                          << ", coalesceFrames " << opts.coalesceFrames
                          << ", maxBatch " << opts.maxBatch << ")";
            return;
        }
    }
}
