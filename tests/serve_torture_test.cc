/**
 * @file
 * Protocol torture harness: hostile and degenerate clients against
 * the server. Where the equivalence suite proves the happy paths
 * byte-exact, this suite pins the ugly ones: byte-drip
 * feeds, length prefixes split across TCP segments, frames whose
 * declared lengths lie (oversized, zero), slow-loris connections
 * squatting past the idle timeout, and half-closed peers. The
 * contract is a typed outcome — answered exactly, answered with a
 * typed error frame, or silently dropped at the timeout — and never
 * a hang and never a leaked file descriptor
 * (asserted by counting /proc/self/fd before and after each server's
 * full lifetime).
 *
 * One scenario is client-side: ClientDeadlineCoversDrippedFrames
 * pins the ServeClient regression where a per-read timeout let a
 * server dripping one byte per window hold the client forever (see
 * the decode-loop comment in src/serve/net/client.cc).
 */

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hh"
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
using wcnn::serve::ServeError;
using wcnn::serve::ServeOptions;

namespace {

constexpr const char *kHost = "127.0.0.1";

/** Open descriptors of this process (the fd-leak oracle). */
int
countOpenFds()
{
    DIR *dir = opendir("/proc/self/fd");
    if (dir == nullptr)
        return -1;
    int count = 0;
    while (const dirent *entry = readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..")
            ++count;
    }
    closedir(dir);
    return count;
}

BundlePtr
makeBundle(std::uint64_t seed = 9)
{
    Rng rng(seed);
    Mlp mlp(3,
            {LayerSpec{6, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(mlp), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "b", "c"}, {"u", "v"},
        "torture"));
}

const Vector kX{0.5, -1.25, 2.0};

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Slurp a connection's remaining bytes to EOF (bounded by timeout
 *  per read; a stall fails the test instead of hanging it). */
net::Bytes
readToEof(net::TcpStream &stream, int timeout_ms = 10000)
{
    net::Bytes out;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    net::ReadStatus status;
    while ((status = stream.readSome(buf, sizeof(buf), n,
                                     timeout_ms)) ==
           net::ReadStatus::Data)
        out.insert(out.end(), buf, buf + n);
    EXPECT_EQ(status, net::ReadStatus::Eof)
        << "server stalled instead of closing";
    return out;
}

/** Decode a full response stream into frames; garbage fails. */
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

/** A raw binary frame header with an arbitrary declared length. */
net::Bytes
rawHeader(net::FrameType type, std::uint32_t body_len)
{
    net::Bytes h;
    h.push_back(net::kMagic);
    h.push_back(static_cast<std::uint8_t>(type));
    for (int shift = 0; shift < 32; shift += 8)
        h.push_back(
            static_cast<std::uint8_t>((body_len >> shift) & 0xFF));
    return h;
}

void
expectExactResponse(const net::Frame &frame, const BundlePtr &bundle,
                    const Vector &x)
{
    ASSERT_EQ(frame.type, net::FrameType::Response);
    const Vector want = bundle->predict(x);
    ASSERT_EQ(frame.values.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
        EXPECT_EQ(frame.values[j], want[j]);
}

class ServeTortureTest : public ::testing::Test
{
  protected:
    std::unique_ptr<EventServer> newServer(ServeOptions opts = {})
    {
        return std::make_unique<EventServer>(std::move(opts));
    }
};

} // namespace

/** One byte per write: incremental decode must reassemble the frame
 *  and answer it exactly. */
TEST_F(ServeTortureTest, ByteDripFeedIsAnsweredExactly)
{
    const BundlePtr bundle = makeBundle();
    const int fds_before = countOpenFds();
    {
        auto server = newServer();
        server->deploy(bundle);
        server->start();

        net::TcpStream stream =
            net::TcpStream::connect(kHost, server->port());
        const net::Bytes frame = net::encodeRequest(kX);
        for (const std::uint8_t byte : frame) {
            stream.writeAll(&byte, 1);
            sleepMs(2);
        }
        stream.shutdownWrite();
        const std::vector<net::Frame> frames =
            decodeStream(readToEof(stream));
        ASSERT_EQ(frames.size(), 1u);
        expectExactResponse(frames[0], bundle, kX);
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/** The six-byte header itself split across segments, with a pause in
 *  the middle of the u32 length prefix. */
TEST_F(ServeTortureTest, SplitLengthPrefixIsReassembled)
{
    const BundlePtr bundle = makeBundle();
    const int fds_before = countOpenFds();
    {
        auto server = newServer();
        server->deploy(bundle);
        server->start();

        net::TcpStream stream =
            net::TcpStream::connect(kHost, server->port());
        const net::Bytes frame = net::encodeRequest(kX);
        // magic+type+2 length bytes | pause | rest of length+body
        stream.writeAll(frame.data(), 4);
        sleepMs(50);
        stream.writeAll(frame.data() + 4, frame.size() - 4);
        stream.shutdownWrite();
        const std::vector<net::Frame> frames =
            decodeStream(readToEof(stream));
        ASSERT_EQ(frames.size(), 1u);
        expectExactResponse(frames[0], bundle, kX);
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/** A declared body length past kMaxFrameBody is malformed on sight:
 *  typed protocol error, then close — no attempt to buffer it. */
TEST_F(ServeTortureTest, OversizedDeclaredLengthIsTypedErrorAndClose)
{
    const BundlePtr bundle = makeBundle();
    const int fds_before = countOpenFds();
    {
        auto server = newServer();
        server->deploy(bundle);
        server->start();

        net::TcpStream stream =
            net::TcpStream::connect(kHost, server->port());
        const net::Bytes header = rawHeader(
            net::FrameType::Request,
            static_cast<std::uint32_t>(net::kMaxFrameBody) + 1);
        stream.writeAll(header.data(), header.size());
        const std::vector<net::Frame> frames =
            decodeStream(readToEof(stream));
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].type, net::FrameType::Error);
        EXPECT_EQ(frames[0].errorKind, "serve.protocol");
        EXPECT_GE(server->stats().errors, 1u);
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/** A Request frame declaring a zero-length body cannot even hold its
 *  count field: typed protocol error, then close. */
TEST_F(ServeTortureTest, ZeroDeclaredLengthRequestIsTypedErrorAndClose)
{
    const BundlePtr bundle = makeBundle();
    const int fds_before = countOpenFds();
    {
        auto server = newServer();
        server->deploy(bundle);
        server->start();

        net::TcpStream stream =
            net::TcpStream::connect(kHost, server->port());
        const net::Bytes header =
            rawHeader(net::FrameType::Request, 0);
        stream.writeAll(header.data(), header.size());
        const std::vector<net::Frame> frames =
            decodeStream(readToEof(stream));
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].type, net::FrameType::Error);
        EXPECT_EQ(frames[0].errorKind, "serve.protocol");
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/** A slow loris parks half a frame and goes quiet: the idle timeout
 *  must reclaim the connection (silent drop — garbage peers do not
 *  get a goodbye), without touching a second, active connection. */
TEST_F(ServeTortureTest, SlowLorisIsDroppedAtIdleTimeout)
{
    const BundlePtr bundle = makeBundle();
    ServeOptions opts;
    opts.idleTimeoutMs = 200;
    const int fds_before = countOpenFds();
    {
        auto server = newServer(opts);
        server->deploy(bundle);
        server->start();

        net::TcpStream loris =
            net::TcpStream::connect(kHost, server->port());
        const net::Bytes frame = net::encodeRequest(kX);
        loris.writeAll(frame.data(), frame.size() / 2);

        // An active client keeps round-tripping through the same
        // window: activity must keep refreshing ITS deadline.
        net::ServeClient active =
            net::ServeClient::connect(kHost, server->port());
        const std::int64_t t0 = wcnn::core::telemetry::nowNs();
        net::Bytes leftovers;
        std::uint8_t buf[256];
        std::size_t n = 0;
        net::ReadStatus status = net::ReadStatus::Timeout;
        while (wcnn::core::telemetry::nowNs() - t0 <
               3000 * 1000000LL) {
            (void)active.predict(kX);
            status = loris.readSome(buf, sizeof(buf), n, 50);
            if (status == net::ReadStatus::Eof)
                break;
            if (status == net::ReadStatus::Data)
                leftovers.insert(leftovers.end(), buf, buf + n);
        }
        EXPECT_EQ(status, net::ReadStatus::Eof)
            << "slow loris still parked after 3 s";
        EXPECT_TRUE(leftovers.empty())
            << "idle drop is silent: no frame owed to a loris";
        (void)active.predict(kX); // survivor still served
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/** A peer that pipelines requests and immediately half-closes still
 *  gets every answer: EOF ends reading, not the replies. */
TEST_F(ServeTortureTest, HalfCloseStillAnswersPipelinedFrames)
{
    const BundlePtr bundle = makeBundle();
    const int fds_before = countOpenFds();
    {
        auto server = newServer();
        server->deploy(bundle);
        server->start();

        net::TcpStream stream =
            net::TcpStream::connect(kHost, server->port());
        const Vector xs[] = {kX, {1.0, 2.0, 3.0}, {-0.5, 0.5, -0.5}};
        net::Bytes burst;
        for (const Vector &x : xs) {
            const net::Bytes frame = net::encodeRequest(x);
            burst.insert(burst.end(), frame.begin(), frame.end());
        }
        stream.writeAll(burst.data(), burst.size());
        stream.shutdownWrite();

        const std::vector<net::Frame> frames =
            decodeStream(readToEof(stream));
        ASSERT_EQ(frames.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i)
            expectExactResponse(frames[i], bundle, xs[i]);
        server->stop();
    }
    EXPECT_EQ(countOpenFds(), fds_before) << "leaked a descriptor";
}

/**
 * Client-side regression: a fake server dripping one
 * byte per 50 ms never finishes a frame, but under the old per-read
 * timeout each drip reset the clock and the client waited forever.
 * The deadline must cover the WHOLE frame (client.cc names this test
 * in its decode-loop comment).
 */
TEST(ServeClientTortureTest, ClientDeadlineCoversDrippedFrames)
{
    net::TcpListener listener(kHost, 0, 4);
    std::atomic<bool> stop{false};
    std::thread dripper([&] {
        net::TcpStream peer = listener.accept(2000);
        if (!peer.valid())
            return;
        // Swallow the ping, then answer with a pong header whose
        // body never completes, dripping garbage slowly.
        std::uint8_t buf[64];
        std::size_t n = 0;
        (void)peer.readSome(buf, sizeof(buf), n, 1000);
        try {
            const net::Bytes header =
                rawHeader(net::FrameType::Response, 18);
            peer.writeAll(header.data(), header.size());
            const std::uint8_t zero = 0;
            while (!stop.load()) {
                peer.writeAll(&zero, 1);
                sleepMs(50);
            }
        } catch (const ServeError &) {
            // The client gave up and closed: exactly the point.
        }
    });

    net::ServeClient client =
        net::ServeClient::connect(kHost, listener.port(), 250);
    const std::int64_t t0 = wcnn::core::telemetry::nowNs();
    EXPECT_THROW((void)client.ping(), ServeError);
    const std::int64_t elapsed_ms =
        (wcnn::core::telemetry::nowNs() - t0) / 1000000;
    // Well past the 250 ms deadline means the per-read reset is back.
    EXPECT_LT(elapsed_ms, 1500)
        << "client deadline did not bound the dripped frame";
    stop.store(true);
    client.close();
    dripper.join();
}
