/**
 * @file
 * EventServer end to end over localhost TCP: bit-identity of the
 * remote predict with the local bundle, pipelined order, both wire
 * encodings (binary frames and JSON lines on one port), typed remote
 * faults (no model, arity, overload, malformed bytes), hot swap with
 * cache invalidation, idle handling, graceful drain, and exact stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
#include "serve/net/socket.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::BadRequest;
using wcnn::serve::BundlePtr;
using wcnn::serve::EventServer;
using wcnn::serve::ModelBundle;
using wcnn::serve::NoModelError;
using wcnn::serve::Overloaded;
using wcnn::serve::ServeCore;
using wcnn::serve::ServeError;
using wcnn::serve::ServeOptions;
using wcnn::serve::ServeStats;

namespace net = wcnn::serve::net;

namespace {

constexpr const char *kHost = "127.0.0.1";

BundlePtr
makeBundle(std::uint64_t seed = 1, std::size_t inputs = 3)
{
    Rng rng(seed);
    Mlp mlp(inputs,
            {LayerSpec{6, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    std::vector<std::string> in_names;
    for (std::size_t i = 0; i < inputs; ++i)
        in_names.push_back("p" + std::to_string(i));
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(mlp), Standardizer::identity(inputs),
        Standardizer::identity(2), in_names, {"u", "v"}, "server"));
}

void
expectExactlyEqual(const Vector &got, const Vector &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], want[j]) << "output " << j;
}

/** Read JSON lines from a raw stream until `lines` have arrived. */
std::vector<std::string>
readJsonLines(net::TcpStream &stream, std::size_t lines)
{
    std::string buffer;
    std::uint8_t chunk[1024];
    std::vector<std::string> out;
    while (out.size() < lines) {
        std::size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
            out.push_back(buffer.substr(0, newline));
            buffer.erase(0, newline + 1);
            continue;
        }
        std::size_t n = 0;
        const net::ReadStatus status =
            stream.readSome(chunk, sizeof(chunk), n, 5000);
        if (status != net::ReadStatus::Data)
            break; // EOF/timeout: return what we have, caller asserts
        buffer.append(reinterpret_cast<const char *>(chunk), n);
    }
    return out;
}

} // namespace

TEST(ServeServerTest, RemotePredictBitIdenticalToLocal)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    Rng rng(2);
    for (int i = 0; i < 25; ++i) {
        const Vector x{rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2)};
        expectExactlyEqual(client.predict(x), bundle->predict(x));
    }
    EXPECT_TRUE(client.ping());
    client.close();
    server.stop();

    const ServeStats s = server.stats();
    EXPECT_EQ(s.accepted, 1u);
    EXPECT_EQ(s.requests, 25u);
    EXPECT_EQ(s.pings, 1u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(ServeServerTest, PipelinedRequestsAnswerInSendOrder)
{
    const BundlePtr bundle = makeBundle(3);
    EventServer server;
    server.deploy(bundle);
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    const std::size_t kDepth = 32;
    std::vector<Vector> sent;
    for (std::size_t i = 0; i < kDepth; ++i) {
        const Vector x{static_cast<double>(i), 0.5, -0.25};
        sent.push_back(x);
        client.sendPredict(x);
    }
    for (std::size_t i = 0; i < kDepth; ++i)
        expectExactlyEqual(client.readPrediction(),
                           bundle->predict(sent[i]));

    // A second burst interleaves cached keys, answered inline, with
    // fresh ones, answered by the batcher: replies keep send order.
    std::vector<Vector> mixed;
    for (std::size_t i = 0; i < kDepth; ++i) {
        const Vector x = i % 2 == 0
                             ? sent[i]
                             : Vector{static_cast<double>(i), -0.5, 0.25};
        mixed.push_back(x);
        client.sendPredict(x);
    }
    for (std::size_t i = 0; i < kDepth; ++i)
        expectExactlyEqual(client.readPrediction(),
                           bundle->predict(mixed[i]));
    server.stop();
    EXPECT_EQ(server.stats().requests, 2 * kDepth);
    EXPECT_EQ(server.cacheStats().hits, kDepth / 2);
}

TEST(ServeServerTest, ConcurrentClientsAllGetExactAnswers)
{
    const BundlePtr bundle = makeBundle(4, 2);
    ServeOptions opts;
    opts.cache.capacity = 256; // mixed cache/batch paths
    EventServer server(opts);
    server.deploy(bundle);
    server.start();

    const std::size_t kClients = 4;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                net::ServeClient client =
                    net::ServeClient::connect(kHost, server.port());
                Rng rng = Rng::stream(77, c);
                for (int i = 0; i < 50; ++i) {
                    // Small key space: plenty of cache hits.
                    const Vector x{std::floor(rng.uniform(0, 8)),
                                   std::floor(rng.uniform(0, 8))};
                    const Vector got = client.predict(x);
                    const Vector want = bundle->predict(x);
                    for (std::size_t j = 0; j < want.size(); ++j)
                        if (got[j] != want[j]) {
                            failures[c] = "mismatch";
                            return;
                        }
                }
            } catch (const std::exception &e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    // The tiny key space must have produced real cache traffic.
    EXPECT_GT(server.cacheStats().hits, 0u);
    EXPECT_EQ(server.stats().requests, kClients * 50u);
}

TEST(ServeServerTest, JsonLinesShareThePort)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);
    server.start();

    net::TcpStream stream = net::TcpStream::connect(kHost, server.port());
    const std::string lines = "{\"op\":\"ping\"}\n"
                              "{\"op\":\"predict\",\"x\":[1,2,3]}\n"
                              "{\"op\":\"predict\",\"x\":[1,2]}\n";
    stream.writeAll(lines.data(), lines.size());
    const std::vector<std::string> replies = readJsonLines(stream, 3);
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_NE(replies[0].find("\"pong\""), std::string::npos);
    EXPECT_NE(replies[1].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(replies[1].find("\"y\":["), std::string::npos);
    EXPECT_NE(replies[2].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(replies[2].find("serve.bad_request"), std::string::npos);
    stream.close();
    server.stop();
    EXPECT_EQ(server.stats().pings, 1u);
}

TEST(ServeServerTest, NoModelDeployedAnswersTyped)
{
    EventServer server; // no deploy()
    server.start();
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    EXPECT_THROW((void)client.predict({1.0, 2.0, 3.0}), NoModelError);
    // The connection survives a typed error:
    EXPECT_TRUE(client.ping());
    server.stop();
}

TEST(ServeServerTest, ArityMismatchAnswersTypedAndKeepsServing)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);
    server.start();
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    EXPECT_THROW((void)client.predict({1.0}), BadRequest);
    const Vector x{1.0, 2.0, 3.0};
    expectExactlyEqual(client.predict(x), bundle->predict(x));
    server.stop();
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServeServerTest, ConnectionLimitRejectsSurplusTyped)
{
    ServeOptions opts;
    opts.maxConnections = 1;
    EventServer server(opts);
    server.deploy(makeBundle());
    server.start();

    net::ServeClient first =
        net::ServeClient::connect(kHost, server.port());
    ASSERT_TRUE(first.ping()); // the slot is definitely taken

    // The surplus connection is answered with an unsolicited typed
    // error frame and closed — read it without sending anything (a
    // send could race the server-side close into a transport error).
    net::ServeClient second =
        net::ServeClient::connect(kHost, server.port());
    const net::Frame rejection = second.readFrame();
    ASSERT_EQ(rejection.type, net::FrameType::Error);
    EXPECT_EQ(rejection.errorKind, "serve.overloaded");

    // Releasing the slot lets new connections in again.
    first.close();
    for (int attempt = 0;; ++attempt) {
        net::ServeClient retry =
            net::ServeClient::connect(kHost, server.port());
        try {
            expectExactlyEqual(retry.predict({1.0, 2.0, 3.0}),
                               server.active()->predict({1.0, 2.0, 3.0}));
            break;
        } catch (const Overloaded &) {
            // The server may not have reaped the first connection yet.
            ASSERT_LT(attempt, 100) << "slot never freed";
            std::this_thread::yield();
        }
    }
    server.stop();
    EXPECT_GE(server.stats().rejectedConnections, 1u);
}

TEST(ServeServerTest, MalformedBytesGetProtocolErrorThenClose)
{
    EventServer server;
    server.deploy(makeBundle());
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    const std::uint8_t garbage[] = {0xB1, 0x42, 0x00, 0x00, 0x00, 0x00};
    client.rawSend(garbage, sizeof(garbage));
    const net::Frame frame = client.readFrame();
    ASSERT_EQ(frame.type, net::FrameType::Error);
    EXPECT_EQ(frame.errorKind, "serve.protocol");
    // The connection is closed after the error frame:
    EXPECT_THROW((void)client.readFrame(), ServeError);

    // ... and the server still serves new connections.
    net::ServeClient next =
        net::ServeClient::connect(kHost, server.port());
    EXPECT_TRUE(next.ping());
    server.stop();
}

TEST(ServeServerTest, HotSwapServesNewModelAndInvalidatesCache)
{
    const BundlePtr first = makeBundle(100);
    const BundlePtr second = makeBundle(200);
    ServeOptions opts;
    opts.cache.capacity = 64;
    EventServer server(opts);
    server.deploy(first);
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    const Vector x{0.5, -1.0, 2.0};
    expectExactlyEqual(client.predict(x), first->predict(x));
    // Warm hit on the first bundle:
    expectExactlyEqual(client.predict(x), first->predict(x));
    EXPECT_GE(server.cacheStats().hits, 1u);

    server.deploy(second);
    // Same key, new model: the swap must have dropped the cached
    // first-bundle answer.
    expectExactlyEqual(client.predict(x), second->predict(x));
    EXPECT_GE(server.cacheStats().invalidations, 1u);
    server.stop();
}

TEST(ServeServerTest, InProcessPredictMatchesWirePredict)
{
    const BundlePtr bundle = makeBundle(7);
    ServeOptions opts;
    opts.cache.capacity = 32;
    EventServer server(opts);
    server.deploy(bundle);
    server.start();

    const Vector x{1.25, 0.5, -0.75};
    const Vector local = server.predict(x);
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    expectExactlyEqual(client.predict(x), local);
    expectExactlyEqual(local, bundle->predict(x));
    server.stop();
}

TEST(ServeServerTest, CoreBuiltFromTemporaryOptionsAnswers)
{
    // The core keeps its own copy of the options, so one built from a
    // temporary still reads them when it answers.
    ServeCore core({});
    const BundlePtr bundle = makeBundle(8);
    core.deploy(bundle);

    const Vector x{1.0, 2.0, 3.0};
    Vector got;
    const ServeCore::OnResult on_result =
        [&got](std::size_t, const Vector &y) { got = y; };
    const ServeCore::OnError on_error = [](std::size_t,
                                           const wcnn::Error &e) {
        ADD_FAILURE() << e.what();
    };
    for (ServeCore::PendingGroup &group :
         core.answerRequestsAsync({x}, on_result, on_error, {}))
        core.finishGroup(group, on_result, on_error);
    expectExactlyEqual(got, bundle->predict(x));
    core.stopBatcher();
}

TEST(ServeServerTest, StopIsIdempotentAndDrains)
{
    EventServer server;
    server.deploy(makeBundle());
    server.start();
    EXPECT_TRUE(server.running());
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    client.sendPredict({1.0, 2.0, 3.0});
    // Graceful drain: the buffered request is still answered.
    const Vector y = client.readPrediction();
    EXPECT_EQ(y.size(), 2u);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent
    // A fresh server can bind again right away (no leaked listener).
    EventServer again;
    again.deploy(makeBundle());
    again.start();
    EXPECT_TRUE(again.running());
    again.stop();
}

TEST(ServeServerTest, PerRequestBaselineModeAnswersIdentically)
{
    // coalesceFrames=false is the bench baseline; it must change
    // performance only, never results.
    const BundlePtr bundle = makeBundle(9);
    ServeOptions opts;
    opts.coalesceFrames = false;
    opts.batch.maxBatch = 1;
    EventServer server(opts);
    server.deploy(bundle);
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    const std::size_t kDepth = 8;
    std::vector<Vector> sent;
    for (std::size_t i = 0; i < kDepth; ++i) {
        const Vector x{static_cast<double>(i), -1.0, 0.5};
        sent.push_back(x);
        client.sendPredict(x);
    }
    for (std::size_t i = 0; i < kDepth; ++i)
        expectExactlyEqual(client.readPrediction(),
                           bundle->predict(sent[i]));
    server.stop();
}

TEST(ServeServerTest, ObserveRoundTripsAndFeedsTheSink)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);

    // The sink sees (x, incumbent prediction, observation) for every
    // accepted record, in wire order.
    struct Seen
    {
        Vector x, predicted, observed;
    };
    std::vector<Seen> seen;
    server.setObservationSink([&seen](const Vector &x,
                                      const Vector &predicted,
                                      const Vector &observed) {
        seen.push_back({x, predicted, observed});
    });
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    client.observe({1.0, 2.0, 3.0}, {4.0, 5.0});
    client.observe({0.5, 0.5, 0.5}, {1.0, 1.0});
    client.close();
    server.stop();

    ASSERT_EQ(seen.size(), 2u);
    expectExactlyEqual(seen[0].x, {1.0, 2.0, 3.0});
    expectExactlyEqual(seen[0].predicted,
                       bundle->predict({1.0, 2.0, 3.0}));
    expectExactlyEqual(seen[0].observed, {4.0, 5.0});
    expectExactlyEqual(seen[1].observed, {1.0, 1.0});
    const ServeStats s = server.stats();
    EXPECT_EQ(s.observations, 2u);
    EXPECT_EQ(s.droppedObservations, 0u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(ServeServerTest, ObserveArityMismatchAnswersTypedAndKeepsServing)
{
    EventServer server;
    server.deploy(makeBundle());
    server.start();
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    // Wrong x arity, then wrong y arity: typed BadRequest both times,
    // and the connection keeps serving afterwards.
    EXPECT_THROW(client.observe({1.0}, {1.0, 2.0}), BadRequest);
    EXPECT_THROW(client.observe({1.0, 2.0, 3.0}, {1.0}), BadRequest);
    client.observe({1.0, 2.0, 3.0}, {1.0, 2.0});
    EXPECT_EQ(client.predict({1.0, 2.0, 3.0}).size(), 2u);
    server.stop();
    EXPECT_EQ(server.stats().observations, 1u);
}

TEST(ServeServerTest, ObserveWithoutModelAnswersTyped)
{
    EventServer server;
    server.start();
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    EXPECT_THROW(client.observe({1.0}, {1.0}), NoModelError);
    server.stop();
}

TEST(ServeServerTest, JsonObserveSharesThePort)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);
    std::vector<Vector> observed;
    server.setObservationSink(
        [&observed](const Vector &, const Vector &, const Vector &o) {
            observed.push_back(o);
        });
    server.start();

    net::TcpStream stream = net::TcpStream::connect(kHost, server.port());
    const std::string lines =
        "{\"op\":\"observe\",\"x\":[1,2,3],\"y\":[7.5,8.5]}\n"
        "{\"op\":\"predict\",\"x\":[1,2,3]}\n";
    stream.writeAll(lines.data(), lines.size());
    const std::vector<std::string> replies = readJsonLines(stream, 2);
    server.stop();

    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0], "{\"ok\":true,\"observed\":true}");
    EXPECT_EQ(replies[1].find("{\"ok\":true,\"y\":["), 0u);
    ASSERT_EQ(observed.size(), 1u);
    expectExactlyEqual(observed[0], {7.5, 8.5});
}

TEST(ServeServerTest, FaultedSinkDropsRecordButStillAcks)
{
    const BundlePtr bundle = makeBundle();
    EventServer server;
    server.deploy(bundle);
    std::size_t calls = 0;
    server.setObservationSink(
        [&calls](const Vector &, const Vector &, const Vector &) {
            if (++calls == 2)
                throw wcnn::serve::ServeError("sink exploded");
        });
    server.start();
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    // All three observes are Acked; the middle record is dropped and
    // counted, invisible to the client.
    client.observe({1.0, 2.0, 3.0}, {1.0, 1.0});
    client.observe({2.0, 2.0, 3.0}, {1.0, 1.0});
    client.observe({3.0, 2.0, 3.0}, {1.0, 1.0});
    server.stop();
    EXPECT_EQ(calls, 3u);
    const ServeStats s = server.stats();
    EXPECT_EQ(s.observations, 3u);
    EXPECT_EQ(s.droppedObservations, 1u);
    EXPECT_EQ(s.errors, 0u);
}
