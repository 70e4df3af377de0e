/**
 * @file
 * Fault injection against the inference server. The serving
 * contract under chaos — pinned here — is blast-radius
 * containment: a fault at any WCNN_FAILPOINT site (serve.accept /
 * serve.read / serve.decode / serve.predict / serve.write) costs at
 * most the affected request or connection; the server keeps
 * accepting, later connections are served exactly, and stop() still
 * drains gracefully. A randomized multi-site sweep hammers the server
 * through all sites at once and then proves full recovery after the
 * faults are disarmed.
 *
 * On the event-loop server the containment contract sharpens into
 * "one poisoned connection never kills its shard loop" — a shard
 * multiplexes many connections onto one thread, so a leaked
 * exception there would take innocent connections down with it. The
 * bystander scenarios connect kBystanders clients before the
 * poisoned one: the server runs at most 8 shard loops and assigns
 * connections round-robin, so at least one bystander shares the
 * poisoned connection's loop at any shard count, which makes that
 * exact mistake fatal.
 *
 * Failpoint scenarios need library-side injection sites, so they
 * skip when the serve library was built with WCNN_NO_FAILPOINTS.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.hh"
#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/event_server.hh"
#include "serve/net/client.hh"

namespace fp = wcnn::core::failpoint;
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

class ChaosServeTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::reset(); }
    void TearDown() override { fp::reset(); }

    std::unique_ptr<EventServer> newServer(ServeOptions opts = {})
    {
        return std::make_unique<EventServer>(std::move(opts));
    }
};

// GTEST_SKIP() only returns from the enclosing function, so the guard
// must expand inside the test body itself.
#define REQUIRE_LIBRARY_FAILPOINTS()                                   \
    do {                                                               \
        if (!fp::compiledIn())                                         \
            GTEST_SKIP() << "library built with WCNN_NO_FAILPOINTS";   \
    } while (0)

BundlePtr
makeBundle(std::uint64_t seed = 1)
{
    Rng rng(seed);
    Mlp mlp(3,
            {LayerSpec{6, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(mlp), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "b", "c"}, {"u", "v"},
        "chaos"));
}

const Vector kX{1.0, -0.5, 2.0};

/** One bystander connection per possible shard loop (at most 8). */
constexpr std::size_t kBystanders = 8;

/** A fresh connection must answer exactly (post-fault recovery). */
void
expectServesExactly(EventServer &server, const BundlePtr &bundle)
{
    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port());
    const Vector got = client.predict(kX);
    const Vector want = bundle->predict(kX);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], want[j]);
}

} // namespace

TEST_F(ChaosServeTest, PredictFaultAnswersTypedAndConnectionSurvives)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server->port());
    fp::armFromSpec("serve.predict=nth:2");
    // Distinct inputs: a repeated input would be a cache hit and
    // never reach the batcher (and so never hit the failpoint).
    (void)client.predict({1.0, 0.0, 0.0}); // hit 1: clean
    EXPECT_THROW((void)client.predict({2.0, 0.0, 0.0}),
                 ServeError); // hit 2: fires
    // The error was typed, not a transport fault: the SAME connection
    // keeps working, and so does the batcher.
    const Vector probe{3.0, 0.0, 0.0};
    const Vector got = client.predict(probe);
    const Vector want = bundle->predict(probe);
    for (std::size_t j = 0; j < want.size(); ++j)
        EXPECT_EQ(got[j], want[j]);
    EXPECT_EQ(fp::fires("serve.predict"), 1u);
    server->stop();
}

TEST_F(ChaosServeTest, ReadFaultCostsOnlyThatConnection)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    fp::armFromSpec("serve.read=nth:1");
    net::ServeClient client =
        net::ServeClient::connect(kHost, server->port());
    // The injected read fault kills the connection at the first read
    // attempt; within two calls the client must see a transport
    // failure.
    bool faulted = false;
    for (int i = 0; i < 2 && !faulted; ++i) {
        try {
            (void)client.predict(kX);
        } catch (const ServeError &) {
            faulted = true;
        }
    }
    EXPECT_TRUE(faulted);
    EXPECT_EQ(fp::fires("serve.read"), 1u);

    fp::reset();
    expectServesExactly(*server, bundle); // the server survived
    server->stop();
}

TEST_F(ChaosServeTest, DecodeFaultCostsOnlyThatConnection)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    fp::armFromSpec("serve.decode=nth:1");
    net::ServeClient client =
        net::ServeClient::connect(kHost, server->port());
    EXPECT_THROW((void)client.predict(kX), ServeError);

    fp::reset();
    expectServesExactly(*server, bundle);
    server->stop();
}

TEST_F(ChaosServeTest, WriteFaultCostsOnlyThatConnection)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    fp::armFromSpec("serve.write=nth:1");
    net::ServeClient client =
        net::ServeClient::connect(kHost, server->port());
    // The answer is computed but its write faults: the client sees
    // the connection die, never a wrong result.
    EXPECT_THROW((void)client.predict(kX), ServeError);

    fp::reset();
    expectServesExactly(*server, bundle);
    server->stop();
}

TEST_F(ChaosServeTest, AcceptFaultDropsOneConnectionThenRecovers)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    fp::armFromSpec("serve.accept=nth:1");
    net::ServeClient dropped =
        net::ServeClient::connect(kHost, server->port());
    EXPECT_THROW((void)dropped.predict(kX), ServeError);
    EXPECT_EQ(fp::fires("serve.accept"), 1u);

    // nth:1 is exhausted: the very next connection is served.
    expectServesExactly(*server, bundle);
    server->stop();
}

/**
 * The event-loop sharpening of blast-radius containment: a peer that
 * sends wire garbage gets its typed protocol error and its close —
 * while the other connections, at least one of them multiplexed on
 * the very same loop thread, keep being served exactly.
 */
TEST_F(ChaosServeTest, PoisonedConnectionNeverKillsItsShardLoop)
{
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    // One bystander per possible shard: the poisoned connection's
    // shard serves at least one of them.
    std::vector<net::ServeClient> bystanders;
    for (std::size_t i = 0; i < kBystanders; ++i)
        bystanders.push_back(
            net::ServeClient::connect(kHost, server->port()));

    net::ServeClient poisoned =
        net::ServeClient::connect(kHost, server->port());
    const char garbage[] = "\xde\xad\xbe\xef not a frame";
    poisoned.rawSend(garbage, sizeof(garbage) - 1);
    // The poisoned peer gets a typed protocol error, then the close.
    const net::Frame answer = poisoned.readFrame();
    EXPECT_EQ(answer.type, net::FrameType::Error);
    EXPECT_EQ(answer.errorKind, "serve.protocol");
    EXPECT_THROW((void)poisoned.readFrame(), ServeError);

    // Every bystander, on its shard or another, still gets exact
    // answers.
    for (net::ServeClient &client : bystanders) {
        const Vector got = client.predict(kX);
        const Vector want = bundle->predict(kX);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(got[j], want[j]);
    }
    EXPECT_GE(server->stats().errors, 1u);
    server->stop();
}

/** Same bystander setup, but the poison is an injected decode fault
 *  instead of wire garbage. */
TEST_F(ChaosServeTest, DecodePoisonLeavesShardServingBystanders)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    auto server = newServer();
    server->deploy(bundle);
    server->start();

    // Warm every bystander so its connection is fully established and
    // mode-detected before the fault arms.
    std::vector<net::ServeClient> bystanders;
    for (std::size_t i = 0; i < kBystanders; ++i) {
        bystanders.push_back(
            net::ServeClient::connect(kHost, server->port()));
        (void)bystanders.back().predict(kX);
    }

    fp::armFromSpec("serve.decode=nth:1");
    net::ServeClient poisoned =
        net::ServeClient::connect(kHost, server->port());
    EXPECT_THROW((void)poisoned.predict(kX), ServeError);
    EXPECT_EQ(fp::fires("serve.decode"), 1u);
    fp::reset();

    // The poisoned connection's shard loop survived the fault, and so
    // did every other one.
    const Vector probe{0.25, 0.5, -0.75};
    const Vector want = bundle->predict(probe);
    for (net::ServeClient &client : bystanders) {
        const Vector got = client.predict(probe);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(got[j], want[j]);
    }
    server->stop();
}

TEST_F(ChaosServeTest, MultiSiteChaosSweepNeverKillsTheServer)
{
    REQUIRE_LIBRARY_FAILPOINTS();
    const BundlePtr bundle = makeBundle();
    ServeOptions opts;
    opts.cache.capacity = 128;
    auto server = newServer(opts);
    server->deploy(bundle);
    server->start();

    // Every site at once, seeded probabilistic triggers (replayable).
    fp::armFromSpec("serve.accept=prob:0.05:11;"
                    "serve.read=prob:0.03:12;"
                    "serve.decode=prob:0.03:13;"
                    "serve.predict=prob:0.08:14;"
                    "serve.write=prob:0.03:15");

    const std::size_t kClients = 3;
    const int kRequests = 60;
    std::vector<std::thread> threads;
    std::vector<int> answered(kClients, 0);
    std::vector<std::string> wrong(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Rng rng = Rng::stream(31, c);
            std::unique_ptr<net::ServeClient> client;
            for (int i = 0; i < kRequests; ++i) {
                const Vector x{rng.uniform(-2, 2), rng.uniform(-2, 2),
                               rng.uniform(-2, 2)};
                try {
                    if (!client)
                        client = std::make_unique<net::ServeClient>(
                            net::ServeClient::connect(
                                kHost, server->port()));
                    const Vector got = client->predict(x);
                    const Vector want = bundle->predict(x);
                    if (got.size() != want.size()) {
                        wrong[c] = "size mismatch";
                        return;
                    }
                    for (std::size_t j = 0; j < want.size(); ++j)
                        if (got[j] != want[j]) {
                            wrong[c] = "bit mismatch";
                            return;
                        }
                    ++answered[c];
                } catch (const wcnn::Error &) {
                    // Injected fault: reconnect and continue. A wrong
                    // answer is a failure; a typed/transport error is
                    // the contract working.
                    client.reset();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(wrong[c], "") << "client " << c;

    // Chaos must not have been a no-op, and some traffic got through.
    std::uint64_t total_fires = 0;
    for (const fp::SiteReport &site : fp::report())
        total_fires += site.fires;
    EXPECT_GT(total_fires, 0u);
    int total_answered = 0;
    for (std::size_t c = 0; c < kClients; ++c)
        total_answered += answered[c];
    EXPECT_GT(total_answered, 0);

    // Full recovery once disarmed, then a graceful drain.
    fp::reset();
    expectServesExactly(*server, bundle);
    server->stop();
    EXPECT_FALSE(server->running());
}
