/**
 * @file
 * Shadow invisibility, pinned on the wire: while a candidate is under
 * shadow evaluation, the byte stream every client sees is IDENTICAL
 * to a server with no lifecycle attached.
 *
 * The claim is structural (ServeCore::observe stages its Ack upstream
 * of the observation sink; the candidate predicts only inside the
 * controller and is never deployed mid-shadow), and this suite turns
 * it into the acceptance test: scripted mixed predict/observe traffic
 * is replayed against two servers — lifecycle on and off — and both
 * response streams must be byte-equal, while the lifecycle server is
 * verifiably mid-evaluation (a candidate retrained, Shadowing stage,
 * zero promotions).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lifecycle/controller.hh"
#include "lifecycle/host.hh"
#include "lifecycle_test_util.hh"
#include "serve/event_server.hh"
#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"

namespace {

using namespace wcnn;
using namespace wcnn::lifecycle_test;
namespace net = serve::net;

constexpr const char *kHost = "127.0.0.1";

/**
 * Lifecycle tuning that enters Shadowing fast and stays there: drift
 * after one hot window of 4, and a shadow window far longer than the
 * scripted traffic, so the candidate is under evaluation for the
 * whole observed run.
 */
lifecycle::LifecycleOptions
midShadowOptions()
{
    lifecycle::LifecycleOptions opts = testOptions();
    opts.drift.window = 4;
    opts.drift.patience = 1;
    opts.retrainWindow = 8;
    opts.shadowWindow = 100000;
    return opts;
}

/** The scripted binary byte stream: pipelined predicts and observes
 *  with drifted observations. */
net::Bytes
buildBinaryScript()
{
    net::Bytes all;
    numeric::Rng rng(77);
    const auto append = [&all](const net::Bytes &piece) {
        all.insert(all.end(), piece.begin(), piece.end());
    };
    // Enough drifted observations to trigger drift + retrain well
    // before the script ends, predicts interleaved throughout.
    for (int i = 0; i < 24; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        append(net::encodeRequest({a, b}));
        append(net::encodeObserve({a, b}, {driftedSurface(a, b)}));
    }
    // A bad observe (wrong dims) must produce the same typed error
    // with or without a sink attached.
    append(net::encodeObserve({1.0, 2.0, 3.0}, {1.0}));
    return all;
}

/** JSON spellings of both ops (a connection locks its framing mode on
 *  the first byte, so JSON traffic gets its own connection). */
net::Bytes
buildJsonScript()
{
    const std::string json =
        "{\"op\":\"observe\",\"x\":[0.5,0.5],\"y\":[9.5]}\n"
        "{\"op\":\"predict\",\"x\":[0.25,0.75]}\n";
    return net::Bytes(json.begin(), json.end());
}

/** Write the script, half-close, slurp the reply stream to EOF. */
net::Bytes
runClient(std::uint16_t port, const net::Bytes &script)
{
    net::TcpStream stream = net::TcpStream::connect(kHost, port);
    stream.writeAll(script.data(), script.size());
    stream.shutdownWrite();
    net::Bytes reply;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while (stream.readSome(buf, sizeof(buf), n, 10000) ==
           net::ReadStatus::Data)
        reply.insert(reply.end(), buf, buf + n);
    return reply;
}

TEST(LifecycleShadowEquivalence, ShadowingIsInvisibleOnTheWire)
{
    const auto incumbent = makeIncumbent();
    const net::Bytes binary_script = buildBinaryScript();
    const net::Bytes json_script = buildJsonScript();

    net::Bytes baseline;
    bool have_baseline = false;

    for (const bool lifecycle_on : {false, true}) {
        SCOPED_TRACE(lifecycle_on ? "lifecycle" : "no lifecycle");
        serve::EventServer server;
        server.deploy(incumbent);

        std::unique_ptr<lifecycle::EngineHost> host;
        std::unique_ptr<lifecycle::LifecycleController> controller;
        if (lifecycle_on) {
            host = std::make_unique<lifecycle::EngineHost>(server);
            controller =
                std::make_unique<lifecycle::LifecycleController>(
                    *host, midShadowOptions());
            lifecycle::LifecycleController &ctl = *controller;
            server.setObservationSink(
                [&ctl](const numeric::Vector &x,
                       const numeric::Vector &p,
                       const numeric::Vector &o) {
                    ctl.record(x, p, o);
                });
        }

        server.start();
        net::Bytes reply = runClient(server.port(), binary_script);
        const net::Bytes json_reply =
            runClient(server.port(), json_script);
        reply.insert(reply.end(), json_reply.begin(),
                     json_reply.end());
        server.stop();

        if (!have_baseline) {
            baseline = reply;
            have_baseline = true;
            ASSERT_FALSE(baseline.empty());
        } else {
            EXPECT_EQ(reply, baseline)
                << "reply stream diverged from the no-lifecycle "
                   "baseline";
        }

        if (lifecycle_on) {
            // The invisibility claim only counts if a candidate
            // really was mid-evaluation while the bytes flowed.
            EXPECT_EQ(controller->stage(),
                      lifecycle::Stage::Shadowing);
            const auto stats = controller->stats();
            EXPECT_EQ(stats.drifts, 1u);
            EXPECT_EQ(stats.retrains, 1u);
            EXPECT_EQ(stats.promotions, 0u);
            // The bad-dims observe was rejected upstream of the
            // sink; JSON + binary good observes all arrived.
            EXPECT_EQ(stats.records, 25u);
            EXPECT_EQ(server.stats().droppedObservations, 0u);
        }
    }
}

TEST(LifecycleShadowEquivalence, PromotionChangesPredictionsAtomically)
{
    // Counterpoint: once the shadow window *does* close and the
    // candidate wins, predictions change — proving the invariance
    // above was the shadow stage, not a disconnected controller.
    const auto incumbent = makeIncumbent();
    serve::EventServer server;
    server.deploy(incumbent);
    lifecycle::EngineHost host(server);
    lifecycle::LifecycleController controller(host, testOptions());
    server.setObservationSink(
        [&controller](const numeric::Vector &x,
                      const numeric::Vector &p,
                      const numeric::Vector &o) {
            controller.record(x, p, o);
        });
    server.start();

    const numeric::Vector probe{0.5, 0.5};
    const numeric::Vector before = server.predict(probe);

    net::TcpStream stream =
        net::TcpStream::connect(kHost, server.port());
    numeric::Rng rng(78);
    for (int i = 0; i < 56; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        const net::Bytes frame =
            net::encodeObserve({a, b}, {driftedSurface(a, b)});
        stream.writeAll(frame.data(), frame.size());
    }
    stream.shutdownWrite();
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while (stream.readSome(buf, sizeof(buf), n, 10000) ==
           net::ReadStatus::Data) {
    }

    EXPECT_EQ(controller.stats().promotions, 1u);
    EXPECT_EQ(server.version(), 2u);
    const numeric::Vector after = server.predict(probe);
    server.stop();
    EXPECT_NE(before, after);
    EXPECT_LT(lifecycle::relativeError(
                  after, {driftedSurface(probe[0], probe[1])}),
              lifecycle::relativeError(
                  before, {driftedSurface(probe[0], probe[1])}));
}

} // namespace
