/**
 * @file
 * Open-loop load generator for the `serve_cold` and `serve_hot`
 * workloads.
 *
 * Everything the timed phase sends is drawn from --seed before any
 * connection opens: a Poisson arrival schedule at kRateRps over
 * --seconds, a connection per arrival (uniform over kConnections),
 * and each request's payload. One sending thread writes each request
 * at its scheduled time; each connection has a reader thread, because
 * ServeClient reads block. Latency runs from the scheduled send to the
 * reply, so a late send or a stalled server both count.
 *
 * Protocol with run.py (stdin commands, stdout replies):
 *   connect PORT -> opens the connections, pings each, prints `connected`
 *   close        -> closes them, prints `closed`
 *   go           -> warm-up, timed phase, verification, `result {json}`;
 *                   connect / close are answered again until stdin ends
 *
 * After the timed phase every predict reply is checked bit for bit
 * against ModelBundle::predict on the served bundle (--bundle); a
 * mismatch, an error frame or a missing reply counts as a failed
 * request.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hh"
#include "modes.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/net/client.hh"
#include "serve/net/protocol.hh"
#include "sim/sample_space.hh"

namespace perfbench {

namespace {

using namespace wcnn;
namespace telemetry = core::telemetry;
using serve::net::ServeClient;

/** Offered load: Poisson arrivals per second, over this many
 *  connections. */
constexpr double kRateRps = 20000;
constexpr std::size_t kConnections = 4;
/** serve_hot: distinct configurations requested again and again. */
constexpr std::size_t kHotPool = 1024;
/** serve_hot: share of predicts drawn from the hot pool. */
constexpr double kHotShare = 0.95;
/**
 * serve_hot: share of connection 0's requests that are observes, so 1
 * request in 16 overall is an observe when there are 4 connections.
 */
constexpr double kObserveShareConn0 = 0.25;
/** serve_hot: observed values are the prediction times 1 +- this. */
constexpr double kObserveNoise = 0.05;
/** Requests sent before the timed phase, to fill caches and arenas. */
constexpr std::size_t kWarmup = 1024;
/** Reply timeout per read. */
constexpr int kTimeoutMs = 5000;

/** One uniform draw over the paper's sample space. */
numeric::Vector
drawConfig(numeric::Rng &rng)
{
    const sim::SampleSpace space = sim::SampleSpace::paperLike();
    const auto axis = [&rng](const sim::ParameterRange &r) {
        return r.integral
                   ? static_cast<double>(rng.uniformInt(
                         static_cast<std::int64_t>(r.lo),
                         static_cast<std::int64_t>(r.hi)))
                   : rng.uniform(r.lo, r.hi);
    };
    return {axis(space.injectionRate), axis(space.defaultQueue),
            axis(space.mfgQueue), axis(space.webQueue)};
}

/** One scheduled request. */
struct Request
{
    /** Due time relative to the phase start. */
    std::int64_t dueNs = 0;
    std::size_t conn = 0;
    bool observe = false;
    numeric::Vector x;
    /** Observed values (observes only). */
    numeric::Vector y;
};

/** The seeded plan of one run. */
struct Plan
{
    std::vector<Request> requests;
    /** Request indices per connection, in send order. */
    std::vector<std::vector<std::size_t>> perConn;
    /** Configurations sent before the timed phase. */
    std::vector<numeric::Vector> warmup;
};

Plan
makePlan(bool hot, std::uint64_t seed, double run_s,
         const serve::ModelBundle &bundle)
{
    numeric::Rng arrivals = numeric::Rng::stream(seed, 0);
    numeric::Rng payload = numeric::Rng::stream(seed, 1);
    numeric::Rng pool_rng = numeric::Rng::stream(seed, 2);
    Plan plan;
    for (std::size_t i = 0; i < kWarmup; ++i)
        plan.warmup.push_back(drawConfig(pool_rng));
    plan.perConn.resize(kConnections);
    const double mean_gap_ns = 1e9 / kRateRps;
    const double end_ns = run_s * 1e9;
    double t = 0.0;
    while (true) {
        t += arrivals.exponential(mean_gap_ns);
        if (t >= end_ns)
            break;
        Request r;
        r.dueNs = static_cast<std::int64_t>(t);
        r.conn = static_cast<std::size_t>(arrivals.uniformInt(
            0, static_cast<std::int64_t>(kConnections) - 1));
        if (hot && r.conn == 0 && payload.bernoulli(kObserveShareConn0)) {
            r.observe = true;
            r.x = drawConfig(payload);
            r.y = bundle.predict(r.x);
            for (double &v : r.y)
                v *= 1.0 + payload.uniform(-kObserveNoise, kObserveNoise);
        } else if (hot && payload.bernoulli(kHotShare)) {
            r.x = plan.warmup[static_cast<std::size_t>(payload.uniformInt(
                0, static_cast<std::int64_t>(kHotPool) - 1))];
        } else {
            r.x = drawConfig(payload);
        }
        plan.perConn[r.conn].push_back(plan.requests.size());
        plan.requests.push_back(std::move(r));
    }
    return plan;
}

/**
 * Sleep until the steady clock is within kSpinNs of due_ns, then spin.
 * Sleeping keeps the generator off the cores the server needs; its
 * wake-up delay shows as lateness.
 */
void
waitUntil(std::int64_t due_ns)
{
    constexpr std::int64_t kSpinNs = 20000;
    while (true) {
        const std::int64_t left = due_ns - telemetry::nowNs();
        if (left <= 0)
            return;
        if (left > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - kSpinNs));
    }
}

/**
 * Each one-second window's (by scheduled time) q-quantile latency.
 */
std::vector<double>
windowQuantiles(const std::vector<std::int64_t> &due_ns,
                const std::vector<double> &latency_ms, double q)
{
    std::vector<std::vector<double>> windows;
    for (std::size_t j = 0; j < due_ns.size(); ++j) {
        const auto w = static_cast<std::size_t>(due_ns[j] / 1000000000);
        if (w >= windows.size())
            windows.resize(w + 1);
        windows[w].push_back(latency_ms[j]);
    }
    std::vector<double> per_window;
    for (std::vector<double> &w : windows) {
        if (w.empty())
            continue;
        std::sort(w.begin(), w.end());
        per_window.push_back(quantile(w, q));
    }
    return per_window;
}

/** JSON array of doubles at four decimals, for the detail line. */
std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", values[i]);
        out += buf;
    }
    return out + "]";
}

/** What came back for one request. */
struct Outcome
{
    std::int64_t sentNs = 0;
    std::int64_t replyNs = 0;
    bool answered = false;
    numeric::Vector values;
};

/**
 * Read connection c's replies in send order until all arrived or the
 * connection fails; a failure leaves the rest unanswered.
 */
void
readReplies(ServeClient &client, const Plan &plan, std::size_t c,
            std::vector<Outcome> &out, std::atomic<std::size_t> &errors)
{
    for (const std::size_t j : plan.perConn[c]) {
        try {
            serve::net::Frame frame = client.readFrame();
            out[j].replyNs = telemetry::nowNs();
            const bool want_ack = plan.requests[j].observe;
            if (frame.type == (want_ack ? serve::net::FrameType::Ack
                                        : serve::net::FrameType::Response)) {
                out[j].answered = true;
                out[j].values = std::move(frame.values);
            } else {
                errors.fetch_add(1);
            }
        } catch (const serve::ServeError &e) {
            std::fprintf(stderr, "loadgen: connection %zu: %s\n", c,
                         e.what());
            errors.fetch_add(1);
            return;
        }
    }
}

/** Sorted copy. */
std::vector<double>
sorted(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/**
 * Answer run.py's set-up commands until `go` (returns true) or the end
 * of input (false): `connect PORT` opens the connections and pings each,
 * `close` closes them.
 */
bool
handleCommands(std::vector<ServeClient> &clients, std::uint16_t &port)
{
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.rfind("connect ", 0) == 0) {
            port = static_cast<std::uint16_t>(std::stoul(line.substr(8)));
            clients.clear();
            bool pinged = true;
            for (std::size_t c = 0; c < kConnections; ++c) {
                clients.push_back(
                    ServeClient::connect("127.0.0.1", port, kTimeoutMs));
                pinged = clients.back().ping() && pinged;
            }
            std::printf(pinged ? "connected\n" : "ping-failed\n");
        } else if (line == "close") {
            clients.clear();
            std::printf("closed\n");
        } else if (line == "go") {
            return true;
        } else {
            throw std::runtime_error("unknown command: " + line);
        }
        std::fflush(stdout);
    }
    return false;
}

} // namespace

int
runLoadgen(const Args &args)
{
    const std::string workload = args.str("workload");
    const bool hot = workload == "serve_hot";
    if (!hot && workload != "serve_cold")
        throw std::runtime_error("unknown serving workload " + workload);
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    const double run_s = args.num("seconds", 10);
    const bool traced = args.num("trace", 0) != 0.0;
    const serve::ModelBundle bundle =
        serve::ModelBundle::load(args.str("bundle"));

    const Plan plan =
        makePlan(hot, seed, run_s, bundle);
    std::vector<serve::net::Bytes> observe_frames(plan.requests.size());
    for (std::size_t j = 0; j < plan.requests.size(); ++j)
        if (plan.requests[j].observe)
            observe_frames[j] = serve::net::encodeObserve(
                plan.requests[j].x, plan.requests[j].y);
    // Sleep wake-ups to the microsecond rather than the default 50 us
    // timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    std::vector<ServeClient> clients;
    std::uint16_t port = 0;
    std::printf("gen-ready\n");
    std::fflush(stdout);
    if (!handleCommands(clients, port) || clients.size() != kConnections)
        throw std::runtime_error("go before connect");

    // Warm-up: each warm-up configuration once, spread over the
    // connections. In serve_hot these are the hot pool.
    std::size_t warm_failed = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
        std::vector<std::size_t> mine;
        for (std::size_t i = c; i < plan.warmup.size(); i += kConnections)
            mine.push_back(i);
        for (const std::size_t i : mine)
            clients[c].sendPredict(plan.warmup[i]);
        for (const std::size_t i : mine)
            warm_failed += sameBits(clients[c].readPrediction(),
                                    bundle.predict(plan.warmup[i]))
                               ? 0
                               : 1;
    }

    // Timed phase.
    const std::size_t n = plan.requests.size();
    std::vector<Outcome> out(n);
    std::atomic<std::size_t> errors{0};
    std::atomic<bool> sending{true};
    // Each connection's reader thread owns its ServeClient's read side
    // (readFrame and the receive buffer); the sending thread only writes
    // whole frames to the socket (sendPredict, rawSend).
    std::vector<std::thread> readers;
    for (std::size_t c = 0; c < kConnections; ++c)
        readers.emplace_back([&, c] {
            readReplies(clients[c], plan, c, out, errors);
        });
    std::vector<double> ping_us;
    std::thread pinger;
    std::unique_ptr<ServeClient> ping_client;
    SpanLog spans;
    if (traced) {
        // A connection that carries nothing but pings.
        ping_client = std::make_unique<ServeClient>(
            ServeClient::connect("127.0.0.1", port, kTimeoutMs));
        pinger = std::thread([&] {
            const std::int64_t root = spans.open("ping");
            while (sending.load()) {
                const std::int64_t a = telemetry::nowNs();
                ScopedSpan span(&spans, "net::ServeClient::ping", root);
                if (ping_client->ping())
                    ping_us.push_back(
                        static_cast<double>(telemetry::nowNs() - a) * 1e-3);
                waitUntil(a + 1000000);
            }
            spans.close(root);
        });
    }
    const double cpu0 = processCpuSeconds();
    const std::int64_t base = telemetry::nowNs() + 2000000;
    std::size_t send_failed = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const Request &r = plan.requests[j];
        waitUntil(base + r.dueNs);
        out[j].sentNs = telemetry::nowNs();
        try {
            if (r.observe)
                clients[r.conn].rawSend(observe_frames[j].data(),
                                        observe_frames[j].size());
            else
                clients[r.conn].sendPredict(r.x);
        } catch (const serve::ServeError &e) {
            std::fprintf(stderr, "loadgen: send %zu: %s\n", j, e.what());
            send_failed += 1;
        }
    }
    for (std::thread &t : readers)
        t.join();
    sending.store(false);
    if (pinger.joinable())
        pinger.join();
    const double cpu_s = processCpuSeconds() - cpu0;

    // Verify every predict reply against in-process prediction.
    std::vector<double> latency_ms, observe_us, late_us;
    std::vector<std::int64_t> due_ns;
    std::size_t correct = 0, mismatched = 0, observes = 0;
    std::int64_t last_reply = base;
    for (std::size_t j = 0; j < n; ++j) {
        const Request &r = plan.requests[j];
        const Outcome &o = out[j];
        const std::int64_t due = base + r.dueNs;
        late_us.push_back(static_cast<double>(o.sentNs - due) * 1e-3);
        observes += r.observe ? 1 : 0;
        bool ok = o.answered;
        if (ok && !r.observe && !sameBits(o.values, bundle.predict(r.x))) {
            ok = false;
            mismatched += 1;
        }
        // A failed request misses every latency limit: it reads as the
        // whole phase plus the reply timeout.
        const double ms = ok ? static_cast<double>(o.replyNs - due) * 1e-6
                             : run_s * 1e3 + kTimeoutMs;
        latency_ms.push_back(ms);
        due_ns.push_back(r.dueNs);
        if (r.observe)
            observe_us.push_back(ms * 1e3);
        if (ok) {
            correct += 1;
            last_reply = std::max(last_reply, o.replyNs);
        }
        if (traced)
            spans.add(Span{r.observe ? "request.observe" : "request.predict",
                           due, o.answered ? o.replyNs : due, -1,
                           static_cast<std::int64_t>(j)});
    }
    const std::vector<double> window_p50 =
        windowQuantiles(due_ns, latency_ms, 0.50);
    const std::vector<double> window_p99 =
        windowQuantiles(due_ns, latency_ms, 0.99);
    const std::vector<double> window_late =
        windowQuantiles(due_ns, late_us, 0.99);
    // p50: the median window. p99: the quietest window, because host
    // interference lasting seconds lifts the tail of most windows of a
    // run now and then; the whole-phase p99 is reported beside it.
    const double p50_ms = quantile(sorted(window_p50), 0.50);
    const double p99_ms = sorted(window_p99).front();
    latency_ms = sorted(std::move(latency_ms));
    late_us = sorted(std::move(late_us));
    observe_us = sorted(std::move(observe_us));
    ping_us = sorted(std::move(ping_us));

    JsonObject result;
    result.count("attempted", n);
    result.count("failed", n - correct);
    result.count("correct_replies", correct);
    result.count("mismatched", mismatched);
    result.count("error_frames", errors.load());
    result.count("send_failed", send_failed);
    result.count("warmup_mismatched", warm_failed);
    result.count("observes", observes);
    result.num("p50_ms", p50_ms);
    result.num("p99_ms", p99_ms);
    result.num("p50_ms_overall", quantile(latency_ms, 0.50));
    result.num("p99_ms_overall", quantile(latency_ms, 0.99));
    result.raw("window_p99_ms", jsonArray(window_p99));
    result.raw("window_late_p99_us", jsonArray(window_late));
    result.num("throughput_rps", static_cast<double>(correct) / run_s);
    result.num("wall_s", seconds(base, last_reply));
    result.num("late_us_p50", quantile(late_us, 0.50));
    result.num("late_us_p99", quantile(late_us, 0.99));
    result.num("late_us_max", late_us.empty() ? 0.0 : late_us.back());
    result.num("cpu_s", cpu_s);
    result.num("observe_us_p50", quantile(observe_us, 0.50));
    if (traced) {
        result.count("pings", ping_us.size());
        result.num("ping_us_p50", quantile(ping_us, 0.50));
        result.num("ping_us_p99", quantile(ping_us, 0.99));
        const std::string trace_out = args.str("trace-out", "");
        if (!trace_out.empty())
            spans.writeJsonl(trace_out);
    }
    std::printf("result %s\n", result.text().c_str());
    std::fflush(stdout);
    // More set-up measurements may follow the timed phase.
    clients.clear();
    handleCommands(clients, port);
    return 0;
}

} // namespace perfbench
