/**
 * @file
 * Serving throughput bench: per-request baseline vs micro-batching vs
 * micro-batching + prediction cache, at a fixed concurrent load.
 *
 * Three servers are measured with the same deterministic load shape
 * (runLoad below, seeded per client):
 *
 *  1. "per-request"   — coalesceFrames off, maxBatch 1, cache off: a
 *                       server with no batching anywhere in its path.
 *  2. "micro-batched" — frame coalescing + batched forwards, cache
 *                       off: isolates the micro-batching win.
 *  3. "cached"        — micro-batching plus the LRU cache, requests
 *                       drawn from a small key pool: adds the cache
 *                       hit-ratio effect.
 *
 * One run of a mode lasts tens of milliseconds, so a single scheduler
 * stall on a shared host can halve it. Each mode therefore runs
 * kTrials times, the per-request and micro-batched trials interleaved
 * with the first of the pair alternating, and a record reports the
 * median trial: median throughput and window-RTT percentiles, and the
 * median of the per-trial speedups over the per-request run beside
 * it. Records go to BENCH_serve.json (common.hh appendJsonRecord)
 * with the trial count and the host's hardware thread count
 * (`nproc`), so CI tracks the batching gain release over release.
 * Numbers are host-dependent.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/failpoint.hh"
#include "core/parallel.hh"
#include "core/telemetry.hh"
#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/event_server.hh"
#include "serve/net/client.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Rng;
using wcnn::serve::BundlePtr;
using wcnn::serve::EventServer;
using wcnn::serve::ModelBundle;
using wcnn::serve::ServeOptions;
using wcnn::serve::net::FrameType;
using wcnn::serve::net::ServeClient;

namespace {

constexpr std::size_t kInputDim = 4;

/** Runs per mode; a record reports their median. */
constexpr std::size_t kTrials = 9;

/** Load shape of one run. */
struct Load
{
    std::size_t clients = 8;
    std::size_t requestsPerClient = 800;
    /** Requests in flight per client before its replies are read. */
    std::size_t pipeline = 64;
    /** Client c draws its inputs from Rng::stream(seed, c). */
    std::uint64_t seed = 42;
    /** 0: fresh inputs (cache-cold); n: a per-client pool of n. */
    std::size_t keyPoolSize = 0;
};

/** One run: error replies (or requests lost to a dead connection),
 *  throughput, and window round-trip percentiles. */
struct Report
{
    std::size_t requests = 0;
    std::size_t errors = 0;
    double throughputRps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

wcnn::numeric::Vector
draw(Rng &rng)
{
    wcnn::numeric::Vector x(kInputDim);
    for (double &v : x)
        v = rng.uniform(0.0, 1.0);
    return x;
}

/**
 * Closed-loop load against 127.0.0.1:port. min(clients, 8) worker
 * threads each own the clients with index congruent to theirs and put
 * a window on every one of them before reading any reply, so 64
 * clients are 64 connections with 64 windows in flight, not 64
 * threads contending with the server for a few cores. A reply that is
 * not a prediction (an error frame) counts one error and the
 * connection goes on; a client that cannot connect, or loses its
 * connection, counts every request it got no reply to as an error.
 */
Report
runLoad(std::uint16_t port, const Load &load)
{
    using wcnn::core::telemetry::nowNs;
    const std::size_t n_threads = std::min<std::size_t>(load.clients, 8);
    std::vector<std::vector<double>> latencies(n_threads);
    std::vector<std::size_t> errors(n_threads, 0);
    const std::int64_t start_ns = nowNs();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < n_threads; ++t)
        workers.emplace_back([&, t] {
            struct Client
            {
                Rng rng;
                std::vector<wcnn::numeric::Vector> pool;
                std::optional<ServeClient> conn;
                std::size_t answered = 0;
                std::int64_t t0 = 0;
            };
            std::vector<Client> mine;
            for (std::size_t c = t; c < load.clients; c += n_threads) {
                Client client;
                client.rng = Rng::stream(load.seed, c);
                for (std::size_t k = 0; k < load.keyPoolSize; ++k)
                    client.pool.push_back(draw(client.rng));
                try {
                    client.conn.emplace(
                        ServeClient::connect("127.0.0.1", port));
                } catch (const wcnn::Error &) {
                    // No connection: its quota counts as errors below.
                }
                mine.push_back(std::move(client));
            }
            const auto next_input = [](Client &client) {
                if (client.pool.empty())
                    return draw(client.rng);
                const std::int64_t k = client.rng.uniformInt(
                    0, static_cast<std::int64_t>(client.pool.size()) - 1);
                return client.pool[static_cast<std::size_t>(k)];
            };
            for (std::size_t done = 0; done < load.requestsPerClient;
                 done += load.pipeline) {
                const std::size_t window = std::min(
                    load.pipeline, load.requestsPerClient - done);
                for (Client &client : mine) {
                    client.t0 = nowNs();
                    try {
                        for (std::size_t w = 0; client.conn && w < window;
                             ++w)
                            client.conn->sendPredict(next_input(client));
                    } catch (const wcnn::Error &) {
                        client.conn.reset();
                    }
                }
                for (Client &client : mine) {
                    try {
                        for (std::size_t w = 0; client.conn && w < window;
                             ++w) {
                            if (client.conn->readFrame().type !=
                                FrameType::Response)
                                ++errors[t];
                            ++client.answered;
                        }
                    } catch (const wcnn::Error &) {
                        client.conn.reset();
                    }
                    if (client.conn)
                        latencies[t].insert(
                            latencies[t].end(), window,
                            static_cast<double>(nowNs() - client.t0) /
                                1000.0);
                }
            }
            for (const Client &client : mine)
                errors[t] += load.requestsPerClient - client.answered;
        });
    for (std::thread &worker : workers)
        worker.join();
    const double seconds = static_cast<double>(nowNs() - start_ns) / 1e9;

    Report report;
    report.requests = load.clients * load.requestsPerClient;
    std::vector<double> all;
    for (std::size_t t = 0; t < n_threads; ++t) {
        report.errors += errors[t];
        all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    }
    report.throughputRps =
        seconds > 0.0 ? static_cast<double>(report.requests) / seconds
                      : 0.0;
    std::sort(all.begin(), all.end());
    report.p50Us = percentile(all, 0.50);
    report.p99Us = percentile(all, 0.99);
    return report;
}

BundlePtr
makeBundle()
{
    // Weights are irrelevant to throughput; a deterministic random
    // net of the paper's scale (4 inputs, one hidden layer) is enough.
    Rng rng(1);
    Mlp net(kInputDim,
            {LayerSpec{16, Activation::logistic(1.0)},
             LayerSpec{4, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(net), Standardizer::identity(kInputDim),
        Standardizer::identity(4), {"p0", "p1", "p2", "p3"},
        {"y0", "y1", "y2", "y3"}, "bench"));
}

/** The median trial: field-wise medians, errors summed. */
Report
medianReport(const std::vector<Report> &trials)
{
    std::vector<double> rps, p50, p99;
    Report out = trials.front();
    out.errors = 0;
    for (const Report &r : trials) {
        rps.push_back(r.throughputRps);
        p50.push_back(r.p50Us);
        p99.push_back(r.p99Us);
        out.errors += r.errors;
    }
    out.throughputRps = wcnn::bench::median(rps);
    out.p50Us = wcnn::bench::median(p50);
    out.p99Us = wcnn::bench::median(p99);
    return out;
}

/** Median over trials of a mode's throughput over the per-request
 *  trial run beside it. */
double
medianSpeedup(const std::vector<Report> &mode,
              const std::vector<Report> &per_request)
{
    std::vector<double> ratios;
    for (std::size_t t = 0; t < mode.size(); ++t)
        ratios.push_back(per_request[t].throughputRps > 0.0
                             ? mode[t].throughputRps /
                                   per_request[t].throughputRps
                             : 0.0);
    return wcnn::bench::median(ratios);
}

/** Append one mode's record to BENCH_serve.json (valid JSON array). */
void
appendServeRecord(const std::string &mode, const Load &load,
                  const Report &report, double speedup)
{
    std::ostringstream record;
    record << "  {\"bench\": \"bench_serve\", \"mode\": \"" << mode
           << "\", \"nproc\": " << wcnn::core::hardwareThreads()
           << ", \"trials\": " << kTrials
           << ", \"clients\": " << load.clients
           << ", \"pipeline\": " << load.pipeline
           << ", \"requests\": " << report.requests
           << ", \"errors\": " << report.errors
           << ", \"throughput_rps\": " << report.throughputRps
           << ", \"p50_us\": " << report.p50Us
           << ", \"p99_us\": " << report.p99Us
           << ", \"speedup_vs_per_request\": " << speedup << "}";

    wcnn::bench::appendJsonRecord("BENCH_serve.json", record.str());

    std::printf("[serve] %-13s %8.0f req/s   p50 %8.1f us   "
                "p99 %8.1f us   errors %zu   speedup %.2fx\n",
                mode.c_str(), report.throughputRps, report.p50Us,
                report.p99Us, report.errors, speedup);
}

Report
runMode(ServeOptions opts, const Load &load)
{
    // High client counts must not trip admission control or the SYN
    // backlog: the bench measures serving throughput, not the
    // rejection path and not kernel SYN-retransmit stalls (a 64-way
    // connect storm against backlog 32 costs a 1 s retransmit for
    // the overflow, which would dominate the whole run).
    opts.maxConnections = std::max<std::size_t>(32, load.clients + 8);
    opts.backlog = static_cast<int>(opts.maxConnections);
    EventServer server(std::move(opts));
    server.deploy(makeBundle());
    server.start();
    const Report report = runLoad(server.port(), load);
    server.stop();
    return report;
}

std::size_t
argValue(int argc, char **argv, const char *flag, std::size_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == flag)
            return static_cast<std::size_t>(
                std::strtoul(argv[i + 1], nullptr, 10));
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    auto recorder =
        wcnn::core::telemetry::Recorder::fromArgs(argc, argv);
    // Chaos drills: `--failpoints "site=nth:2"` or WCNN_FAILPOINTS.
    wcnn::core::failpoint::installFromArgs(argc, argv);
    Load load;
    load.clients = argValue(argc, argv, "--clients", load.clients);
    load.requestsPerClient =
        argValue(argc, argv, "--requests", load.requestsPerClient);
    load.pipeline = argValue(argc, argv, "--pipeline", load.pipeline);
    load.seed = argValue(argc, argv, "--seed", load.seed);
    if (load.clients == 0 || load.clients > 1024 || load.pipeline == 0) {
        std::fputs("bench_serve: --clients must be in [1, 1024] and "
                   "--pipeline at least 1\n",
                   stderr);
        return 2;
    }

    std::printf("bench_serve: %zu clients x %zu requests, pipeline %zu\n",
                load.clients, load.requestsPerClient, load.pipeline);

    ServeOptions base;
    base.coalesceFrames = false;
    base.maxBatch = 1;
    base.cache.capacity = 0;
    ServeOptions batched;
    batched.maxBatch = 128;
    batched.cache.capacity = 0;
    ServeOptions cached = batched;
    cached.cache.capacity = 4096;
    Load warm = load;
    warm.keyPoolSize = 32; // small pool: mostly cache hits

    std::vector<Report> per_request, micro, hit;
    for (std::size_t t = 0; t < kTrials; ++t) {
        // Alternate which side of the pair runs first, so a host
        // slowing down or speeding up over the run favours neither.
        if (t % 2 == 0) {
            per_request.push_back(runMode(base, load));
            micro.push_back(runMode(batched, load));
        } else {
            micro.push_back(runMode(batched, load));
            per_request.push_back(runMode(base, load));
        }
        hit.push_back(runMode(cached, warm));
    }
    const double micro_speedup = medianSpeedup(micro, per_request);
    appendServeRecord("per-request", load, medianReport(per_request),
                      1.0);
    appendServeRecord("micro-batched", load, medianReport(micro),
                      micro_speedup);
    appendServeRecord("cached", warm, medianReport(hit),
                      medianSpeedup(hit, per_request));

    std::printf("micro-batching speedup at %zu clients: %.2fx\n",
                load.clients, micro_speedup);
    return 0;
}
