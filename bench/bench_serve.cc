/**
 * @file
 * Serving throughput bench: per-request baseline vs micro-batching vs
 * micro-batching + prediction cache, at a fixed concurrent load.
 *
 * Three servers are measured with the same deterministic load shape
 * (serve::runTcpLoad, seeded per client):
 *
 *  1. "per-request"   — coalesceFrames off, maxBatch 1, cache off: a
 *                       server with no batching anywhere in its path.
 *  2. "micro-batched" — frame coalescing + batched forwards, cache
 *                       off: isolates the micro-batching win.
 *  3. "cached"        — micro-batching plus the LRU cache, requests
 *                       drawn from a small key pool: adds the cache
 *                       hit-ratio effect.
 *
 * Each mode's throughput and window-RTT percentiles are appended to
 * BENCH_serve.json (common.hh appendJsonRecord) with the speedup
 * over the per-request baseline and the host's hardware thread count
 * (`nproc`), so CI tracks the batching gain release over release.
 * Numbers are host-dependent.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "common.hh"
#include "core/parallel.hh"
#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/event_server.hh"
#include "serve/loadgen.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Rng;
using wcnn::serve::BundlePtr;
using wcnn::serve::EventServer;
using wcnn::serve::LoadgenOptions;
using wcnn::serve::LoadgenReport;
using wcnn::serve::ModelBundle;
using wcnn::serve::ServeOptions;

namespace {

constexpr std::size_t kInputDim = 4;

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

/** Append one mode's record to BENCH_serve.json (valid JSON array). */
void
appendServeRecord(const std::string &mode, const LoadgenOptions &load,
                  const LoadgenReport &report, double speedup)
{
    std::ostringstream record;
    record << "  {\"bench\": \"bench_serve\", \"mode\": \"" << mode
           << "\", \"nproc\": " << wcnn::core::hardwareThreads()
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

LoadgenReport
runMode(ServeOptions opts, const LoadgenOptions &load)
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
    const LoadgenReport report = wcnn::serve::runTcpLoad(
        "127.0.0.1", server.port(), kInputDim, load);
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
    LoadgenOptions load;
    load.clients = argValue(argc, argv, "--clients", 8);
    load.requestsPerClient = argValue(argc, argv, "--requests", 800);
    load.pipeline = argValue(argc, argv, "--pipeline", 64);
    load.seed = argValue(argc, argv, "--seed", 42);

    std::printf("bench_serve: %zu clients x %zu requests, pipeline %zu\n",
                load.clients, load.requestsPerClient, load.pipeline);

    ServeOptions base;
    base.coalesceFrames = false;
    base.batch.maxBatch = 1;
    base.cache.capacity = 0;
    const LoadgenReport per_request = runMode(base, load);
    appendServeRecord("per-request", load, per_request, 1.0);

    ServeOptions batched;
    batched.batch.maxBatch = 128;
    batched.cache.capacity = 0;
    const LoadgenReport micro = runMode(batched, load);
    const double micro_speedup =
        per_request.throughputRps > 0.0
            ? micro.throughputRps / per_request.throughputRps
            : 0.0;
    appendServeRecord("micro-batched", load, micro, micro_speedup);

    ServeOptions cached = batched;
    cached.cache.capacity = 4096;
    LoadgenOptions warm = load;
    warm.keyPoolSize = 32; // small pool: mostly cache hits
    const LoadgenReport hit = runMode(cached, warm);
    const double hit_speedup =
        per_request.throughputRps > 0.0
            ? hit.throughputRps / per_request.throughputRps
            : 0.0;
    appendServeRecord("cached", warm, hit, hit_speedup);

    std::printf("micro-batching speedup at %zu clients: %.2fx\n",
                load.clients, micro_speedup);
    return 0;
}
