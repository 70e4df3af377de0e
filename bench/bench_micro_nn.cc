/**
 * @file
 * google-benchmark microbenchmarks of the NN substrate: forward and
 * backward passes (per-sample and batched), full training epochs, and
 * the matrix kernels they sit on, each reporting GFLOP/s and bytes
 * moved alongside wall time. Accepts `--threads N` (stripped before
 * benchmark::Initialize). Also appends a serial-vs-parallel
 * batched-forward measurement to BENCH_parallel.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>

#include "core/parallel.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "nn/loss.hh"
#include "nn/mlp.hh"
#include "nn/trainer.hh"
#include "numeric/rng.hh"
#include "parallel_report.hh"

using namespace wcnn;

namespace {

nn::Mlp
makeNet(std::size_t hidden, numeric::Rng &rng)
{
    return nn::Mlp(4,
                   {nn::LayerSpec{hidden, nn::Activation::logistic(1.0)},
                    nn::LayerSpec{5, nn::Activation::identity()}},
                   nn::InitRule::Xavier, rng);
}

/** Nominal multiply-add flops of one forward pass of makeNet(). */
double
forwardFlops(std::size_t hidden)
{
    return 2.0 * (4 * hidden + hidden * 5) +
           static_cast<double>(hidden + 5);
}

/** Nominal parameter + activation bytes of one forward pass. */
double
forwardBytes(std::size_t hidden)
{
    return static_cast<double>((4 * hidden + hidden + hidden * 5 + 5 +
                                4 + hidden + 5) *
                               sizeof(double));
}

/** Attach rate counters so every bench reports GFLOP/s and bytes/s. */
void
setRates(benchmark::State &state, double flops_per_iter,
         double bytes_per_iter)
{
    state.counters["FLOP/s"] = benchmark::Counter(
        flops_per_iter * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.SetBytesProcessed(static_cast<std::int64_t>(
        bytes_per_iter * static_cast<double>(state.iterations())));
}

} // namespace

static void
BM_MatrixMultiply(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    numeric::Rng rng(1);
    const auto a = numeric::Matrix::random(n, n, rng, -1, 1);
    const auto b = numeric::Matrix::random(n, n, rng, -1, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a * b);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * n * n * n));
    setRates(state, 2.0 * n * n * n,
             3.0 * n * n * sizeof(double));
}
BENCHMARK(BM_MatrixMultiply)->Arg(16)->Arg(64)->Arg(128);

static void
BM_MlpForward(benchmark::State &state)
{
    numeric::Rng rng(2);
    const nn::Mlp net =
        makeNet(static_cast<std::size_t>(state.range(0)), rng);
    const numeric::Vector x{0.1, -0.5, 1.2, 0.3};
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(x));
    }
    state.SetItemsProcessed(state.iterations());
    const auto hidden = static_cast<std::size_t>(state.range(0));
    setRates(state, forwardFlops(hidden), forwardBytes(hidden));
}
BENCHMARK(BM_MlpForward)->Arg(8)->Arg(16)->Arg(64);

static void
BM_MlpForwardBatched(benchmark::State &state)
{
    // The matrix overload the surface sweeps use: same math as the
    // per-row forward, minus the per-row vector allocations.
    numeric::Rng rng(2);
    const nn::Mlp net = makeNet(16, rng);
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const auto xs = numeric::Matrix::random(rows, 4, rng, -1, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(xs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * rows));
    setRates(state, forwardFlops(16) * static_cast<double>(rows),
             forwardBytes(16) * static_cast<double>(rows));
}
BENCHMARK(BM_MlpForwardBatched)->Arg(64)->Arg(1024)->Arg(16384);

static void
BM_MlpBackward(benchmark::State &state)
{
    numeric::Rng rng(3);
    nn::Mlp net = makeNet(static_cast<std::size_t>(state.range(0)),
                          rng);
    const numeric::Vector x{0.1, -0.5, 1.2, 0.3};
    const numeric::Vector target{0, 0, 0, 0, 0};
    nn::Mlp::Cache cache;
    for (auto _ : state) {
        const auto out = net.forward(x, cache);
        benchmark::DoNotOptimize(
            net.backward(cache, nn::mseGradient(out, target)));
    }
    state.SetItemsProcessed(state.iterations());
    // Backward is roughly 2x the forward work (gradient + pullback)
    // on top of the cached forward pass.
    const auto hidden = static_cast<std::size_t>(state.range(0));
    setRates(state, 3.0 * forwardFlops(hidden),
             3.0 * forwardBytes(hidden));
}
BENCHMARK(BM_MlpBackward)->Arg(8)->Arg(16)->Arg(64);

static void
BM_TrainEpochs(benchmark::State &state)
{
    // Train the paper-shaped net on 64 synthetic samples for a fixed
    // number of epochs per iteration.
    numeric::Rng data_rng(4);
    const std::size_t n = 64;
    numeric::Matrix x(n, 4), y(n, 5);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < 4; ++j)
            x(i, j) = data_rng.uniform(-1, 1);
        for (std::size_t j = 0; j < 5; ++j)
            y(i, j) = data_rng.uniform(-1, 1);
    }
    nn::TrainOptions opts;
    opts.maxEpochs = 50;
    opts.targetLoss = 0.0;
    opts.recordHistory = false;
    const nn::Trainer trainer(opts);
    for (auto _ : state) {
        numeric::Rng rng(5);
        nn::Mlp net = makeNet(16, rng);
        numeric::Rng shuffle(6);
        benchmark::DoNotOptimize(
            trainer.train(net, x, y, shuffle));
    }
    state.SetItemsProcessed(state.iterations() * 50);
    state.SetLabel("items = epochs");
}
BENCHMARK(BM_TrainEpochs);

namespace {

/**
 * Serial vs parallel batched forward over a large sample block,
 * recorded to BENCH_parallel.json with a bit-identity check.
 */
void
reportParallelForward(std::size_t threads)
{
    numeric::Rng rng(2);
    const nn::Mlp net = makeNet(16, rng);
    const std::size_t rows = 200000;
    const auto xs = numeric::Matrix::random(rows, 4, rng, -1, 1);

    const auto sweep = [&](std::size_t n_threads,
                           numeric::Matrix &out) {
        // One task per row block, each a batched forward into its own
        // row range — the surface-sweep access pattern.
        const std::size_t block = 1000;
        const std::size_t n_blocks = (rows + block - 1) / block;
        core::parallelFor(n_blocks, n_threads, [&](std::size_t b) {
            const std::size_t lo = b * block;
            const std::size_t hi = std::min(rows, lo + block);
            numeric::Matrix slab(hi - lo, 4);
            for (std::size_t r = lo; r < hi; ++r)
                slab.setRow(r - lo, xs.row(r));
            const numeric::Matrix y = net.forward(slab);
            for (std::size_t r = lo; r < hi; ++r)
                out.setRow(r, y.row(r - lo));
        });
    };

    numeric::Matrix serial_out(rows, 5), parallel_out(rows, 5);
    const double serial_s = core::telemetry::timedSeconds(
        "bench.forward.serial", [&] { sweep(1, serial_out); });
    const double parallel_s = core::telemetry::timedSeconds(
        "bench.forward.parallel",
        [&] { sweep(threads, parallel_out); });
    bool identical = true;
    for (std::size_t i = 0; identical && i < rows; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            identical &= serial_out(i, j) == parallel_out(i, j);
    bench::appendParallelRecord("bench_micro_nn", "batched-forward",
                                threads, serial_s, parallel_s,
                                identical);
}

/**
 * Per-epoch cost of telemetry recording: train the paper-shaped net
 * for a fixed epoch budget with recording off, then on, best-of-3
 * each, and report the relative overhead. The two runs must produce
 * bit-identical weights — telemetry is a pure observer (the same
 * invariant tests/telemetry_overhead_test.cc pins). The acceptance
 * budget for the observability layer is < 5 % per epoch.
 */
void
reportTelemetryOverhead()
{
    namespace telemetry = core::telemetry;

    numeric::Rng data_rng(4);
    const std::size_t n = 64;
    numeric::Matrix x(n, 4), y(n, 5);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < 4; ++j)
            x(i, j) = data_rng.uniform(-1, 1);
        for (std::size_t j = 0; j < 5; ++j)
            y(i, j) = data_rng.uniform(-1, 1);
    }
    nn::TrainOptions opts;
    opts.maxEpochs = 200;
    opts.targetLoss = 0.0;
    opts.recordHistory = false;
    const nn::Trainer trainer(opts);

    const auto best_of_3 = [&](nn::Mlp *final_net) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            numeric::Rng rng(5);
            nn::Mlp net = makeNet(16, rng);
            numeric::Rng shuffle(6);
            const double secs =
                telemetry::timedSeconds("bench.train.epochs", [&] {
                    trainer.train(net, x, y, shuffle);
                });
            if (rep == 0 || secs < best)
                best = secs;
            *final_net = std::move(net);
        }
        return best;
    };

    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(false);
    nn::Mlp off_net;
    const double off_s = best_of_3(&off_net);
    telemetry::setEnabled(true);
    nn::Mlp on_net;
    const double on_s = best_of_3(&on_net);
    telemetry::setEnabled(was_enabled);

    bool identical = off_net.depth() == on_net.depth();
    for (std::size_t l = 0; identical && l < off_net.depth(); ++l) {
        const auto &ow = off_net.weights(l);
        const auto &nw = on_net.weights(l);
        for (std::size_t i = 0; identical && i < ow.rows(); ++i)
            for (std::size_t j = 0; j < ow.cols(); ++j)
                identical &= ow(i, j) == nw(i, j);
        identical = identical && off_net.biases(l) == on_net.biases(l);
    }

    const double overhead_pct =
        off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
    std::printf("[telemetry] per-epoch overhead: %.2f %% "
                "(off %.4fs, on %.4fs, %zu epochs, weights identical "
                "%s; budget < 5 %%)\n",
                overhead_pct, off_s, on_s, opts.maxEpochs,
                identical ? "yes" : "NO");
}

} // namespace

int
main(int argc, char **argv)
{
    auto recorder = core::telemetry::Recorder::fromArgs(argc, argv);
    // Chaos drills: `--failpoints "site=nth:2"` or WCNN_FAILPOINTS.
    core::failpoint::installFromArgs(argc, argv);
    std::size_t threads = bench::parseThreads(argc, argv);
    if (threads == 0)
        threads = core::hardwareThreads();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    reportParallelForward(threads);
    reportTelemetryOverhead();
    return 0;
}
