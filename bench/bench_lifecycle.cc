/**
 * @file
 * Lifecycle bench: drift-detection latency and shadow overhead.
 *
 * Two metrics land in BENCH_lifecycle.json (common.hh
 * appendJsonRecord), each record with the host's hardware thread
 * count (`nproc`):
 *
 *  1. "drift_latency" — the stream goes stale at a known record; the
 *     number of further records the controller needs before it
 *     declares drift is the detection latency, *in records* (the
 *     controller reads no clock, so records are its only time axis).
 *     Measured for several window/patience tunings, both aligned and
 *     misaligned with the tumbling-window boundary.
 *
 *  2. "shadow_overhead" — in-process predict throughput through the
 *     ServeCore with a lifecycle controller held mid-shadow (every
 *     observe runs the candidate too) versus the same traffic with no
 *     sink attached. Observe traffic rides at 1/8th of predicts, the
 *     serving mix the lifecycle is designed for. CI trips when the
 *     overhead exceeds 10% (the "shadowing is invisible" claim has a
 *     throughput side, not just a byte-equality side).
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/parallel.hh"
#include "core/telemetry.hh"
#include "data/dataset.hh"
#include "lifecycle/controller.hh"
#include "lifecycle/host.hh"
#include "lifecycle/record.hh"
#include "model/nn_model.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/engine.hh"
#include "serve/registry.hh"

using namespace wcnn;

namespace {

constexpr double kTripwirePct = 10.0;

double
baseSurface(double a, double b)
{
    return 1.0 + 0.6 * a + 0.3 * b + 0.2 * a * b;
}

double
driftedSurface(double a, double b)
{
    return 2.0 * baseSurface(a, b) + 1.5;
}

model::NnModelOptions
tinyModelOptions()
{
    model::NnModelOptions opts;
    opts.hiddenUnits = {6};
    opts.train.maxEpochs = 400;
    opts.train.targetLoss = 1e-4;
    opts.seed = 7;
    return opts;
}

std::shared_ptr<const serve::ModelBundle>
makeIncumbent()
{
    data::Dataset ds({"a", "b"}, {"latency"});
    numeric::Rng rng(11);
    for (int i = 0; i < 96; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        ds.add({a, b}, {baseSurface(a, b)});
    }
    model::NnModel mdl(tinyModelOptions());
    mdl.fit(ds);
    return std::make_shared<const serve::ModelBundle>(
        serve::ModelBundle::fromModel(mdl, ds.inputs(), ds.outputs(),
                                      "bench-incumbent"));
}

lifecycle::LifecycleOptions
lifecycleOptions()
{
    lifecycle::LifecycleOptions opts;
    opts.drift.window = 8;
    opts.drift.threshold = 0.25;
    opts.drift.patience = 2;
    opts.retrain.model = tinyModelOptions();
    opts.retrain.seed = 99;
    opts.retrainWindow = 16;
    opts.shadowWindow = 8;
    opts.threads = 1;
    return opts;
}

/**
 * Feed a stable stream, go stale at `stale_at`, and count the records
 * from staleness to the drift decision.
 */
void
benchDriftLatency(const serve::ModelBundle &incumbent,
                  std::size_t window, std::size_t patience,
                  std::size_t stale_at)
{
    serve::BundleRegistry registry;
    registry.swap(std::make_shared<const serve::ModelBundle>(incumbent));
    lifecycle::RegistryHost host(registry);
    lifecycle::LifecycleOptions opts = lifecycleOptions();
    opts.drift.window = window;
    opts.drift.patience = patience;
    lifecycle::LifecycleController controller(host, opts);

    numeric::Rng rng(41);
    std::uint64_t seq = 0;
    const auto feedOne = [&](bool stale) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        lifecycle::ObservationRecord rec;
        rec.seq = seq++;
        rec.x = {a, b};
        rec.predicted = incumbent.predict(rec.x);
        rec.observed = {stale ? driftedSurface(a, b)
                              : baseSurface(a, b)};
        controller.record(rec);
    };

    for (std::size_t i = 0; i < stale_at; ++i)
        feedOne(false);
    std::size_t latency = 0;
    const std::size_t cap = 1000;
    while (controller.decisions().empty() && latency < cap) {
        feedOne(true);
        ++latency;
    }

    std::ostringstream record;
    record << "  {\"bench\": \"bench_lifecycle\", "
           << "\"metric\": \"drift_latency\", \"nproc\": "
           << core::hardwareThreads() << ", \"window\": " << window
           << ", \"patience\": " << patience
           << ", \"threshold\": " << opts.drift.threshold
           << ", \"stale_at\": " << stale_at
           << ", \"latency_records\": " << latency << "}";
    bench::appendJsonRecord("BENCH_lifecycle.json", record.str());
    std::printf("[lifecycle] drift latency  window %2zu  patience %zu  "
                "stale@%-3zu -> %3zu records\n",
                window, patience, stale_at, latency);
}

/** predict/observe mix timing; returns wall seconds for the loop. */
double
runMix(serve::ServeCore &core, const std::vector<numeric::Vector> &pool,
       std::size_t predicts)
{
    return core::telemetry::timedSeconds("bench.lifecycle.mix", [&] {
        for (std::size_t i = 0; i < predicts; ++i) {
            const numeric::Vector &x = pool[i % pool.size()];
            (void)core.predict(x);
            if (i % 8 == 7)
                core.observe(x, {driftedSurface(x[0], x[1])});
        }
    });
}

/**
 * Predict throughput with a mid-shadow controller on the observe path
 * versus no sink at all, same traffic, best of `trials`.
 */
void
benchShadowOverhead(
    const std::shared_ptr<const serve::ModelBundle> &incumbent,
    std::size_t predicts, std::size_t trials)
{
    serve::ServeOptions core_opts;
    core_opts.cache.capacity = 0; // measure the forward path, not LRU hits

    std::vector<numeric::Vector> pool;
    numeric::Rng rng(43);
    for (int i = 0; i < 256; ++i)
        pool.push_back({rng.uniform(), rng.uniform()});

    // Baseline: no sink installed; observes still predict + count.
    double base_best = 0.0;
    {
        serve::ServeCore core(core_opts);
        core.deploy(incumbent);
        for (std::size_t t = 0; t < trials; ++t) {
            const double secs = runMix(core, pool, predicts);
            if (t == 0 || secs < base_best)
                base_best = secs;
        }
        core.stopBatcher();
    }

    // Shadowing: drive the controller into Shadowing first (drift +
    // retrain happen before the clock starts), with a shadow window
    // far longer than the bench so the candidate is evaluated on
    // every observe of the timed run.
    double shadow_best = 0.0;
    {
        serve::ServeCore core(core_opts);
        core.deploy(incumbent);
        serve::BundleRegistry registry;
        registry.swap(incumbent);
        lifecycle::RegistryHost host(registry);
        lifecycle::LifecycleOptions opts = lifecycleOptions();
        opts.drift.window = 4;
        opts.drift.patience = 1;
        opts.retrainWindow = 8;
        opts.shadowWindow = 1u << 30;
        lifecycle::LifecycleController controller(host, opts);
        core.setObservationSink([&controller](const numeric::Vector &x,
                                              const numeric::Vector &p,
                                              const numeric::Vector &o) {
            controller.record(x, p, o);
        });
        numeric::Rng warm(44);
        while (controller.stage() != lifecycle::Stage::Shadowing) {
            const double a = warm.uniform();
            const double b = warm.uniform();
            core.observe({a, b}, {driftedSurface(a, b)});
        }
        for (std::size_t t = 0; t < trials; ++t) {
            const double secs = runMix(core, pool, predicts);
            if (t == 0 || secs < shadow_best)
                shadow_best = secs;
        }
        if (controller.stage() != lifecycle::Stage::Shadowing) {
            std::fprintf(stderr,
                         "bench_lifecycle: controller left Shadowing "
                         "mid-bench\n");
            std::exit(1);
        }
        core.stopBatcher();
    }

    const double base_rps = static_cast<double>(predicts) / base_best;
    const double shadow_rps =
        static_cast<double>(predicts) / shadow_best;
    const double overhead_pct =
        base_best > 0.0 ? (shadow_best / base_best - 1.0) * 100.0 : 0.0;
    const bool within = overhead_pct <= kTripwirePct;

    std::ostringstream record;
    record << "  {\"bench\": \"bench_lifecycle\", "
           << "\"metric\": \"shadow_overhead\", \"nproc\": "
           << core::hardwareThreads() << ", \"predicts\": " << predicts
           << ", \"observe_every\": 8"
           << ", \"baseline_rps\": " << base_rps
           << ", \"shadow_rps\": " << shadow_rps
           << ", \"overhead_pct\": " << overhead_pct
           << ", \"tripwire_pct\": " << kTripwirePct
           << ", \"within_tripwire\": " << (within ? "true" : "false")
           << "}";
    bench::appendJsonRecord("BENCH_lifecycle.json", record.str());
    std::printf("[lifecycle] shadow overhead  %zu predicts  "
                "baseline %.0f/s  shadowing %.0f/s  overhead %.2f%%  "
                "tripwire %.0f%% -> %s\n",
                predicts, base_rps, shadow_rps, overhead_pct,
                kTripwirePct, within ? "ok" : "TRIPPED");
    if (!within)
        std::exit(1);
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
    const std::size_t predicts =
        argValue(argc, argv, "--predicts", 16384);
    const std::size_t trials = argValue(argc, argv, "--trials", 3);

    const auto incumbent = makeIncumbent();

    benchDriftLatency(*incumbent, 8, 2, 32);  // aligned boundary
    benchDriftLatency(*incumbent, 8, 1, 32);  // single-strike tuning
    benchDriftLatency(*incumbent, 16, 2, 32); // wider window
    benchDriftLatency(*incumbent, 8, 2, 36);  // mid-window staleness

    benchShadowOverhead(incumbent, predicts, trials);
    return 0;
}
