/**
 * @file
 * Shared fixtures for the lifecycle test suites: a tiny incumbent
 * trained on a known analytic surface, and journal builders that
 * synthesize stable / drifted / reverted observation streams against
 * it. Everything is seeded, so every suite sees the same incumbent,
 * the same streams, and therefore the same decisions.
 */

#ifndef WCNN_TESTS_LIFECYCLE_TEST_UTIL_HH
#define WCNN_TESTS_LIFECYCLE_TEST_UTIL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "lifecycle/controller.hh"
#include "lifecycle/journal.hh"
#include "lifecycle/record.hh"
#include "model/nn_model.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"

namespace wcnn {
namespace lifecycle_test {

/** The surface the incumbent learns: smooth, easily fit by a tiny net. */
inline double
baseSurface(double a, double b)
{
    return 1.0 + 0.6 * a + 0.3 * b + 0.2 * a * b;
}

/** The drifted surface: same inputs, shifted response. */
inline double
driftedSurface(double a, double b)
{
    return 2.0 * baseSurface(a, b) + 1.5;
}

/** Small, fast, deterministic hyperparameters for test retrains. */
inline model::NnModelOptions
tinyModelOptions()
{
    model::NnModelOptions opts;
    opts.hiddenUnits = {6};
    opts.train.maxEpochs = 400;
    opts.train.targetLoss = 1e-4;
    opts.seed = 7;
    return opts;
}

/** Train the incumbent on baseSurface over [0,1]^2 (seeded). */
inline std::shared_ptr<const serve::ModelBundle>
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
                                      "incumbent"));
}

/** One journal segment's ground truth. */
enum class Truth
{
    Base,    ///< observations follow baseSurface (incumbent is right)
    Drifted, ///< observations follow driftedSurface (incumbent stale)
};

/**
 * Append `count` records to a journal: x drawn from `rng`, predicted
 * by `bundle`, observed from the segment's ground truth.
 */
inline void
appendSegment(lifecycle::Journal &journal,
              const serve::ModelBundle &bundle, numeric::Rng &rng,
              std::size_t count, Truth truth)
{
    for (std::size_t i = 0; i < count; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        lifecycle::ObservationRecord rec;
        rec.seq = journal.records.size();
        rec.x = {a, b};
        rec.predicted = bundle.predict(rec.x);
        rec.observed = {truth == Truth::Base ? baseSurface(a, b)
                                             : driftedSurface(a, b)};
        journal.records.push_back(std::move(rec));
    }
}

/** Controller options every suite shares: small windows, fast net. */
inline lifecycle::LifecycleOptions
testOptions()
{
    lifecycle::LifecycleOptions opts;
    opts.drift.window = 8;
    opts.drift.threshold = 0.25;
    opts.drift.patience = 2;
    opts.retrain.model = tinyModelOptions();
    opts.retrain.seed = 99;
    opts.retrainWindow = 16;
    opts.shadowWindow = 8;
    opts.historyLimit = 4;
    return opts;
}

/**
 * A stream that drifts and stays drifted: 16 stable records, then 24
 * drifted ones. With testOptions() the detector strikes on the two
 * full drifted windows (drift at seq 31), the candidate retrains on
 * the 16 fully-drifted records and shadow-beats the incumbent over
 * the last 8 — exactly one promotion, landing on the final record.
 */
inline lifecycle::Journal
promotionJournal(const serve::ModelBundle &bundle)
{
    lifecycle::Journal journal;
    journal.inputDim = 2;
    journal.outputDim = 1;
    numeric::Rng rng(21);
    appendSegment(journal, bundle, rng, 16, Truth::Base);
    appendSegment(journal, bundle, rng, 24, Truth::Drifted);
    return journal;
}

/**
 * A transient blip: the stream drifts long enough to trigger a
 * retrain, then reverts to the base surface before the shadow window
 * — the incumbent wins the gate and the candidate is rejected.
 */
inline lifecycle::Journal
rejectionJournal(const serve::ModelBundle &bundle)
{
    lifecycle::Journal journal;
    journal.inputDim = 2;
    journal.outputDim = 1;
    numeric::Rng rng(22);
    appendSegment(journal, bundle, rng, 16, Truth::Base);
    appendSegment(journal, bundle, rng, 16, Truth::Drifted);
    appendSegment(journal, bundle, rng, 16, Truth::Base);
    return journal;
}

} // namespace lifecycle_test
} // namespace wcnn

#endif // WCNN_TESTS_LIFECYCLE_TEST_UTIL_HH
