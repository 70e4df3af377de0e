#include "study.hh"

#include <cmath>
#include <memory>
#include <utility>

#include "core/telemetry.hh"
#include "numeric/rng.hh"

namespace wcnn {
namespace model {

StudyResult
runStudy(const StudyOptions &options)
{
    WCNN_SPAN("study", options.designSamples);

    // 1. Experiment design + sample collection: a Latin hypercube over
    // the full space plus a grid anchored at the analysis slice.
    numeric::Rng rng(options.seed);
    auto configs = sim::latinHypercubeDesign(
        options.space, options.designSamples, rng);
    // The design only decides the four swept axes; overlay them onto
    // the base configuration so scenario-declared load models, arrival
    // processes and run windows apply to every sample.
    for (sim::ThreeTierConfig &cfg : configs) {
        sim::ThreeTierConfig full = options.baseConfig;
        full.injectionRate = cfg.injectionRate;
        full.defaultQueue = cfg.defaultQueue;
        full.mfgQueue = cfg.mfgQueue;
        full.webQueue = cfg.webQueue;
        cfg = full;
    }
    if (options.sliceAnchorsPerAxis > 0) {
        const std::size_t k = options.sliceAnchorsPerAxis;
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = 0; j < k; ++j) {
                sim::ThreeTierConfig cfg = options.baseConfig;
                cfg.injectionRate = options.anchorInjection;
                cfg.mfgQueue = options.anchorMfg;
                const auto frac = [k](std::size_t t) {
                    return k == 1 ? 0.5
                                  : static_cast<double>(t) /
                                        static_cast<double>(k - 1);
                };
                cfg.defaultQueue = std::round(
                    options.space.defaultQueue.lo +
                    frac(i) * (options.space.defaultQueue.hi -
                               options.space.defaultQueue.lo));
                cfg.webQueue = std::round(
                    options.space.webQueue.lo +
                    frac(j) * (options.space.webQueue.hi -
                               options.space.webQueue.lo));
                // Anchors feed the section-5 surface analysis, so
                // they get longer measurement windows than the
                // space-filling samples (less sampling noise exactly
                // where the figures are drawn). Scaled off the base
                // windows; for the default 30/120 base this is the
                // historical 40/240.
                cfg.warmup = options.baseConfig.warmup +
                             options.baseConfig.warmup / 3.0;
                cfg.measure = 2.0 * options.baseConfig.measure;
                configs.push_back(cfg);
            }
        }
    }
    sim::CollectOptions collect;
    collect.threads = options.threads;
    collect.quarantine = !options.strict;
    collect.maxAttempts = options.strict ? 1 : options.collectMaxAttempts;
    sim::CollectReport collection;
    data::Dataset dataset;
    if (options.source == StudyOptions::Source::Simulator) {
        dataset = sim::collectSimulated(configs, options.params,
                                        options.seed, options.replicates,
                                        collect, &collection);
    } else {
        dataset = sim::collectAnalytic(configs, options.params,
                                       options.threads);
        collection.configs.assign(configs.size(), sim::ConfigStatus{});
    }

    StudyResult result = fitStudy(std::move(dataset), options);
    result.collection = std::move(collection);
    return result;
}

StudyResult
fitStudy(data::Dataset dataset, const StudyOptions &options)
{
    StudyResult result;
    result.dataset = std::move(dataset);

    // 2. Hyperparameter tuning (automated version of the paper's
    // hand-tuned first trial).
    result.tunedNn = options.nn;
    if (options.tune) {
        WCNN_SPAN("study.tune");
        GridSearchOptions tuning = options.tuning;
        tuning.seed = options.seed + 1;
        tuning.threads = options.threads;
        tuning.onFailure = options.strict ? OnFailure::Strict
                                          : OnFailure::Quarantine;
        result.tuning = gridSearch(options.nn, result.dataset, tuning);
        result.tunedNn.hiddenUnits = {result.tuning.best().hiddenUnits};
        result.tunedNn.train.targetLoss =
            result.tuning.best().targetLoss;
    }

    // 3. k-fold cross validation with the tuned settings.
    {
        WCNN_SPAN("study.cv");
        CvOptions cv = options.cv;
        cv.seed = options.seed + 2;
        cv.threads = options.threads;
        cv.onFailure = options.strict ? OnFailure::Strict
                                      : OnFailure::Quarantine;
        const NnModelOptions tuned = result.tunedNn;
        result.cv = crossValidate(
            [&tuned]() { return std::make_unique<NnModel>(tuned); },
            result.dataset, cv);
    }

    // 4. Final surrogate on all samples.
    {
        WCNN_SPAN("study.final_fit");
        result.finalModel = NnModel(result.tunedNn);
        result.finalModel.fit(result.dataset);
    }
    return result;
}

} // namespace model
} // namespace wcnn
