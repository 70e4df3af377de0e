/**
 * @file
 * Performance-tuning advisor: the paper's section-5 analysis as a
 * tool. Fits (or reuses) the workload surrogate, sweeps the
 * (default queue, web queue) plane at the paper's slice, classifies
 * every indicator's surface into parallel-slopes / valley / hill, and
 * recommends the best configurations under a scoring function that
 * minimizes response times, maximizes throughput and penalizes
 * constraint violations.
 *
 * Run: ./build/examples/tuning_advisor [--fast]
 *   Reuses workload_samples.csv and workload_model.bundle from
 *   characterize_3tier when present; otherwise collects a fresh
 *   sample set (--fast: analytic source) and fits the surrogate.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "data/csv.hh"
#include "model/classify.hh"
#include "model/recommender.hh"
#include "model/study.hh"
#include "model/surface.hh"
#include "serve/bundle.hh"

int
main(int argc, char **argv)
{
    using namespace wcnn;
    const bool fast =
        argc > 1 && std::strcmp(argv[1], "--fast") == 0;

    // Obtain samples: reuse the characterization study's CSV if it
    // exists, otherwise collect.
    data::Dataset samples;
    if (std::ifstream("workload_samples.csv").good()) {
        samples = data::loadCsv("workload_samples.csv");
        std::printf("loaded %zu samples from workload_samples.csv\n",
                    samples.size());
    } else {
        std::printf("no workload_samples.csv; collecting a fresh "
                    "sample set...\n");
        model::StudyOptions opts;
        opts.source = fast ? model::StudyOptions::Source::Analytic
                           : model::StudyOptions::Source::Simulator;
        opts.tune = false;
        samples = model::runStudy(opts).dataset;
    }

    serve::ModelBundle bundle;
    if (std::ifstream("workload_model.bundle").good()) {
        bundle = serve::ModelBundle::load("workload_model.bundle");
        std::printf("loaded surrogate from workload_model.bundle\n");
    } else {
        model::NnModel fitted;
        fitted.fit(samples);
        bundle = serve::ModelBundle::fromModel(fitted, samples.inputs(),
                                               samples.outputs());
    }
    const model::PerformanceModel &surrogate = bundle;
    std::printf("surrogate: %s\n", bundle.describe().c_str());

    // Surface analysis at the paper's slice (560, x, 16, y).
    std::printf("\n-- surface taxonomy at (560, x, 16, y) --\n");
    for (std::size_t ind = 0; ind < samples.outputDim(); ++ind) {
        model::SurfaceRequest req;
        req.axisA = 1;
        req.axisB = 3;
        req.indicator = ind;
        req.fixed = {560.0, 0.0, 16.0, 0.0};
        req.loA = 0.0;
        req.hiA = 20.0;
        req.loB = 14.0;
        req.hiB = 20.0;
        req.pointsA = 11;
        req.pointsB = 7;
        const auto grid = model::sweepSurface(surrogate, req, samples);
        const auto analysis = model::classifySurface(grid);
        std::printf("%-22s %s\n",
                    samples.outputs()[ind].c_str(),
                    analysis.describe().c_str());
    }

    // Recommendation (paper section 5.3's scoring-function system).
    std::printf("\n-- recommended configurations at injection 560 "
                "--\n");
    model::ScoringFunction score =
        model::ScoringFunction::forWorkload(samples);
    // Response-time constraints mirroring the workload's limits.
    score.goals[0].limit = 4.0;
    score.goals[1].limit = 1.5;
    score.goals[2].limit = 1.5;
    score.goals[3].limit = 1.5;

    model::Recommender rec(
        surrogate, {model::SearchAxis{560, 560, 1},
                    model::SearchAxis{0, 20, 21},
                    model::SearchAxis{12, 24, 13},
                    model::SearchAxis{14, 20, 7}});
    const auto top = rec.recommend(score, 5);
    std::printf("%4s %26s %10s %10s %10s\n", "#",
                "(inj, default, mfg, web)", "purch rt", "tput",
                "score");
    for (std::size_t i = 0; i < top.size(); ++i) {
        const auto &r = top[i];
        std::printf("%4zu    (%.0f, %2.0f, %2.0f, %2.0f)%14.3f "
                    "%10.1f %10.3f\n",
                    i + 1, r.config[0], r.config[1], r.config[2],
                    r.config[3], r.predicted[1], r.predicted[4],
                    r.score);
    }
    std::printf("\nthe advisor narrows %u candidate configurations "
                "down to the handful worth testing\n(paper section 5: "
                "'effectively narrow down the configuration "
                "combinations').\n",
                21u * 13u * 7u);
    return 0;
}
