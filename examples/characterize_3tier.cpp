/**
 * @file
 * The full characterization pipeline of the paper, end to end:
 *
 *  collect samples -> tune the MLP (node count + stop threshold) ->
 *  5-fold cross validation with the harmonic-mean error metric ->
 *  fit the final surrogate -> persist everything for later analysis.
 *
 * Outputs (current directory):
 *  - workload_samples.csv    the collected sample set
 *  - workload_model.bundle   the surrogate as a ModelBundle (network,
 *                            standardizers and column schema)
 *
 * Run: ./build/examples/characterize_3tier [--fast]
 *   --fast uses the closed-form analytic workload instead of the
 *   discrete-event simulator (seconds instead of minutes).
 */

#include <cstdio>
#include <cstring>

#include "data/csv.hh"
#include "model/study.hh"
#include "serve/bundle.hh"

int
main(int argc, char **argv)
{
    using namespace wcnn;

    const bool fast =
        argc > 1 && std::strcmp(argv[1], "--fast") == 0;

    model::StudyOptions opts;
    opts.source = fast ? model::StudyOptions::Source::Analytic
                       : model::StudyOptions::Source::Simulator;
    opts.designSamples = 64;
    opts.sliceAnchorsPerAxis = 4;
    opts.seed = 2006;

    std::printf("== workload characterization study (%s source) ==\n",
                fast ? "analytic" : "simulator");
    std::printf("collecting %zu configurations%s...\n",
                opts.designSamples + 16,
                fast ? "" : " x 3 replicates (takes a minute)");

    const model::StudyResult study = model::runStudy(opts);

    std::printf("\n-- tuning protocol (paper section 3.2) --\n");
    std::printf("%10s %12s %16s\n", "units", "threshold",
                "holdout error");
    for (const auto &entry : study.tuning.entries) {
        std::printf("%10zu %12.3f %15.1f%%\n", entry.hiddenUnits,
                    entry.targetLoss, 100.0 * entry.validationError);
    }
    std::printf("selected: %zu units, threshold %.3f\n",
                study.tunedNn.hiddenUnits[0],
                study.tunedNn.train.targetLoss);

    std::printf("\n-- 5-fold cross validation (paper Table 2) --\n");
    std::fputs(model::formatTable(study.cv).c_str(), stdout);
    std::printf("overall prediction accuracy: %.1f %%\n",
                study.cv.overallAccuracy() * 100.0);

    data::saveCsv(study.dataset, "workload_samples.csv");
    serve::ModelBundle::fromModel(study.finalModel,
                                  study.dataset.inputs(),
                                  study.dataset.outputs())
        .save("workload_model.bundle");
    std::printf("\nwrote workload_samples.csv (%zu samples) and "
                "workload_model.bundle (%s)\n",
                study.dataset.size(),
                study.finalModel.network().describe().c_str());
    std::printf("feed both to the tuning_advisor example for the "
                "section-5 analysis.\n");
    return 0;
}
