/**
 * @file
 * Table 2 reproduction: average prediction error for the validation
 * set, per 5-fold cross-validation trial and per performance
 * indicator, using the paper's harmonic-mean-of-relative-error metric.
 * This bench also re-runs the paper's tuning protocol (node count and
 * termination threshold chosen on held-out data, then reused for all
 * trials), and times the cross validation serially vs over
 * `--threads N` workers (default: hardware count), appending the
 * measurement to BENCH_parallel.json with a bit-identity check.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "core/parallel.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "model/cross_validation.hh"
#include "parallel_report.hh"

int
main(int argc, char **argv)
{
    using namespace wcnn;
    namespace telemetry = core::telemetry;
    auto recorder = telemetry::Recorder::fromArgs(argc, argv);
    // Chaos drills: `--failpoints "site=nth:2"` or WCNN_FAILPOINTS.
    wcnn::core::failpoint::installFromArgs(argc, argv);
    std::size_t threads = bench::parseThreads(argc, argv);
    if (threads == 0)
        threads = core::hardwareThreads();

    bench::printHeader("Table 2: average prediction error for the "
                       "validation set");

    const model::StudyResult study = bench::canonicalStudy(true, threads);

    std::printf("tuned hyperparameters: %zu hidden units, stop "
                "threshold %.3f (protocol: tuned once, reused for all "
                "trials)\n\n",
                study.tunedNn.hiddenUnits[0],
                study.tunedNn.train.targetLoss);

    std::fputs(model::formatTable(study.cv).c_str(), stdout);
    std::printf("\noverall prediction accuracy: %.1f %%\n",
                study.cv.overallAccuracy() * 100.0);

    std::printf("\npaper reference (their testbed): per-indicator "
                "averages 3.0 %% / 10.0 %% / 7.0 %% / 7.3 %% / 0.2 %%,"
                " overall accuracy ~95 %%\n");

    // Shape criteria, not absolute numbers.
    const auto avg = study.cv.averageValidationError();
    bool small = true;
    for (double e : avg)
        small &= e < 0.15;
    bench::printVerdict(
        "per-indicator validation errors in the paper's low range "
        "(< 15 %)",
        small);
    const double rt_mean =
        (avg[0] + avg[1] + avg[2] + avg[3]) / 4.0;
    bench::printVerdict(
        "throughput predicted more accurately than the response "
        "times on average (paper: 0.2 % vs 3-10 %)",
        avg[4] < rt_mean);
    bench::printVerdict("overall accuracy >= 90 % (paper: 95 %)",
                        study.cv.overallAccuracy() >= 0.90);

    // Serial vs parallel wall time for the Table 2 cross validation.
    bench::printHeader("cross validation: serial vs " +
                       std::to_string(threads) + " threads");
    model::CvOptions cv = bench::canonicalOptions().cv;
    cv.seed = bench::canonicalOptions().seed + 2;
    const model::NnModelOptions tuned = study.tunedNn;
    const auto factory = [&tuned]() {
        return std::make_unique<model::NnModel>(tuned);
    };
    model::CvResult serial_cv, parallel_cv;
    cv.threads = 1;
    const double serial_s =
        telemetry::timedSeconds("bench.cv.serial", [&] {
            serial_cv =
                model::crossValidate(factory, study.dataset, cv);
        });
    cv.threads = threads;
    const double parallel_s =
        telemetry::timedSeconds("bench.cv.parallel", [&] {
            parallel_cv =
                model::crossValidate(factory, study.dataset, cv);
        });
    const bool identical =
        serial_cv.averageValidationError() ==
            parallel_cv.averageValidationError() &&
        serial_cv.averageValidationError() ==
            study.cv.averageValidationError();
    bench::appendParallelRecord("bench_table2", "cross-validation",
                                threads, serial_s, parallel_s,
                                identical);
    bench::printVerdict("parallel Table 2 bit-identical to serial",
                        identical);
    return 0;
}
