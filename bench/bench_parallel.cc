/**
 * @file
 * Serial-vs-parallel wall time for every parallelized pipeline stage,
 * with a bit-identity proof per stage.
 *
 * Runs each stage once serially and once over `--threads N` workers
 * (default: the hardware count), checks the results are bit-identical
 * — the core/parallel.hh contract — and appends the measurements to
 * BENCH_parallel.json. Uses the fast analytic sample source so the
 * NN-training stages dominate, mirroring where the real studies spend
 * their time.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "core/parallel.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "numeric/rng.hh"
#include "parallel_report.hh"
#include "sim/sample_space.hh"

namespace {

using namespace wcnn;

/** Exact-equality comparison; "close" would hide a seed-stream bug. */
bool
sameMatrix(const numeric::Matrix &a, const numeric::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (a(i, j) != b(i, j))
                return false;
    return true;
}

bool
sameCv(const model::CvResult &a, const model::CvResult &b)
{
    if (a.trials.size() != b.trials.size())
        return false;
    for (std::size_t f = 0; f < a.trials.size(); ++f) {
        if (a.trials[f].validation.harmonicError !=
                b.trials[f].validation.harmonicError ||
            !sameMatrix(a.trials[f].validationPredicted,
                        b.trials[f].validationPredicted))
            return false;
    }
    return true;
}

} // namespace

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

    bench::printHeader("parallel engine: serial vs " +
                       std::to_string(threads) + " threads");

    // Shared sample collection (analytic: fast and deterministic).
    numeric::Rng rng(2006);
    const auto configs = sim::latinHypercubeDesign(
        sim::SampleSpace::paperLike(), 48, rng);
    const auto params = sim::WorkloadParams::defaults();
    const data::Dataset ds = sim::collectAnalytic(configs, params);

    model::NnModelOptions nn;
    nn.hiddenUnits = {16};
    nn.train.targetLoss = 0.02;

    int failures = 0;
    const auto report = [&](const char *stage, double serial_s,
                            double parallel_s, bool identical) {
        bench::appendParallelRecord("bench_parallel", stage, threads,
                                    serial_s, parallel_s, identical);
        bench::printVerdict(std::string(stage) +
                                " bit-identical in parallel",
                            identical);
        failures += identical ? 0 : 1;
    };

    // Stage 1: sample collection from the stochastic simulator.
    {
        auto sim_configs = configs;
        sim_configs.resize(12);
        for (auto &cfg : sim_configs) {
            cfg.warmup = 10.0;
            cfg.measure = 60.0;
        }
        data::Dataset serial_ds, parallel_ds;
        const double serial_s =
            telemetry::timedSeconds("bench.collect.serial", [&] {
                serial_ds = sim::collectSimulated(sim_configs,
                                                  params, 500, 2, 1);
            });
        const double parallel_s =
            telemetry::timedSeconds("bench.collect.parallel", [&] {
                parallel_ds = sim::collectSimulated(
                    sim_configs, params, 500, 2, threads);
            });
        report("collect-simulated", serial_s, parallel_s,
               sameMatrix(serial_ds.yMatrix(), parallel_ds.yMatrix()));
    }

    // Stage 2: 5-fold cross validation (one NN training per fold).
    {
        model::CvOptions cv;
        cv.seed = 2008;
        model::CvResult serial_cv, parallel_cv;
        const auto factory = [&nn]() {
            return std::make_unique<model::NnModel>(nn);
        };
        cv.threads = 1;
        const double serial_s =
            telemetry::timedSeconds("bench.cv.serial", [&] {
                serial_cv = model::crossValidate(factory, ds, cv);
            });
        cv.threads = threads;
        const double parallel_s =
            telemetry::timedSeconds("bench.cv.parallel", [&] {
                parallel_cv = model::crossValidate(factory, ds, cv);
            });
        report("cross-validation", serial_s, parallel_s,
               sameCv(serial_cv, parallel_cv));
    }

    // Stage 3: hyperparameter grid search (12 NN trainings).
    {
        model::GridSearchOptions grid;
        grid.seed = 2007;
        model::GridSearchResult serial_gs, parallel_gs;
        grid.threads = 1;
        const double serial_s =
            telemetry::timedSeconds("bench.grid.serial", [&] {
                serial_gs = model::gridSearch(nn, ds, grid);
            });
        grid.threads = threads;
        const double parallel_s =
            telemetry::timedSeconds("bench.grid.parallel", [&] {
                parallel_gs = model::gridSearch(nn, ds, grid);
            });
        bool identical = serial_gs.bestIndex == parallel_gs.bestIndex &&
                         serial_gs.entries.size() ==
                             parallel_gs.entries.size();
        for (std::size_t c = 0; identical && c < serial_gs.entries.size();
             ++c) {
            identical = serial_gs.entries[c].validationError ==
                        parallel_gs.entries[c].validationError;
        }
        report("grid-search", serial_s, parallel_s, identical);
    }

    // Stage 4: dense Fig. 4/7/8-style surface sweep (batched forward).
    {
        model::NnModel mdl(nn);
        mdl.fit(ds);
        model::SurfaceRequest req = bench::paperSlice(0);
        req.pointsA = 201;
        req.pointsB = 161;
        model::SurfaceGrid serial_grid, parallel_grid;
        req.threads = 1;
        const double serial_s =
            telemetry::timedSeconds("bench.sweep.serial", [&] {
                serial_grid = model::sweepSurface(mdl, req, ds);
            });
        req.threads = threads;
        const double parallel_s =
            telemetry::timedSeconds("bench.sweep.parallel", [&] {
                parallel_grid = model::sweepSurface(mdl, req, ds);
            });
        report("surface-sweep", serial_s, parallel_s,
               sameMatrix(serial_grid.z, parallel_grid.z));
    }

    std::printf("\nrecords appended to BENCH_parallel.json\n");
    return failures;
}
