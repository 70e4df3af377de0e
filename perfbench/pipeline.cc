/**
 * @file
 * Pipeline worker: the `study` workload.
 *
 * Protocol with run.py: the worker does its set-up (load and resolve
 * the scenario), prints `ready`, and reads one stdin line. `quit` ends
 * it there (a set-up-only launch); `run` runs the pipeline and prints
 * one `result {json}` line.
 *
 * wall_s runs from the first unit of work to the top-5 recommendation.
 * After it, the worker saves the fitted surrogate as a serving bundle
 * (--bundle-out) for run.py's what-if phase. A traced worker
 * (--trace 1) also records spans around every layer call, reads
 * runStudy's own telemetry spans, times data::loadCsv on the frozen
 * CSV, re-simulates study's configurations with RunDiagnostics, and
 * times ModelBundle::predictAll on the frozen bundle.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "core/telemetry.hh"
#include "data/csv.hh"
#include "model/classify.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/nn_model.hh"
#include "model/recommender.hh"
#include "model/study.hh"
#include "model/surface.hh"
#include "modes.hh"
#include "numeric/rng.hh"
#include "scenario/library.hh"
#include "serve/bundle.hh"
#include "sim/sample_space.hh"
#include "sim/three_tier.hh"

namespace perfbench {

namespace {

using namespace wcnn;
namespace telemetry = core::telemetry;

/** The canonical study: seed, design size, replicates, anchors. */
constexpr std::uint64_t kStudySeed = 2006;
constexpr std::size_t kDesignSamples = 64;
constexpr std::size_t kReplicates = 3;
constexpr std::size_t kAnchorsPerAxis = 5;

/** The paper's analysis slice "(560, x, 16, y)" (Fig 4/7/8). */
model::SurfaceRequest
paperSlice(std::size_t indicator, std::size_t threads)
{
    model::SurfaceRequest req;
    req.axisA = 1;
    req.axisB = 3;
    req.indicator = indicator;
    req.fixed = {560.0, 0.0, 16.0, 0.0};
    req.loA = 0.0;
    req.hiA = 20.0;
    req.loB = 14.0;
    req.hiB = 20.0;
    req.pointsA = 11;
    req.pointsB = 7;
    req.threads = threads;
    return req;
}

/** `wcnn recommend`'s default search grid. */
std::vector<model::SearchAxis>
recommendGrid()
{
    return {model::SearchAxis{560.0, 560.0, 1},
            model::SearchAxis{0, 20, 21}, model::SearchAxis{12, 24, 13},
            model::SearchAxis{14, 20, 7}};
}

/**
 * Configurations runStudy collects, rebuilt the way it builds them: a
 * Latin hypercube overlaid on the base configuration plus the slice
 * anchors with their longer windows.
 */
std::vector<sim::ThreeTierConfig>
studyConfigs(const model::StudyOptions &options)
{
    numeric::Rng rng(options.seed);
    auto configs =
        sim::latinHypercubeDesign(options.space, options.designSamples, rng);
    for (sim::ThreeTierConfig &cfg : configs) {
        sim::ThreeTierConfig full = options.baseConfig;
        full.injectionRate = cfg.injectionRate;
        full.defaultQueue = cfg.defaultQueue;
        full.mfgQueue = cfg.mfgQueue;
        full.webQueue = cfg.webQueue;
        cfg = full;
    }
    const std::size_t k = options.sliceAnchorsPerAxis;
    const auto frac = [k](std::size_t t) {
        return k == 1 ? 0.5
                      : static_cast<double>(t) / static_cast<double>(k - 1);
    };
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            sim::ThreeTierConfig cfg = options.baseConfig;
            cfg.injectionRate = options.anchorInjection;
            cfg.mfgQueue = options.anchorMfg;
            cfg.defaultQueue = std::round(
                options.space.defaultQueue.lo +
                frac(i) * (options.space.defaultQueue.hi -
                           options.space.defaultQueue.lo));
            cfg.webQueue = std::round(
                options.space.webQueue.lo +
                frac(j) * (options.space.webQueue.hi -
                           options.space.webQueue.lo));
            cfg.warmup = options.baseConfig.warmup +
                         options.baseConfig.warmup / 3.0;
            cfg.measure = 2.0 * options.baseConfig.measure;
            configs.push_back(cfg);
        }
    }
    return configs;
}

/** DES counts and timings from re-running study's replicates. */
struct Resimulation
{
    std::size_t runs = 0;
    std::uint64_t events = 0;
    double runSecondsSum = 0.0;
    std::vector<double> runMs;
    bool reproduced = false;
};

/**
 * Re-run every (configuration, replicate) of the study with
 * RunDiagnostics, using collectSimulated's documented seeds
 * (seed + i * replicates + r), and check the replicate means equal the
 * study's dataset rows bit for bit.
 */
Resimulation
resimulate(const model::StudyOptions &options, const data::Dataset &ds,
           std::size_t threads, SpanLog &spans)
{
    const std::vector<sim::ThreeTierConfig> configs = studyConfigs(options);
    const std::size_t reps = options.replicates;
    const std::size_t n = configs.size() * reps;
    std::vector<sim::PerfSample> samples(n);
    std::vector<std::uint64_t> events(n, 0);
    std::vector<std::int64_t> t0(n, 0), t1(n, 0);
    const std::int64_t root = spans.open("resimulate");
    core::parallelFor(n, threads, [&](std::size_t k) {
        const std::size_t i = k / reps;
        const std::size_t r = k % reps;
        sim::ThreeTierConfig replica = configs[i];
        replica.seed = options.seed + i * reps + r;
        sim::RunDiagnostics diag;
        t0[k] = telemetry::nowNs();
        samples[k] = sim::simulateThreeTier(replica, options.params, &diag);
        t1[k] = telemetry::nowNs();
        events[k] = diag.eventsProcessed;
    });
    spans.close(root);

    Resimulation out;
    out.runs = n;
    for (std::size_t k = 0; k < n; ++k) {
        spans.add(Span{"sim::simulateThreeTier", t0[k], t1[k], root, -1});
        out.events += events[k];
        out.runSecondsSum += seconds(t0[k], t1[k]);
        out.runMs.push_back(seconds(t0[k], t1[k]) * 1e3);
    }
    std::sort(out.runMs.begin(), out.runMs.end());

    // Average in collectSimulated's order so the bits can match.
    out.reproduced = ds.size() == configs.size();
    for (std::size_t i = 0; out.reproduced && i < configs.size(); ++i) {
        sim::PerfSample mean;
        for (std::size_t r = 0; r < reps; ++r) {
            const sim::PerfSample &s = samples[i * reps + r];
            mean.manufacturingRt += s.manufacturingRt;
            mean.dealerPurchaseRt += s.dealerPurchaseRt;
            mean.dealerManageRt += s.dealerManageRt;
            mean.dealerBrowseRt += s.dealerBrowseRt;
            mean.throughput += s.throughput;
        }
        const double d = static_cast<double>(reps);
        mean.manufacturingRt /= d;
        mean.dealerPurchaseRt /= d;
        mean.dealerManageRt /= d;
        mean.dealerBrowseRt /= d;
        mean.throughput /= d;
        out.reproduced = sameBits(ds[i].x, configs[i].toVector()) &&
                         sameBits(ds[i].y, mean.toVector());
    }
    return out;
}

/** A program span rebuilt from core::telemetry begin/end events. */
struct ProgramSpan
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double arg0 = 0.0;
    std::size_t epochs = 0;
};

/**
 * Pair the telemetry stream's begin/end events per thread, shift them
 * onto the nowNs() clock, and count train.epoch events into their
 * enclosing `train` span.
 */
std::vector<ProgramSpan>
programSpans(std::int64_t origin_ns)
{
    std::vector<ProgramSpan> out;
    std::map<int, std::vector<std::size_t>> open;
    for (const telemetry::Event &e : telemetry::collectEvents()) {
        std::vector<std::size_t> &stack = open[e.tid];
        if (e.phase == telemetry::EventPhase::SpanBegin) {
            ProgramSpan s;
            s.name = e.name;
            s.startNs = origin_ns + e.tsNs;
            s.arg0 = e.nargs > 0 ? e.args[0] : 0.0;
            stack.push_back(out.size());
            out.push_back(s);
        } else if (e.phase == telemetry::EventPhase::SpanEnd) {
            if (!stack.empty()) {
                out[stack.back()].endNs = origin_ns + e.tsNs;
                stack.pop_back();
            }
        } else if (std::strcmp(e.name, "train.epoch") == 0) {
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (out[*it].name == "train") {
                    out[*it].epochs += 1;
                    break;
                }
            }
        }
    }
    return out;
}

/**
 * Add the program's stage and task spans to the log, each under the
 * span that encloses it by name: runStudy's stages under the
 * benchmark's model::runStudy span, parallel tasks under their stage.
 * Per-epoch `train` spans stay out; nn.* counts them.
 */
void
addProgramSpans(SpanLog &spans, const std::vector<ProgramSpan> &program)
{
    static const std::map<std::string, std::vector<std::string>> parents = {
        {"collect.simulated", {"model::runStudy"}},
        {"study.tune", {"model::runStudy"}},
        {"study.cv", {"model::runStudy"}},
        {"study.final_fit", {"model::runStudy"}},
        {"grid", {"study.tune"}},
        {"cv", {"study.cv"}},
        {"grid.candidate", {"grid"}},
        {"cv.fold", {"cv"}},
        {"collect.config", {"collect.simulated"}},
    };
    // The two clocks are aligned to within a microsecond or so.
    constexpr std::int64_t slack_ns = 50000;
    std::vector<Span> all = spans.spans();
    for (const ProgramSpan &p : program) {
        const auto rule = parents.find(p.name);
        if (rule == parents.end())
            continue;
        std::int64_t parent = -1;
        for (std::size_t i = all.size(); i-- > 0;) {
            const Span &s = all[i];
            const bool named =
                std::find(rule->second.begin(), rule->second.end(),
                          s.name) != rule->second.end();
            if (named && s.startNs <= p.startNs + slack_ns &&
                p.endNs <= s.endNs + slack_ns) {
                parent = static_cast<std::int64_t>(i);
                break;
            }
        }
        Span span{p.name, p.startNs, p.endNs, parent, -1};
        spans.add(span);
        all.push_back(span);
    }
}

/** Σ durations of the named program spans, and their count / max. */
struct SpanTotals
{
    double sum = 0.0;
    double max = 0.0;
    std::size_t count = 0;
};

SpanTotals
totals(const std::vector<ProgramSpan> &spans, const std::string &name)
{
    SpanTotals t;
    for (const ProgramSpan &s : spans) {
        if (s.name != name)
            continue;
        const double d = seconds(s.startNs, s.endNs);
        t.sum += d;
        t.max = std::max(t.max, d);
        t.count += 1;
    }
    return t;
}

/** Rows per second of ModelBundle::predictAll at one batch size. */
double
forwardRowsPerSecond(const serve::ModelBundle &bundle, std::size_t rows,
                     SpanLog &spans, std::int64_t parent)
{
    numeric::Rng rng = numeric::Rng::stream(kStudySeed, rows);
    numeric::Matrix xs(rows, bundle.inputDim());
    for (std::size_t i = 0; i < rows; ++i) {
        xs(i, 0) = rng.uniform(500.0, 620.0);
        xs(i, 1) = static_cast<double>(rng.uniformInt(0, 20));
        xs(i, 2) = static_cast<double>(rng.uniformInt(12, 24));
        xs(i, 3) = static_cast<double>(rng.uniformInt(14, 20));
    }
    bundle.predictAll(xs); // warm the kernel arena
    std::size_t done = 0;
    const std::int64_t t0 = telemetry::nowNs();
    std::int64_t t1 = t0;
    while (t1 - t0 < 100000000) {
        ScopedSpan span(&spans, "serve::ModelBundle::predictAll", parent);
        bundle.predictAll(xs);
        done += rows;
        t1 = telemetry::nowNs();
    }
    return static_cast<double>(done) / seconds(t0, t1);
}

/** Multiply-adds of one forward row, from the layer shapes. */
double
forwardFlopsPerRow(const serve::ModelBundle &bundle)
{
    double flops = 0.0;
    std::size_t fan_in = bundle.inputDim();
    for (const nn::LayerSpec &layer : bundle.network().layers()) {
        flops += 2.0 * static_cast<double>(fan_in * layer.units);
        fan_in = layer.units;
    }
    return flops;
}

/** Check list of one pipeline run. */
class Checks
{
  public:
    void
    add(const std::string &name, bool ok)
    {
        list.flag(name, ok);
        allOk = allOk && ok;
    }
    bool ok() const { return allOk; }
    std::string json() const { return list.text(); }

  private:
    JsonObject list;
    bool allOk = true;
};

/** Digest of the CV table: every trial's validation errors, as bits. */
std::string
cvDigest(const model::CvResult &cv)
{
    std::uint64_t h = fnv1a("cv", 2);
    for (const model::CvTrial &t : cv.trials) {
        const std::vector<double> &errors = t.validation.harmonicError;
        h = fnv1a(errors.data(), errors.size() * sizeof(double), h);
    }
    return hex64(h);
}

/** Digest of the surrogate: its predictions on the dataset, as bits. */
std::string
surrogateDigest(const model::PerformanceModel &mdl, const data::Dataset &ds)
{
    const numeric::Matrix y = mdl.predictAll(ds);
    return hex64(fnv1a(y.data().data(), y.data().size() * sizeof(double)));
}

} // namespace

int
runPipeline(const Args &args)
{
    const std::string root = args.str("root", ".");
    const std::string data_dir = args.str("data", "perfbench/data");
    const std::string frozen_csv = data_dir + "/wcnn_bench_dataset.csv";
    const std::size_t threads = core::hardwareThreads();
    const bool traced = args.num("trace", 0) != 0.0;
    SpanLog spans;
    SpanLog *log = traced ? &spans : nullptr;

    // Set-up: everything before the first unit of work.
    model::StudyOptions options;
    std::int64_t setup_t0 = telemetry::nowNs();
    {
        scenario::ResolvedScenario rs;
        {
            ScopedSpan span(log, "scenario::loadFile");
            rs = scenario::loadFile(root + "/scenarios/paper_3tier.wcnn");
        }
        ScopedSpan span(log, "scenario::studyOptionsFor");
        options = scenario::studyOptionsFor(rs);
    }
    const double load_ms = seconds(setup_t0, telemetry::nowNs()) * 1e3;
    options.designSamples = kDesignSamples;
    options.replicates = kReplicates;
    options.sliceAnchorsPerAxis = kAnchorsPerAxis;
    options.seed = kStudySeed;
    options.tune = true;
    options.threads = threads;

    std::printf("ready\n");
    std::fflush(stdout);
    std::string command;
    if (!std::getline(std::cin, command) || command != "run")
        return 0;

    std::int64_t origin_ns = 0;
    if (traced) {
        telemetry::reset();
        telemetry::setEnabled(true);
        telemetry::emitInstant("perfbench.origin");
        origin_ns = telemetry::nowNs();
        origin_ns -= telemetry::collectEvents().back().tsNs;
    }

    // Timed phase: first unit of work -> top-5 recommendation.
    const std::int64_t t0 = telemetry::nowNs();
    const std::int64_t pipeline_span =
        traced ? spans.open("pipeline") : -1;
    model::StudyResult study;
    {
        ScopedSpan span(log, "model::runStudy", pipeline_span);
        study = model::runStudy(options);
    }
    const data::Dataset &dataset = study.dataset;
    const model::CvResult &cv = study.cv;
    const model::NnModel &surrogate = study.finalModel;
    std::vector<model::SurfaceAnalysis> shapes;
    for (const std::size_t indicator : {0, 1, 4}) {
        model::SurfaceGrid grid;
        {
            ScopedSpan span(log, "model::sweepSurface", pipeline_span);
            grid = model::sweepSurface(surrogate,
                                       paperSlice(indicator, threads),
                                       dataset);
        }
        ScopedSpan span(log, "model::classifySurface", pipeline_span);
        shapes.push_back(model::classifySurface(grid));
    }
    std::vector<model::Recommendation> top;
    {
        ScopedSpan span(log, "model::Recommender::recommend", pipeline_span);
        const model::Recommender rec(surrogate, recommendGrid());
        top = rec.recommend(model::ScoringFunction::forWorkload(dataset), 5);
    }
    const std::int64_t t1 = telemetry::nowNs();
    if (traced) {
        spans.close(pipeline_span);
        telemetry::setEnabled(false);
    }

    // The fitted surrogate as a serving bundle, for the what-if phase.
    const std::string bundle_out = args.str("bundle-out", "");
    if (!bundle_out.empty())
        serve::ModelBundle::fromModel(surrogate, dataset.inputs(),
                                      dataset.outputs(), "perfbench")
            .save(bundle_out);

    // Checks (Table 2 criteria, Fig 7/8 shapes, nothing dropped).
    Checks checks;
    const std::size_t expected_rows =
        kDesignSamples + kAnchorsPerAxis * kAnchorsPerAxis;
    checks.add("no_configuration_dropped",
               dataset.size() == expected_rows &&
                   study.collection.dropped() == 0);
    checks.add("no_tuning_candidate_quarantined",
               study.tuning.failedCount() == 0);
    checks.add("no_fold_quarantined", cv.failedCount() == 0);
    bool small = true;
    for (const double e : cv.averageValidationError())
        small = small && e < 0.15;
    checks.add("indicator_errors_below_15pct", small);
    checks.add("overall_accuracy_at_least_90pct", cv.overallAccuracy() >= 0.90);
    checks.add("purchase_rt_surface_is_valley",
               shapes[1].cls == model::SurfaceClass::Valley);
    checks.add("throughput_surface_is_hill",
               shapes[2].cls == model::SurfaceClass::Hill);
    checks.add("top5_recommended", top.size() == 5);

    // Data layer: the frozen CSV, loaded after the timed phase.
    data::Dataset frozen;
    const std::int64_t csv_t0 = telemetry::nowNs();
    {
        ScopedSpan span(log, "data::loadCsv");
        frozen = data::loadCsv(frozen_csv);
    }
    const double csv_load_ms = seconds(csv_t0, telemetry::nowNs()) * 1e3;

    JsonObject info;
    const std::string digest = data::csvDigest(dataset);
    info.str("dataset_digest", digest);
    info.flag("dataset_matches_frozen_csv", digest == data::csvDigest(frozen));
    info.count("tuned_hidden_units", study.tunedNn.hiddenUnits.at(0));
    info.num("tuned_target_loss", study.tunedNn.train.targetLoss);
    info.str("cv_digest", cvDigest(cv));
    info.str("surrogate_digest", surrogateDigest(surrogate, dataset));
    info.str("fig4_mfg_rt_shape", model::surfaceClassName(shapes[0].cls));
    info.str("fig7_purchase_rt_shape", model::surfaceClassName(shapes[1].cls));
    info.str("fig8_throughput_shape", model::surfaceClassName(shapes[2].cls));
    info.count("threads", threads);

    JsonObject result;
    result.flag("ok", checks.ok());
    result.num("load_ms", load_ms);
    result.num("wall_s", seconds(t0, t1));
    result.num("cv_accuracy_pct", cv.overallAccuracy() * 100.0);
    result.raw("checks", checks.json());

    if (traced) {
        const std::vector<ProgramSpan> program = programSpans(origin_ns);
        JsonObject layers;
        const double wall = seconds(t0, t1);
        const std::vector<Span> own = spans.spans();
        double stage_sum = 0.0;
        for (const Span &s : own)
            if (s.parent == pipeline_span)
                stage_sum += seconds(s.startNs, s.endNs);
        addProgramSpans(spans, program);

        const SpanTotals collect = totals(program, "collect.simulated");
        const SpanTotals configs = totals(program, "collect.config");
        const SpanTotals grid = totals(program, "grid");
        const SpanTotals candidates = totals(program, "grid.candidate");
        const SpanTotals cv_total = totals(program, "cv");
        const SpanTotals folds = totals(program, "cv.fold");
        const double n_threads = static_cast<double>(threads);
        const auto eff = [n_threads](double work, double wall_s) {
            return wall_s > 0.0 ? work / (wall_s * n_threads) : 0.0;
        };
        std::size_t fits = 0, epochs = 0;
        double epoch_rows = 0.0, train_s = 0.0;
        for (const ProgramSpan &p : program) {
            if (p.name != "train")
                continue;
            fits += 1;
            epochs += p.epochs;
            epoch_rows += static_cast<double>(p.epochs) * p.arg0;
            train_s += seconds(p.startNs, p.endNs);
        }

        layers.num("trace.wall_s", wall);
        layers.num("trace.stage_sum_over_wall", stage_sum / wall);
        layers.num("scenario.load_ms", load_ms);
        layers.num("data.load_ms", csv_load_ms);
        layers.num("core.collect_eff", eff(configs.sum, collect.sum));
        layers.num("core.tune_eff", eff(candidates.sum, grid.sum));
        layers.num("core.cv_eff", eff(folds.sum, cv_total.sum));
        layers.num("model.cv_fold_max_over_mean",
                   folds.count > 0 ? folds.max / (folds.sum /
                                                  static_cast<double>(
                                                      folds.count))
                                   : 0.0);
        layers.count("nn.fits", fits);
        layers.count("nn.epochs", epochs);
        layers.num("nn.epoch_rows_per_s",
                   train_s > 0.0 ? epoch_rows / train_s : 0.0);
        layers.num("model.tune_s", grid.sum);
        layers.num("model.cv_s", cv_total.sum);
        layers.num("model.final_fit_s",
                   totals(program, "study.final_fit").sum);
        layers.num("model.sweep_ms",
                   spans.totalSeconds("model::sweepSurface") * 1e3 +
                       spans.totalSeconds("model::classifySurface") * 1e3);
        layers.num("model.recommend_ms",
                   spans.totalSeconds("model::Recommender::recommend") * 1e3);

        // Simulator layer: study's configurations run again with
        // diagnostics, outside the timed pipeline.
        const Resimulation sim = resimulate(options, dataset, threads, spans);
        layers.num("sim.collect_s", collect.sum);
        layers.count("sim.runs", sim.runs);
        layers.count("sim.events", sim.reproduced ? sim.events : 0);
        layers.num("sim.events_per_s",
                   sim.reproduced ? static_cast<double>(sim.events) /
                                        sim.runSecondsSum
                                  : 0.0);
        layers.num("sim.run_ms.p50", quantile(sim.runMs, 0.5));
        layers.num("sim.run_ms.max", sim.runMs.back());
        layers.flag("sim.reproduces_dataset", sim.reproduced);

        // Kernel layer: the frozen serving bundle's batched forward.
        const serve::ModelBundle bundle =
            serve::ModelBundle::load(data_dir + "/frozen.bundle");
        const std::int64_t numeric_span = spans.open("numeric");
        const double b64 = forwardRowsPerSecond(bundle, 64, spans,
                                                numeric_span);
        const double b8192 = forwardRowsPerSecond(bundle, 8192, spans,
                                                  numeric_span);
        spans.close(numeric_span);
        layers.num("numeric.forward_rows_per_s.b64", b64);
        layers.num("numeric.forward_rows_per_s.b8192", b8192);
        layers.num("numeric.forward_flops_per_row_computed",
                   forwardFlopsPerRow(bundle));

        JsonObject self;
        for (const auto &[name, ms] : spans.selfMs())
            self.num(name, ms);
        result.raw("layers", layers.text());
        result.raw("self_ms", self.text());
        const std::string out = args.str("trace-out", "");
        if (!out.empty())
            spans.writeJsonl(out);
    }

    result.raw("info", info.text());
    std::printf("result %s\n", result.text().c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}

} // namespace perfbench
