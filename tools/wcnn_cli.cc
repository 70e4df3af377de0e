/**
 * @file
 * wcnn — command-line front end to the workload-characterization
 * library. Subcommands cover the full paper pipeline on files, so the
 * method can be scripted without writing C++:
 *
 *   wcnn simulate  --web 18 --default 10           one simulator run
 *   wcnn collect   --samples 64 --out s.csv        build a sample set
 *   wcnn fit       --data s.csv --out m.bundle --cv   train + Table 2
 *   wcnn predict   --model m.bundle --config 560,10,16,18
 *   wcnn predict   --model m.bundle --stdin        stream CSV configs
 *   wcnn surface   --model m.bundle --indicator 1  slice + taxonomy
 *   wcnn recommend --model m.bundle --data s.csv   top configurations
 *   wcnn serve     --model m.bundle --port 7071    inference server
 *   wcnn scenario  --list                          workload scenarios
 *   wcnn lifecycle replay --journal j --model m.bundle   offline replay
 *
 * fit writes a ModelBundle artifact (network + standardizers +
 * schema); predict/surface/recommend/serve all load it through
 * ModelBundle::load, which accepts only that format.
 * tools/serve_smoke.py runs `wcnn serve` end to end and checks each
 * reply against `wcnn predict --stdin`.
 *
 * Every subcommand prints --help with its flags.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/error.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "data/csv.hh"
#include "lifecycle/controller.hh"
#include "lifecycle/host.hh"
#include "lifecycle/journal.hh"
#include "lifecycle/replay.hh"
#include "model/classify.hh"
#include "model/cross_validation.hh"
#include "model/nn_model.hh"
#include "model/recommender.hh"
#include "model/surface.hh"
#include "model/study.hh"
#include "numeric/rng.hh"
#include "scenario/library.hh"
#include "serve/bundle.hh"
#include "serve/event_server.hh"
#include "sim/sample_space.hh"

namespace {

using namespace wcnn;

/** Minimal --key value / --flag parser. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                std::fprintf(stderr, "unexpected argument: %s\n",
                             key.c_str());
                std::exit(2);
            }
            key = key.substr(2);
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values[key] = argv[++i];
            } else {
                values[key] = "";
            }
        }
    }

    bool has(const std::string &key) const
    {
        return values.count(key) > 0;
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        const auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    double
    num(const std::string &key, double fallback) const
    {
        const auto it = values.find(key);
        return it == values.end() ? fallback
                                  : std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> values;
};

/** Parse "a,b,c,d" into a vector. */
numeric::Vector
parseCsvNumbers(const std::string &text)
{
    numeric::Vector out;
    std::istringstream is(text);
    std::string field;
    while (std::getline(is, field, ','))
        out.push_back(std::stod(field));
    return out;
}

/** --scenario accepts a library name or a path to a .wcnn file. */
scenario::ResolvedScenario
loadScenarioArg(const std::string &arg)
{
    const bool is_path = arg.find('/') != std::string::npos ||
                         (arg.size() > 5 &&
                          arg.compare(arg.size() - 5, 5, ".wcnn") == 0);
    return is_path ? scenario::loadFile(arg) : scenario::loadNamed(arg);
}

sim::ThreeTierConfig
configFromArgs(const Args &args, const sim::ThreeTierConfig &base)
{
    sim::ThreeTierConfig cfg = base;
    cfg.injectionRate = args.num("inj", cfg.injectionRate);
    cfg.defaultQueue = args.num("default", cfg.defaultQueue);
    cfg.mfgQueue = args.num("mfg", cfg.mfgQueue);
    cfg.webQueue = args.num("web", cfg.webQueue);
    cfg.seed = static_cast<std::uint64_t>(args.num("seed", 1));
    cfg.warmup = args.num("warmup", cfg.warmup);
    cfg.measure = args.num("measure", cfg.measure);
    if (args.has("closed")) {
        cfg.loadModel = sim::LoadModel::Closed;
        cfg.population = static_cast<std::size_t>(args.num(
            "population", static_cast<double>(cfg.population)));
        cfg.thinkTime = args.num("think", cfg.thinkTime);
    }
    return cfg;
}

int
cmdSimulate(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn simulate [--scenario NAME|FILE.wcnn] [--inj R] "
                  "[--default N] [--mfg N]\n"
                  "              [--web N] [--seed S] [--warmup S] "
                  "[--measure S]\n"
                  "              [--closed --population N --think S]\n"
                  "\n"
                  "--scenario starts from a scenario's operating point "
                  "(arrival process,\n"
                  "pools, demands); the other flags override on top.");
        return 0;
    }
    sim::ThreeTierConfig base;
    sim::WorkloadParams params = sim::WorkloadParams::defaults();
    if (args.has("scenario")) {
        const scenario::ResolvedScenario rs =
            loadScenarioArg(args.str("scenario", ""));
        base = rs.base;
        params = rs.params;
    }
    const sim::ThreeTierConfig cfg = configFromArgs(args, base);
    sim::RunDiagnostics diag;
    const sim::PerfSample sample =
        sim::simulateThreeTier(cfg, params, &diag);
    const auto names = sim::PerfSample::indicatorNames();
    const auto values = sample.toVector();
    for (std::size_t j = 0; j < names.size(); ++j)
        std::printf("%-22s %.4f\n", names[j].c_str(), values[j]);
    std::printf("%-22s %llu\n", "requests",
                static_cast<unsigned long long>(diag.injected));
    std::printf("%-22s %zu\n", "events",
                diag.eventsProcessed);
    return 0;
}

int
cmdCollect(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn collect --out FILE.csv [--samples N] "
                  "[--design lhs|random|grid|factorial]\n"
                  "             [--scenario NAME|FILE.wcnn] "
                  "[--replicates N] [--seed S] [--analytic]\n"
                  "             [--retries N] [--quarantine]\n"
                  "\n"
                  "  --scenario      design over the scenario's space "
                  "and run its workload\n"
                  "  --retries N     attempts per replicate for "
                  "transient sim faults (default 1)\n"
                  "  --quarantine    drop configurations whose "
                  "retries are exhausted instead of aborting");
        return 0;
    }
    const std::string out = args.str("out", "");
    if (out.empty()) {
        std::fputs("collect: --out FILE.csv is required\n", stderr);
        return 2;
    }
    const std::size_t n =
        static_cast<std::size_t>(args.num("samples", 64));
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    const std::string design = args.str("design", "lhs");

    sim::SampleSpace space = sim::SampleSpace::paperLike();
    sim::WorkloadParams params = sim::WorkloadParams::defaults();
    std::unique_ptr<scenario::ResolvedScenario> rs;
    if (args.has("scenario")) {
        rs = std::make_unique<scenario::ResolvedScenario>(
            loadScenarioArg(args.str("scenario", "")));
        space = rs->space;
        params = rs->params;
    }
    numeric::Rng rng(seed);
    std::vector<sim::ThreeTierConfig> configs;
    if (design == "lhs") {
        configs = sim::latinHypercubeDesign(space, n, rng);
    } else if (design == "random") {
        configs = sim::randomDesign(space, n, rng);
    } else if (design == "grid") {
        const auto per_axis = static_cast<std::size_t>(std::max(
            2.0, std::floor(std::pow(static_cast<double>(n), 0.25))));
        configs = sim::gridDesign(
            space, std::array<std::size_t, 4>{per_axis, per_axis,
                                              per_axis, per_axis});
    } else if (design == "factorial") {
        configs = sim::factorialDesign(space, n > 16 ? n - 16 : 1);
    } else {
        std::fprintf(stderr, "collect: unknown design '%s'\n",
                     design.c_str());
        return 2;
    }

    if (rs)
        scenario::applyBase(*rs, configs);

    data::Dataset ds;
    if (args.has("analytic")) {
        ds = sim::collectAnalytic(configs, params);
    } else {
        const auto replicates =
            static_cast<std::size_t>(args.num("replicates", 3));
        std::printf("simulating %zu configurations x %zu "
                    "replicates...\n",
                    configs.size(), replicates);
        sim::CollectOptions collect;
        collect.maxAttempts =
            static_cast<std::size_t>(args.num("retries", 1));
        collect.quarantine = args.has("quarantine");
        sim::CollectReport report;
        ds = sim::collectSimulated(configs, params, seed, replicates,
                                   collect, &report);
        if (report.retries() > 0 || report.dropped() > 0) {
            std::printf("collection: %zu retried attempts, %zu "
                        "configurations dropped\n",
                        report.retries(), report.dropped());
        }
    }
    data::saveCsv(ds, out);
    std::printf("wrote %zu samples to %s\n", ds.size(), out.c_str());
    return 0;
}

int
cmdFit(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn fit --data FILE.csv --out MODEL.bundle "
                  "[--units N] [--threshold T] [--cv] [--seed S] "
                  "[--tag LABEL]\n"
                  "wcnn fit --scenario NAME|FILE.wcnn --out "
                  "MODEL.bundle [--samples N]\n"
                  "         [--replicates N] [--threads N] [--tune] "
                  "[--units N] [--threshold T]\n"
                  "\n"
                  "With --scenario the full study pipeline runs "
                  "(collect under the scenario,\n"
                  "cross-validate, fit) instead of loading a CSV. It "
                  "runs on --threads\n"
                  "cores (default 0: all of them); the result is "
                  "bit-identical at any count.");
        return 0;
    }
    const std::string data_path = args.str("data", "");
    const std::string out = args.str("out", "");
    if (out.empty() ||
        (data_path.empty() && !args.has("scenario"))) {
        std::fputs("fit: --out and (--data | --scenario) are "
                   "required\n",
                   stderr);
        return 2;
    }

    if (data_path.empty()) {
        const scenario::ResolvedScenario rs =
            loadScenarioArg(args.str("scenario", ""));
        model::StudyOptions study = scenario::studyOptionsFor(rs);
        study.designSamples =
            static_cast<std::size_t>(args.num("samples", 64));
        study.replicates =
            static_cast<std::size_t>(args.num("replicates", 3));
        study.seed = static_cast<std::uint64_t>(args.num("seed", 2006));
        study.threads =
            static_cast<std::size_t>(args.num("threads", 0));
        study.tune = args.has("tune");
        study.nn.hiddenUnits = {
            static_cast<std::size_t>(args.num("units", 16))};
        study.nn.train.targetLoss = args.num("threshold", 0.02);
        std::printf("fit: running study for scenario '%s' (%zu "
                    "samples x %zu replicates)\n",
                    rs.name.c_str(), study.designSamples,
                    study.replicates);
        const model::StudyResult result = model::runStudy(study);
        std::fputs(model::formatTable(result.cv).c_str(), stdout);
        std::printf("overall accuracy: %.1f %%\n",
                    100.0 * result.cv.overallAccuracy());
        const serve::ModelBundle bundle = serve::ModelBundle::fromModel(
            result.finalModel, result.dataset.inputs(),
            result.dataset.outputs(), args.str("tag", rs.name));
        bundle.save(out);
        std::printf("trained %s on %zu samples -> %s\n",
                    result.finalModel.network().describe().c_str(),
                    result.dataset.size(), out.c_str());
        return 0;
    }
    const data::Dataset ds = data::loadCsv(data_path);
    model::NnModelOptions opts;
    opts.hiddenUnits = {
        static_cast<std::size_t>(args.num("units", 16))};
    opts.train.targetLoss = args.num("threshold", 0.02);
    opts.seed = static_cast<std::uint64_t>(args.num("seed", 42));

    if (args.has("cv")) {
        model::CvOptions cv;
        cv.keepPredictions = false;
        const auto result = model::crossValidate(
            [&opts] { return std::make_unique<model::NnModel>(opts); },
            ds, cv);
        std::fputs(model::formatTable(result).c_str(), stdout);
        std::printf("overall accuracy: %.1f %%\n",
                    100.0 * result.overallAccuracy());
    }

    model::NnModel mdl(opts);
    mdl.fit(ds);
    // The artifact is a ModelBundle: weights + standardizer moments +
    // column schema, so every consumer standardizes identically.
    const serve::ModelBundle bundle = serve::ModelBundle::fromModel(
        mdl, ds.inputs(), ds.outputs(), args.str("tag", "untagged"));
    bundle.save(out);
    std::printf("trained %s on %zu samples -> %s\n",
                mdl.network().describe().c_str(), ds.size(),
                out.c_str());
    return 0;
}

int
cmdPredict(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn predict --model MODEL.bundle "
                  "(--config inj,default,mfg,web | --stdin)\n"
                  "\n"
                  "  --stdin    read one CSV configuration per line "
                  "and write one CSV\n"
                  "             prediction line per input line");
        return 0;
    }
    const std::string model_path = args.str("model", "");
    const std::string config = args.str("config", "");
    if (model_path.empty() || (config.empty() && !args.has("stdin"))) {
        std::fputs(
            "predict: --model and (--config | --stdin) are required\n",
            stderr);
        return 2;
    }
    const serve::ModelBundle mdl = serve::ModelBundle::load(model_path);

    if (args.has("stdin")) {
        // Streaming mode: the same load path the server uses, without
        // holding a process per prediction. Output precision is
        // round-trip so piping into a file loses nothing.
        std::string line;
        std::size_t line_no = 0;
        while (std::getline(std::cin, line)) {
            ++line_no;
            if (line.empty())
                continue;
            const numeric::Vector x = parseCsvNumbers(line);
            if (x.size() != mdl.inputDim()) {
                std::fprintf(stderr,
                             "predict: line %zu has %zu fields, "
                             "model expects %zu\n",
                             line_no, x.size(), mdl.inputDim());
                return 1;
            }
            const numeric::Vector y = mdl.predict(x);
            for (std::size_t j = 0; j < y.size(); ++j)
                std::printf(j + 1 < y.size() ? "%.17g," : "%.17g\n",
                            y[j]);
        }
        return 0;
    }

    const numeric::Vector x = parseCsvNumbers(config);
    if (x.size() != mdl.inputDim()) {
        std::fprintf(stderr,
                     "predict: --config needs %zu numbers\n",
                     mdl.inputDim());
        return 2;
    }
    const numeric::Vector y = mdl.predict(x);
    const auto &names = mdl.outputNames();
    for (std::size_t j = 0; j < y.size(); ++j) {
        std::printf("%-22s %.4f\n",
                    j < names.size() ? names[j].c_str() : "y",
                    y[j]);
    }
    return 0;
}

int
cmdSurface(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn surface --model MODEL.bundle [--indicator K] "
                  "[--inj R] [--mfg N]");
        return 0;
    }
    const std::string model_path = args.str("model", "");
    if (model_path.empty()) {
        std::fputs("surface: --model is required\n", stderr);
        return 2;
    }
    const serve::ModelBundle mdl = serve::ModelBundle::load(model_path);

    model::SurfaceRequest req;
    req.axisA = 1;
    req.axisB = 3;
    req.indicator =
        static_cast<std::size_t>(args.num("indicator", 1));
    req.fixed = {args.num("inj", 560.0), 0.0, args.num("mfg", 16.0),
                 0.0};
    req.loA = 0.0;
    req.hiA = 20.0;
    req.loB = 14.0;
    req.hiB = 20.0;
    req.pointsA = 11;
    req.pointsB = 7;

    data::Dataset schema(mdl.inputNames(), mdl.outputNames());
    const auto grid = model::sweepSurface(mdl, req, schema);
    std::printf("%s  [%s]\n", grid.sliceLabel.c_str(),
                grid.indicatorName.c_str());
    std::fputs(grid.toText().c_str(), stdout);
    std::fputs(grid.toHeatmap().c_str(), stdout);
    std::printf("classification: %s\n",
                model::classifySurface(grid).describe().c_str());
    return 0;
}

int
cmdRecommend(const Args &args)
{
    if (args.has("help")) {
        std::puts("wcnn recommend --model MODEL.bundle --data FILE.csv "
                  "[--top K] [--inj R]\n"
                  "               [--scenario NAME|FILE.wcnn]\n"
                  "\n"
                  "--scenario searches the scenario's configuration "
                  "space (axis ranges from\n"
                  "its sample space) instead of the paper's default "
                  "grid; --inj still pins\n"
                  "the injection rate (default: the scenario's "
                  "midpoint).");
        return 0;
    }
    const std::string model_path = args.str("model", "");
    const std::string data_path = args.str("data", "");
    if (model_path.empty() || data_path.empty()) {
        std::fputs("recommend: --model and --data are required\n",
                   stderr);
        return 2;
    }
    const serve::ModelBundle mdl = serve::ModelBundle::load(model_path);
    const data::Dataset ds = data::loadCsv(data_path);
    const auto k = static_cast<std::size_t>(args.num("top", 5));

    // Default axes: the paper's exploration grid. With --scenario the
    // axes come from that scenario's sample space instead, one grid
    // point per integer step of the queue axes.
    std::vector<model::SearchAxis> axes;
    if (args.has("scenario")) {
        const scenario::ResolvedScenario rs =
            loadScenarioArg(args.str("scenario", ""));
        const sim::SampleSpace &space = rs.space;
        const double inj = args.num(
            "inj",
            0.5 * (space.injectionRate.lo + space.injectionRate.hi));
        const auto queue_axis = [](const sim::ParameterRange &range) {
            const auto points = static_cast<std::size_t>(
                range.hi - range.lo + 1.0);
            return model::SearchAxis{range.lo, range.hi,
                                     points > 1 ? points : 1};
        };
        axes = {model::SearchAxis{inj, inj, 1},
                queue_axis(space.defaultQueue),
                queue_axis(space.mfgQueue), queue_axis(space.webQueue)};
    } else {
        const double inj = args.num("inj", 560.0);
        axes = {model::SearchAxis{inj, inj, 1},
                model::SearchAxis{0, 20, 21},
                model::SearchAxis{12, 24, 13},
                model::SearchAxis{14, 20, 7}};
    }
    model::Recommender rec(mdl, axes);
    const auto top =
        rec.recommend(model::ScoringFunction::forWorkload(ds), k);
    std::printf("%4s %28s %12s %12s\n", "#",
                "(inj, default, mfg, web)", "tput", "score");
    for (std::size_t i = 0; i < top.size(); ++i) {
        const auto &r = top[i];
        std::printf("%4zu      (%.0f, %2.0f, %2.0f, %2.0f)%17.1f "
                    "%12.3f\n",
                    i + 1, r.config[0], r.config[1], r.config[2],
                    r.config[3], r.predicted[4], r.score);
    }
    return 0;
}

/**
 * Serving options from the flags, or nothing, after a usage line
 * naming the flag, when a count is out of range. A bare cast would
 * wrap `--port 70000` to 4464 and `--max-batch -1` to 2^64 - 1.
 */
std::optional<serve::ServeOptions>
serveOptionsFromArgs(const Args &args)
{
    serve::ServeOptions opts;
    const auto whole = [&args](const char *key, auto &out, double lo,
                               double hi) {
        const double v = args.num(key, static_cast<double>(out));
        if (!(v >= lo && v <= hi && v == std::floor(v))) {
            std::fprintf(stderr,
                         "serve: --%s must be a whole number in "
                         "[%.0f, %.0f]\n",
                         key, lo, hi);
            return false;
        }
        out = static_cast<std::remove_reference_t<decltype(out)>>(v);
        return true;
    };
    constexpr double kMaxCount = 9007199254740992.0; // 2^53
    opts.host = args.str("host", opts.host);
    opts.idleTimeoutMs = static_cast<int>(
        args.num("idle-ms", opts.idleTimeoutMs));
    if (!whole("port", opts.port, 0, 65535) ||
        !whole("max-conn", opts.maxConnections, 1, kMaxCount) ||
        !whole("max-batch", opts.maxBatch, 1, kMaxCount) ||
        !whole("cache", opts.cache.capacity, 0, kMaxCount))
        return std::nullopt;
    return opts;
}

/** Lifecycle knobs shared by `serve --lifecycle` and
 *  `lifecycle replay`; every knob has the library default. */
lifecycle::LifecycleOptions
lifecycleOptionsFromArgs(const Args &args)
{
    lifecycle::LifecycleOptions opts;
    opts.drift.window = static_cast<std::size_t>(args.num(
        "drift-window", static_cast<double>(opts.drift.window)));
    opts.drift.threshold =
        args.num("drift-threshold", opts.drift.threshold);
    opts.drift.patience = static_cast<std::size_t>(args.num(
        "drift-patience", static_cast<double>(opts.drift.patience)));
    opts.retrain.seed = static_cast<std::uint64_t>(
        args.num("seed", static_cast<double>(opts.retrain.seed)));
    opts.retrain.model.train.maxEpochs =
        static_cast<std::size_t>(args.num(
            "epochs",
            static_cast<double>(opts.retrain.model.train.maxEpochs)));
    opts.retrainWindow = static_cast<std::size_t>(args.num(
        "retrain-window", static_cast<double>(opts.retrainWindow)));
    opts.shadowWindow = static_cast<std::size_t>(args.num(
        "shadow-window", static_cast<double>(opts.shadowWindow)));
    opts.historyLimit = static_cast<std::size_t>(args.num(
        "history", static_cast<double>(opts.historyLimit)));
    return opts;
}

int
cmdServe(const Args &args)
{
    if (args.has("help")) {
        std::puts(
            "wcnn serve --model MODEL.bundle [--port P] [--host H]\n"
            "           [--max-batch N] [--cache N] [--max-conn N] "
            "[--idle-ms MS]\n"
            "           [--duration SECONDS]\n"
            "           [--lifecycle] [--journal FILE] "
            "[lifecycle knobs]\n"
            "\n"
            "Serves predictions over TCP (binary frames or JSON "
            "lines on one port)\n"
            "from an epoll reactor with one event loop per core "
            "(at most 8).\n"
            "Each event loop answers what it reads: cache misses of "
            "one read run\n"
            "together as forwards of at most --max-batch rows, on "
            "that loop's thread.\n"
            "--lifecycle attaches the model-lifecycle controller to "
            "the observation\n"
            "stream: drift detection, shadow retraining and gated "
            "promotion driven\n"
            "by client `observe` frames. --journal appends every "
            "observation to FILE\n"
            "for offline `wcnn lifecycle replay`. Knobs: "
            "--drift-window, \n"
            "--drift-threshold, --drift-patience, --retrain-window, "
            "--shadow-window,\n"
            "--history, --seed, --epochs.\n"
            "Runs until stdin closes, or for --duration seconds; in "
            "foreground mode\n"
            "a line reading `rollback` re-promotes the previous "
            "bundle.");
        return 0;
    }
    const std::string model_path = args.str("model", "");
    if (model_path.empty()) {
        std::fputs("serve: --model is required\n", stderr);
        return 2;
    }
    std::optional<serve::ServeOptions> options =
        serveOptionsFromArgs(args);
    if (!options)
        return 2;
    auto bundle = std::make_shared<serve::ModelBundle>(
        serve::ModelBundle::load(model_path));

    serve::EventServer server(std::move(*options));
    server.deploy(bundle);

    // --lifecycle: hang the controller off the observation sink so
    // every `observe` frame feeds drift detection / shadow retraining.
    // The journal writer (if any) sees each record first, so an
    // offline `lifecycle replay` of the journal reproduces tonight's
    // decisions bit-for-bit.
    std::unique_ptr<lifecycle::EngineHost> host;
    std::unique_ptr<lifecycle::LifecycleController> controller;
    std::unique_ptr<lifecycle::JournalWriter> journal;
    if (args.has("lifecycle")) {
        host = std::make_unique<lifecycle::EngineHost>(server);
        controller = std::make_unique<lifecycle::LifecycleController>(
            *host, lifecycleOptionsFromArgs(args));
        const std::string journal_path = args.str("journal", "");
        if (!journal_path.empty())
            journal = std::make_unique<lifecycle::JournalWriter>(
                journal_path, bundle->inputDim(), bundle->outputDim());
        lifecycle::LifecycleController &ctl = *controller;
        lifecycle::JournalWriter *jw = journal.get();
        server.setObservationSink(
            [&ctl, jw](const numeric::Vector &x,
                       const numeric::Vector &predicted,
                       const numeric::Vector &observed) {
                if (jw != nullptr)
                    jw->append(lifecycle::ObservationRecord{
                        0, x, predicted, observed});
                ctl.record(x, predicted, observed);
            });
    }

    server.start();
    std::printf("serving %s on %s:%u (max-batch %zu, cache %zu)\n",
                bundle->describe().c_str(),
                server.options().host.c_str(), server.port(),
                server.options().maxBatch,
                server.options().cache.capacity);
    std::fflush(stdout);

    const double duration = args.num("duration", 0.0);
    if (duration > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(duration));
    } else {
        // Foreground mode: drain stdin; EOF (or a closed pipe) is the
        // shutdown signal, so `echo | wcnn serve ...` exits cleanly.
        // With --lifecycle, a line reading "rollback" restores the
        // previously displaced bundle.
        std::string line;
        while (std::getline(std::cin, line)) {
            if (controller != nullptr && line == "rollback") {
                if (controller->rollback())
                    std::printf("rollback: restored bundle, now v%llu\n",
                                static_cast<unsigned long long>(
                                    server.version()));
                else
                    std::puts("rollback: history is empty");
                std::fflush(stdout);
            }
        }
    }
    server.stop();

    const auto stats = server.stats();
    const auto cache = server.cacheStats();
    std::printf("served %llu requests (%llu errors) over %llu "
                "connections; %llu batches, max batch %zu rows; "
                "cache hit ratio %.3f\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.errors),
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.batches),
                stats.maxBatchRows, cache.hitRatio());
    if (controller != nullptr) {
        const lifecycle::LifecycleStats ls = controller->stats();
        std::printf("lifecycle: %llu records, %llu drifts, %llu "
                    "retrains, %llu promotions, %llu rejections, "
                    "%llu rollbacks (digest %s, v%llu)\n",
                    static_cast<unsigned long long>(ls.records),
                    static_cast<unsigned long long>(ls.drifts),
                    static_cast<unsigned long long>(ls.retrains),
                    static_cast<unsigned long long>(ls.promotions),
                    static_cast<unsigned long long>(ls.rejections),
                    static_cast<unsigned long long>(ls.rollbacks),
                    controller->digest().c_str(),
                    static_cast<unsigned long long>(server.version()));
    }
    return 0;
}

int
cmdScenario(const Args &args)
{
    if (args.has("help")) {
        std::puts(
            "wcnn scenario --list\n"
            "wcnn scenario --show NAME|FILE.wcnn\n"
            "wcnn scenario --check NAME|FILE.wcnn\n"
            "\n"
            "  --list    every shipped scenario with its arrival "
            "family and description\n"
            "  --show    canonical form plus the resolved operating "
            "point\n"
            "  --check   parse + resolve, reporting typed diagnostics "
            "(exit 1 on fault)");
        std::printf("\nScenario files live in %s; WCNN_SCENARIO_DIR "
                    "overrides.\n",
                    scenario::libraryDir().c_str());
        return 0;
    }
    if (args.has("list")) {
        for (const std::string &name : scenario::libraryNames()) {
            const scenario::ResolvedScenario rs =
                scenario::loadNamed(name);
            std::printf("%-24s %-8s %s\n", name.c_str(),
                        sim::arrivalKindName(rs.base.arrival.kind),
                        rs.description.c_str());
        }
        return 0;
    }
    if (args.has("show")) {
        const std::string arg = args.str("show", "");
        const bool is_path =
            arg.find('/') != std::string::npos ||
            (arg.size() > 5 &&
             arg.compare(arg.size() - 5, 5, ".wcnn") == 0);
        const std::string path =
            is_path ? arg
                    : scenario::libraryDir() + "/" + arg + ".wcnn";
        const scenario::ResolvedScenario rs = scenario::loadFile(path);
        std::fputs(scenario::canonicalForm(path).c_str(), stdout);
        std::printf("\n# resolved: arrivals %s, load %s, pools "
                    "(mfg %.0f, web %.0f, default %.0f), "
                    "injection %.1f, windows %g+%gs\n",
                    sim::arrivalKindName(rs.base.arrival.kind),
                    rs.base.loadModel == sim::LoadModel::Open
                        ? "open"
                        : "closed",
                    rs.base.mfgQueue, rs.base.webQueue,
                    rs.base.defaultQueue, rs.base.injectionRate,
                    rs.base.warmup, rs.base.measure);
        return 0;
    }
    if (args.has("check")) {
        const std::string arg = args.str("check", "");
        try {
            const scenario::ResolvedScenario rs = loadScenarioArg(arg);
            std::printf("%s: ok (scenario \"%s\")\n", arg.c_str(),
                        rs.name.c_str());
            return 0;
        } catch (const wcnn::Error &e) {
            // what() already leads with the kind ("scenario.parse:
            // line L, column C: ...").
            std::fprintf(stderr, "%s: %s\n", arg.c_str(), e.what());
            return 1;
        }
    }
    std::fputs("scenario: one of --list, --show, --check is "
               "required (see --help)\n",
               stderr);
    return 2;
}

int
cmdLifecycle(const std::string &sub, const Args &args)
{
    if (args.has("help") || sub.empty()) {
        std::puts(
            "wcnn lifecycle replay --journal FILE --model "
            "MODEL.bundle\n"
            "                      [--drift-window N] "
            "[--drift-threshold T]\n"
            "                      [--drift-patience N] "
            "[--retrain-window N]\n"
            "                      [--shadow-window N] [--history N] "
            "[--seed S]\n"
            "                      [--epochs N] [--out BUNDLE]\n"
            "\n"
            "Re-runs the drift -> retrain -> shadow -> promote loop "
            "over a journaled\n"
            "observation stream (see `wcnn serve --lifecycle "
            "--journal`). Decisions\n"
            "are a pure function of the records and the seed, so the "
            "replay\n"
            "reproduces a live run bit-identically; the printed "
            "decision digest is\n"
            "the value CI pins. --out saves the bundle left serving "
            "after the last\n"
            "record.");
        return sub.empty() && !args.has("help") ? 2 : 0;
    }
    if (sub != "replay") {
        std::fprintf(stderr,
                     "lifecycle: unknown subcommand '%s' (expected "
                     "'replay')\n",
                     sub.c_str());
        return 2;
    }
    const std::string journal_path = args.str("journal", "");
    const std::string model_path = args.str("model", "");
    if (journal_path.empty() || model_path.empty()) {
        std::fputs("lifecycle replay: --journal and --model are "
                   "required\n",
                   stderr);
        return 2;
    }
    const lifecycle::Journal journal =
        lifecycle::readJournal(journal_path);
    auto bundle = std::make_shared<serve::ModelBundle>(
        serve::ModelBundle::load(model_path));
    const lifecycle::ReplayResult result = lifecycle::replayJournal(
        journal, bundle, lifecycleOptionsFromArgs(args));

    for (const lifecycle::Decision &d : result.decisions)
        std::printf("decision: %s",
                    lifecycle::formatDecision(d).c_str());
    std::printf("records: %zu\n", result.records);
    std::printf("decisions: %zu\n", result.decisions.size());
    std::printf("digest: %s\n", result.digest.c_str());
    std::printf("version: %llu\n",
                static_cast<unsigned long long>(result.finalVersion));
    std::printf("bundle-digest: %s\n",
                result.finalBundleDigest.c_str());
    const lifecycle::LifecycleStats &ls = result.stats;
    std::printf("stats: drifts=%llu retrains=%llu promotions=%llu "
                "rejections=%llu\n",
                static_cast<unsigned long long>(ls.drifts),
                static_cast<unsigned long long>(ls.retrains),
                static_cast<unsigned long long>(ls.promotions),
                static_cast<unsigned long long>(ls.rejections));

    const std::string out_path = args.str("out", "");
    if (!out_path.empty() && result.finalBundle != nullptr) {
        result.finalBundle->save(out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

int
usage()
{
    std::puts(
        "wcnn — workload characterization with neural networks\n"
        "\n"
        "usage: wcnn <command> [--help] [flags]\n"
        "\n"
        "commands:\n"
        "  simulate    run the 3-tier workload simulator once\n"
        "  collect     build a (configuration -> indicators) sample "
        "set\n"
        "  scenario    list/show/check declarative workload "
        "scenarios\n"
        "  fit         train the non-linear model on a sample CSV\n"
        "  predict     evaluate a trained model at a configuration\n"
        "  surface     sweep and classify a (default, web) slice\n"
        "  recommend   rank configurations by a scoring function\n"
        "  serve       run the TCP inference server on a bundle\n"
        "  lifecycle   replay a journaled observation stream "
        "offline\n"
        "\n"
        "global flags:\n"
        "  --telemetry PREFIX    write PREFIX.jsonl + "
        "PREFIX.trace.json for the run\n"
        "  --telemetry-summary   print a metrics summary table at "
        "exit\n"
        "  --failpoints SPEC     arm fault-injection sites (also "
        "WCNN_FAILPOINTS)");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // `wcnn <cmd> ... --telemetry run` traces any subcommand.
    auto recorder =
        wcnn::core::telemetry::Recorder::fromArgs(argc, argv);
    // `wcnn <cmd> ... --failpoints "site=nth:2"` injects faults into
    // any subcommand (chaos drills; also via WCNN_FAILPOINTS).
    try {
        wcnn::core::failpoint::installFromArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wcnn: %s\n", e.what());
        return 2;
    }
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "lifecycle") {
        // Subverb form: `wcnn lifecycle replay --flags` — consume the
        // positional subverb before the flag parser sees it.
        const std::string sub =
            (argc > 2 && argv[2][0] != '-') ? argv[2] : "";
        const Args sub_args(argc, argv, sub.empty() ? 2 : 3);
        try {
            return cmdLifecycle(sub, sub_args);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "wcnn lifecycle: %s\n", e.what());
            return 1;
        }
    }
    const Args args(argc, argv, 2);
    try {
        if (cmd == "simulate")
            return cmdSimulate(args);
        if (cmd == "collect")
            return cmdCollect(args);
        if (cmd == "scenario")
            return cmdScenario(args);
        if (cmd == "fit")
            return cmdFit(args);
        if (cmd == "predict")
            return cmdPredict(args);
        if (cmd == "surface")
            return cmdSurface(args);
        if (cmd == "recommend")
            return cmdRecommend(args);
        if (cmd == "serve")
            return cmdServe(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wcnn %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return usage();
}
