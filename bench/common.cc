#include "common.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "data/csv.hh"
#include "sim/sample_space.hh"

namespace wcnn {
namespace bench {

namespace {

/** Dataset cache shared by all figure/table benches. */
const char *cachePath = "wcnn_bench_dataset.csv";

} // namespace

model::StudyOptions
canonicalOptions()
{
    model::StudyOptions opts;
    opts.source = model::StudyOptions::Source::Simulator;
    opts.designSamples = 64;
    opts.replicates = 3;
    opts.sliceAnchorsPerAxis = 5;
    opts.tune = false;
    opts.nn.hiddenUnits = {16};
    opts.nn.train.targetLoss = 0.02;
    opts.seed = 2006;
    return opts;
}

model::StudyResult
canonicalStudy(bool tune, std::size_t threads)
{
    model::StudyOptions opts = canonicalOptions();
    opts.tune = tune;
    opts.threads = threads;

    // Reuse the cached sample collection when present: the per-config
    // simulation dominates the study's cost and is seed-deterministic.
    std::ifstream probe(cachePath);
    if (probe.good()) {
        probe.close();
        data::Dataset ds = data::loadCsv(cachePath);
        std::printf("[common] loaded %zu cached samples from %s\n",
                    ds.size(), cachePath);
        return model::fitStudy(std::move(ds), opts);
    }

    std::printf("[common] collecting %zu configurations x %zu "
                "replicates from the simulator (first bench run "
                "pays this once)...\n",
                opts.designSamples +
                    opts.sliceAnchorsPerAxis * opts.sliceAnchorsPerAxis,
                opts.replicates);
    model::StudyResult result = model::runStudy(opts);
    data::saveCsv(result.dataset, cachePath);
    std::printf("[common] cached samples at %s\n", cachePath);
    return result;
}

model::SurfaceRequest
paperSlice(std::size_t indicator)
{
    model::SurfaceRequest req;
    req.axisA = 1; // default queue as x
    req.axisB = 3; // web queue as y
    req.indicator = indicator;
    req.fixed = {560.0, 0.0, 16.0, 0.0};
    req.loA = 0.0;
    req.hiA = 20.0;
    req.loB = 14.0;
    req.hiB = 20.0;
    req.pointsA = 11;
    req.pointsB = 7;
    return req;
}

void
printSurface(const model::SurfaceGrid &grid)
{
    std::printf("%s  [%s over (%s, %s)]\n", grid.sliceLabel.c_str(),
                grid.indicatorName.c_str(), grid.axisAName.c_str(),
                grid.axisBName.c_str());
    std::fputs(grid.toText().c_str(), stdout);
    std::fputs(grid.toHeatmap().c_str(), stdout);
}

model::SurfaceGrid
desSliceGrid(std::size_t indicator, std::size_t points_a,
             std::size_t points_b, std::size_t replicates)
{
    model::SurfaceGrid grid;
    grid.axisAName = "default_queue";
    grid.axisBName = "web_queue";
    grid.indicatorName =
        sim::PerfSample::indicatorNames()[indicator];
    grid.sliceLabel = "(560, x, 16, y) [simulated ground truth]";
    for (std::size_t i = 0; i < points_a; ++i) {
        grid.aValues.push_back(std::round(
            20.0 * static_cast<double>(i) /
            static_cast<double>(points_a - 1)));
    }
    for (std::size_t j = 0; j < points_b; ++j) {
        grid.bValues.push_back(std::round(
            14.0 + 6.0 * static_cast<double>(j) /
                       static_cast<double>(points_b - 1)));
    }
    grid.z = numeric::Matrix(points_a, points_b);
    const auto params = sim::WorkloadParams::defaults();
    std::uint64_t seed = 77000;
    for (std::size_t i = 0; i < points_a; ++i) {
        for (std::size_t j = 0; j < points_b; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < replicates; ++r) {
                sim::ThreeTierConfig cfg;
                cfg.injectionRate = 560.0;
                cfg.mfgQueue = 16.0;
                cfg.warmup = 40.0;
                cfg.measure = 240.0;
                cfg.defaultQueue = grid.aValues[i];
                cfg.webQueue = grid.bValues[j];
                cfg.seed = seed++;
                acc += sim::simulateThreeTier(cfg, params)
                           .toVector()[indicator];
            }
            grid.z(i, j) = acc / static_cast<double>(replicates);
        }
    }
    return grid;
}

void
printVerdict(const std::string &what, bool pass)
{
    std::printf("  [%s] %s\n", pass ? "PASS" : "MISS", what.c_str());
}

void
printHeader(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

void
appendJsonRecord(const std::string &path, const std::string &record)
{
    std::string body;
    {
        std::ifstream in(path);
        if (in.good()) {
            std::ostringstream all;
            all << in.rdbuf();
            body = all.str();
        }
    }
    // Drop the closing bracket, add the record, close again.
    const auto end = body.find_last_of(']');
    std::ofstream out(path, std::ios::trunc);
    if (end == std::string::npos) {
        out << "[\n" << record << "\n]\n";
    } else {
        body.erase(end);
        while (!body.empty() &&
               (body.back() == '\n' || body.back() == ' '))
            body.pop_back();
        out << body << ",\n" << record << "\n]\n";
    }
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

} // namespace bench
} // namespace wcnn
