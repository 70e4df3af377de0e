/**
 * @file
 * Scenario-library sweep: collect a small design from every shipped
 * scenario and report per-scenario headline numbers (mean mfg
 * response time, mean effective throughput, collection wall time,
 * dataset digest). The digest is the same FNV-1a the golden suite
 * pins, so CI artifacts double as a determinism cross-check between
 * machines.
 *
 * Appends one JSON record per scenario to BENCH_scenarios.json in the
 * working directory (common.hh appendJsonRecord).
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "common.hh"
#include "core/telemetry.hh"
#include "data/csv.hh"
#include "numeric/rng.hh"
#include "scenario/library.hh"
#include "sim/sample_space.hh"

namespace {

using namespace wcnn;

double
columnMean(const data::Dataset &ds, std::size_t j)
{
    if (ds.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : ds.yColumn(j))
        sum += v;
    return sum / static_cast<double>(ds.size());
}

void
appendRecord(const std::string &name, const char *arrival,
             std::size_t rows, double mfg_rt, double tput,
             double seconds, const std::string &digest)
{
    std::ostringstream record;
    record << "  {\"bench\": \"bench_scenarios\", \"scenario\": \""
           << name << "\", \"arrival\": \"" << arrival
           << "\", \"rows\": " << rows
           << ", \"mfg_rt_mean_s\": " << mfg_rt
           << ", \"effective_tput_mean\": " << tput
           << ", \"collect_seconds\": " << seconds
           << ", \"dataset_digest\": \"" << digest << "\"}";

    bench::appendJsonRecord("BENCH_scenarios.json", record.str());
}

} // namespace

int
main()
{
    std::printf("%-24s %-8s %5s %12s %12s %9s  %s\n", "scenario",
                "arrival", "rows", "mfg_rt(s)", "tput(req/s)",
                "wall(s)", "digest");

    for (const std::string &name : scenario::libraryNames()) {
        const scenario::ResolvedScenario rs = scenario::loadNamed(name);

        numeric::Rng rng(2006);
        auto configs = sim::latinHypercubeDesign(rs.space, 6, rng);
        scenario::applyBase(rs, configs);
        for (sim::ThreeTierConfig &cfg : configs) {
            // Bench budget: short windows; the full declared windows
            // run in `wcnn fit --scenario` and the golden suite.
            cfg.warmup = 5.0;
            cfg.measure = 20.0;
        }

        data::Dataset ds;
        const double wall =
            core::telemetry::timedSeconds("bench.scenarios", [&] {
                ds = sim::collectSimulated(configs, rs.params, 1, 1, 1);
            });

        const double mfg_rt = columnMean(ds, 0);
        const double tput = columnMean(ds, 4);
        const std::string digest = data::csvDigest(ds);
        const char *arrival =
            sim::arrivalKindName(rs.base.arrival.kind);

        std::printf("%-24s %-8s %5zu %12.4f %12.1f %9.2f  %s\n",
                    name.c_str(), arrival, ds.size(), mfg_rt, tput,
                    wall, digest.c_str());
        appendRecord(name, arrival, ds.size(), mfg_rt, tput, wall,
                     digest);
    }
    return 0;
}
