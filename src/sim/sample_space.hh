/**
 * @file
 * Experiment designs over the configuration space and dataset
 * collection.
 *
 * "A set of training samples are collected by running the identical
 * application under various configurations" (paper section 2.2). This
 * module generates those configuration sets — full grids, uniform random
 * draws, and Latin hypercube designs — and runs each through the
 * simulator (or the analytic model) to build a data::Dataset with the
 * paper's column names.
 */

#ifndef WCNN_SIM_SAMPLE_SPACE_HH
#define WCNN_SIM_SAMPLE_SPACE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "sim/analytic_surface.hh"
#include "sim/three_tier.hh"

namespace wcnn {
namespace numeric {
class Rng;
} // namespace numeric

namespace sim {

/** Closed range of one configuration axis. */
struct ParameterRange
{
    /** Inclusive lower bound. */
    double lo = 0.0;
    /** Inclusive upper bound. */
    double hi = 0.0;
    /** Round sampled values to integers (thread counts). */
    bool integral = false;
};

/** Ranges of the four configuration axes. */
struct SampleSpace
{
    ParameterRange injectionRate{500.0, 620.0, false};
    ParameterRange defaultQueue{0.0, 20.0, true};
    ParameterRange mfgQueue{12.0, 24.0, true};
    ParameterRange webQueue{14.0, 20.0, true};

    /**
     * The region the paper's analysis explores: injection around 560,
     * default 0-20, mfg around 16, web 14-20.
     */
    static SampleSpace paperLike();
};

/**
 * Full-factorial grid with the given number of points per axis.
 *
 * @param space  Axis ranges.
 * @param points Points per axis (injection, default, mfg, web); each
 *               must be >= 1.
 * @return points[0]*points[1]*points[2]*points[3] configurations.
 */
std::vector<ThreeTierConfig>
gridDesign(const SampleSpace &space,
           const std::array<std::size_t, 4> &points);

/**
 * Uniform random design.
 *
 * @param space Axis ranges.
 * @param n     Number of configurations.
 * @param rng   Generator.
 */
std::vector<ThreeTierConfig> randomDesign(const SampleSpace &space,
                                          std::size_t n,
                                          numeric::Rng &rng);

/**
 * Latin hypercube design: each axis is divided into n strata and each
 * stratum is used exactly once, giving much better space coverage than
 * uniform random for small n.
 *
 * @param space Axis ranges.
 * @param n     Number of configurations.
 * @param rng   Generator.
 */
std::vector<ThreeTierConfig> latinHypercubeDesign(const SampleSpace &space,
                                                  std::size_t n,
                                                  numeric::Rng &rng);

/**
 * Two-level full-factorial design with center points — the Design of
 * Experiments style used by the linear-model prior work the paper
 * compares against (refs [2, 20, 21]): every corner of the
 * configuration hypercube (2^4 = 16 runs) plus replicated center
 * points to expose curvature.
 *
 * @param space         Axis ranges.
 * @param center_points Number of center-point runs appended.
 */
std::vector<ThreeTierConfig> factorialDesign(const SampleSpace &space,
                                             std::size_t center_points
                                             = 1);

/** Maps a configuration to its 5 indicators. */
using SampleFn = std::function<PerfSample(const ThreeTierConfig &)>;

/** Collection policy: worker threads, retries, and drop handling. */
struct CollectOptions
{
    /** Worker threads (core::parallelFor); 0 = hardware count. */
    std::size_t threads = 0;

    /**
     * Total attempts per sampler run. A transient wcnn::SimFault is
     * retried with the *same* seed — a successful retry is
     * indistinguishable from a run that never faulted, which is what
     * makes chaos runs with fully-retried faults bit-identical to
     * clean runs. Non-transient faults are never retried.
     */
    std::size_t maxAttempts = 3;

    /**
     * After retries are exhausted (or on a non-transient fault): true
     * drops the configuration (recorded in the CollectReport, its row
     * omitted from the dataset); false (default) propagates the fault.
     */
    bool quarantine = false;

    /**
     * Backoff base in seconds between attempts; attempt a waits
     * base * 2^a (capped; see core::failpoint::backoffSeconds). The
     * schedule is a pure function of the attempt number — never
     * randomized — so retried runs replay deterministically. <= 0
     * (default) skips waiting entirely, which is right for in-process
     * simulators; collection against a real testbed would set ~0.01.
     */
    double backoffBase = 0.0;
};

/** Per-configuration collection outcome. */
struct ConfigStatus
{
    enum class State
    {
        Ok,      ///< sampled (possibly after retries)
        Dropped, ///< quarantined; row omitted from the dataset
    };

    State state = State::Ok;

    /** Faulted attempts that were retried. */
    std::size_t retries = 0;

    /** what() of the final failure; empty unless Dropped. */
    std::string error;
};

/** Bookkeeping of one collection run. */
struct CollectReport
{
    /** One entry per input configuration, in configs order. */
    std::vector<ConfigStatus> configs;

    /** Total retried attempts across configurations. */
    std::size_t retries() const;

    /** Number of dropped configurations. */
    std::size_t dropped() const;
};

/**
 * Run every configuration through a sampler and assemble the dataset
 * with the paper's input/output column names.
 *
 * @param configs Configurations to evaluate.
 * @param fn      Sampler (simulateThreeTier, analyticThreeTier, ...).
 *                Unless threads is 1 it is invoked concurrently, so it
 *                must be thread-safe and a pure function of its
 *                configuration (no shared counters).
 * @param threads Worker threads (core::parallelFor); 0 (default)
 *                selects the hardware count, 1 runs serially. Rows
 *                keep the configs order at every thread count.
 */
data::Dataset collectDataset(const std::vector<ThreeTierConfig> &configs,
                             const SampleFn &fn,
                             std::size_t threads = 0);

/**
 * As above with an explicit collection policy: transient
 * wcnn::SimFaults from the sampler are retried (same configuration,
 * bounded deterministic backoff) and optionally quarantined.
 *
 * @param configs Configurations to evaluate.
 * @param fn      Sampler; may throw wcnn::SimFault.
 * @param options Threads, retry budget, drop policy.
 * @param report  Optional per-configuration bookkeeping (retry and
 *                drop counts; dropped rows are omitted from the
 *                dataset but present in the report).
 * @throws wcnn::SimFault when retries are exhausted and
 *         options.quarantine is false.
 */
data::Dataset collectDataset(const std::vector<ThreeTierConfig> &configs,
                             const SampleFn &fn,
                             const CollectOptions &options,
                             CollectReport *report = nullptr);

/**
 * Convenience: collect with the discrete-event simulator. Each
 * configuration is run `replicates` times under distinct seeds and the
 * indicators averaged — the paper likewise reduces each configuration
 * to "the averages of collected counter values ... to reduce the effect
 * of sampling error" (section 4).
 *
 * Replicate seeds derive from (seed_base, config index, replicate):
 * configuration i, replicate r runs under seed_base + i*replicates + r
 * — the same assignment the historical serial counter produced — so
 * the dataset is bit-identical at every thread count.
 *
 * @param configs    Configurations to evaluate (seed field overwritten).
 * @param params     Demand model.
 * @param seed_base  First seed.
 * @param replicates Runs per configuration (>= 1).
 * @param threads    Worker threads; 0 selects the hardware count.
 */
data::Dataset collectSimulated(std::vector<ThreeTierConfig> configs,
                               const WorkloadParams &params,
                               std::uint64_t seed_base,
                               std::size_t replicates = 3,
                               std::size_t threads = 0);

/**
 * As above with an explicit collection policy. Each faulting
 * *replicate* is retried under its original seed (so a successful
 * retry reproduces the clean run bit-for-bit); a replicate whose
 * retries are exhausted drops — or propagates — the whole
 * configuration per options.quarantine.
 *
 * @param configs    Configurations to evaluate (seed field overwritten).
 * @param params     Demand model.
 * @param seed_base  First seed.
 * @param replicates Runs per configuration (>= 1).
 * @param options    Threads, retry budget, drop policy.
 * @param report     Optional per-configuration bookkeeping.
 * @throws wcnn::SimFault when retries are exhausted and
 *         options.quarantine is false.
 */
data::Dataset collectSimulated(std::vector<ThreeTierConfig> configs,
                               const WorkloadParams &params,
                               std::uint64_t seed_base,
                               std::size_t replicates,
                               const CollectOptions &options,
                               CollectReport *report = nullptr);

/**
 * Convenience: collect with the closed-form analytic model (fast,
 * deterministic; for tests and quick benches).
 *
 * @param configs Configurations to evaluate.
 * @param params  Demand model.
 * @param threads Worker threads; 0 selects the hardware count.
 */
data::Dataset collectAnalytic(const std::vector<ThreeTierConfig> &configs,
                              const WorkloadParams &params,
                              std::size_t threads = 0);

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_SAMPLE_SPACE_HH
