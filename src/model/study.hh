/**
 * @file
 * End-to-end characterization study: the whole paper pipeline in one
 * call.
 *
 * Collect samples by running the workload across a configuration design
 * (section 2.2) -> tune the MLP's node count and stop threshold on the
 * first trial (section 5, "the MLP node count and the termination
 * threshold were manually tuned for the first trial") -> k-fold cross
 * validate (section 3.3, Table 2) -> fit the final surrogate on all
 * samples for surface analysis and recommendation (section 5).
 */

#ifndef WCNN_MODEL_STUDY_HH
#define WCNN_MODEL_STUDY_HH

#include <cstdint>

#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/nn_model.hh"
#include "sim/sample_space.hh"

namespace wcnn {
namespace model {

/** Options for runStudy(). */
struct StudyOptions
{
    /** Where the samples come from. */
    enum class Source
    {
        Simulator, ///< discrete-event simulation (ground truth)
        Analytic,  ///< closed-form model (fast, for tests/smoke runs)
    };

    /** Sample source. */
    Source source = Source::Simulator;

    /** Latin-hypercube design size (the paper uses ~50 samples). */
    std::size_t designSamples = 64;

    /** Simulator runs averaged per configuration (paper section 4). */
    std::size_t replicates = 3;

    /**
     * Add a (defaultQueue x webQueue) grid at the paper's analysis
     * slice (injection 560, mfg queue 16) on top of the Latin
     * hypercube, so the fitted surrogate is well anchored where the
     * section-5 surfaces are drawn. 0 disables.
     */
    std::size_t sliceAnchorsPerAxis = 4;

    /** Configuration-space ranges. */
    sim::SampleSpace space = sim::SampleSpace::paperLike();

    /** Workload demand model. */
    sim::WorkloadParams params = sim::WorkloadParams::defaults();

    /**
     * Template for every collected configuration: the design only
     * varies the four swept axes; everything else (load model,
     * arrival process, population/think time, run windows) is taken
     * from this base. Scenarios lower their `arrivals`/`run` sections
     * here. The default base reproduces the historical study
     * bit-for-bit.
     */
    sim::ThreeTierConfig baseConfig{};

    /** Injection rate of the section-5 analysis slice anchors. */
    double anchorInjection = 560.0;

    /** Mfg queue size of the section-5 analysis slice anchors. */
    double anchorMfg = 16.0;

    /** Base NN hyperparameters (tuning may override two fields). */
    NnModelOptions nn{};

    /** Run the grid-search tuning protocol before cross validating. */
    bool tune = true;

    /** Tuning search space. */
    GridSearchOptions tuning{};

    /** Cross-validation protocol. */
    CvOptions cv{};

    /** Master seed for design, simulation and folds. */
    std::uint64_t seed = 2006;

    /**
     * Worker threads for the parallel stages (sample collection,
     * tuning, cross validation); 0 (default) selects the hardware
     * count, 1 runs serially. Every stage is bit-identical at every
     * thread count (see core/parallel.hh), so this only changes wall
     * time. Overrides the threads fields of `tuning` and `cv`.
     */
    std::size_t threads = 0;

    /**
     * Failure policy for the whole pipeline. True (default) preserves
     * the historical behavior: the first fault aborts the study. False
     * degrades gracefully — transient simulator faults are retried and
     * persistent ones drop their configuration (see
     * StudyResult::collection), failing tuning candidates and CV folds
     * are quarantined with per-item status, and only a stage with *no*
     * surviving work still throws. Overrides the onFailure fields of
     * `tuning` and `cv`.
     */
    bool strict = true;

    /** Retry budget per simulator run when strict is false. */
    std::size_t collectMaxAttempts = 3;
};

/** Everything the pipeline produces. */
struct StudyResult
{
    /** Collected sample collection. */
    data::Dataset dataset;

    /**
     * Collection bookkeeping: per-configuration retry and drop counts
     * (all Ok when the study ran strict or fault-free).
     */
    sim::CollectReport collection;

    /** NN options actually used (after tuning). */
    NnModelOptions tunedNn;

    /** Grid-search evidence (empty when tuning was disabled). */
    GridSearchResult tuning;

    /** Cross-validation outcome (the Table 2 data). */
    CvResult cv;

    /** Final model fitted on the full dataset (for surfaces etc.). */
    NnModel finalModel;
};

/**
 * Run the full pipeline: collect the design's samples, then
 * fitStudy() on them.
 *
 * @param options Study configuration.
 */
StudyResult runStudy(const StudyOptions &options = {});

/**
 * The model stages of runStudy() on an already collected dataset:
 * tune (when options.tune), cross validate and fit the final
 * surrogate, under the `study.tune`, `study.cv` and `study.final_fit`
 * spans. The result's `collection` is left empty.
 *
 * @param dataset Sample collection, as runStudy() would collect it.
 * @param options Study configuration; the collection fields are
 *                ignored.
 */
StudyResult fitStudy(data::Dataset dataset, const StudyOptions &options);

} // namespace model
} // namespace wcnn

#endif // WCNN_MODEL_STUDY_HH
