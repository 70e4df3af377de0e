/**
 * @file
 * ModelBundle: the deployable model artifact.
 *
 * The paper's surrogate is only useful if it can be *queried* long
 * after training, and a bare Mlp is not enough to query correctly:
 * predictions are computed as yStd.inverse(net.forward(xStd.transform(x))),
 * so the standardizer moments are as much "the model" as the weights
 * are. ModelBundle is the one artifact format: a versioned file
 * (`wcnn-bundle 1`) holding the network, both standardizers, and the
 * column schema (input/output names), so the CLI and the inference
 * server share a single load path and can never disagree on
 * standardization.
 *
 * ModelBundle implements model::PerformanceModel, so everything that
 * scores through a fitted model — the recommender, surface sweeps,
 * the serving forward — runs on a loaded bundle unchanged, and
 * ModelBundle::predict is bit-identical to NnModel::predict on the
 * same parameters by construction (same expression, same order).
 */

#ifndef WCNN_SERVE_BUNDLE_HH
#define WCNN_SERVE_BUNDLE_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "data/standardizer.hh"
#include "model/model.hh"
#include "nn/mlp.hh"

namespace wcnn {
namespace model {
class NnModel;
} // namespace model

namespace serve {

/**
 * Immutable deployable artifact: network + standardizers + schema.
 */
class ModelBundle : public model::PerformanceModel
{
  public:
    /** Empty bundle; load() or fromModel() before use. */
    ModelBundle() = default;

    /**
     * Bundle a fitted NnModel with its dataset schema.
     *
     * @param mdl          Fitted model (network + standardizers are
     *                     copied out).
     * @param input_names  Configuration-parameter names, one per
     *                     network input; must not contain whitespace.
     * @param output_names Indicator names, one per network output;
     *                     must not contain whitespace.
     * @param tag          Free-form version label stored in the
     *                     artifact (single token, e.g. "fit-2026-08").
     */
    static ModelBundle fromModel(const model::NnModel &mdl,
                                 std::vector<std::string> input_names,
                                 std::vector<std::string> output_names,
                                 std::string tag = "untagged");

    /** Assemble from parts (tests, hand-built bundles). */
    static ModelBundle fromParts(nn::Mlp net, data::Standardizer x_std,
                                 data::Standardizer y_std,
                                 std::vector<std::string> input_names,
                                 std::vector<std::string> output_names,
                                 std::string tag = "untagged");

    // PerformanceModel interface -------------------------------------

    /** Bundles are immutable; always a contract violation. */
    void fit(const data::Dataset &ds) override;

    /**
     * Predict indicators for one configuration. Bit-identical to
     * NnModel::predict on the same parameters.
     */
    numeric::Vector predict(const numeric::Vector &x) const override;

    using model::PerformanceModel::predictAll;

    /**
     * Batched prediction: the fused serving hot path,
     * Mlp::fusedForward with this bundle's standardizer moments.
     * Bit-identical to predict() per row (same scalar operations in
     * the same order).
     */
    numeric::Matrix predictAll(const numeric::Matrix &xs) const override;

    bool fitted() const override { return isLoaded; }

    std::string name() const override { return "model-bundle"; }

    // Schema ---------------------------------------------------------

    /** Configuration-parameter count n. */
    std::size_t inputDim() const { return net.inputDim(); }
    /** Indicator count m. */
    std::size_t outputDim() const { return net.outputDim(); }
    /** Input column names (size inputDim()). */
    const std::vector<std::string> &inputNames() const { return xNames; }
    /** Output column names (size outputDim()). */
    const std::vector<std::string> &outputNames() const { return yNames; }
    /** Version label stored in the artifact. */
    const std::string &tag() const { return versionTag; }
    /** The wrapped network. */
    const nn::Mlp &network() const { return net; }
    /** Input standardizer. */
    const data::Standardizer &inputTransform() const { return xStd; }
    /** Output standardizer. */
    const data::Standardizer &outputTransform() const { return yStd; }

    // Serialization --------------------------------------------------

    /**
     * Write the versioned `wcnn-bundle` artifact.
     *
     * @throws nn::SerializeError on I/O failure or schema names that
     *         cannot be tokenized (embedded whitespace).
     */
    void save(std::ostream &os) const;

    /** Write to a file. @throws nn::SerializeError on failure. */
    void save(const std::string &path) const;

    /**
     * Read a `wcnn-bundle 1` artifact.
     *
     * @throws nn::SerializeError on malformed input or any other
     *         magic (the message names the magic found).
     */
    static ModelBundle load(std::istream &is);

    /** Read from a file. @throws nn::SerializeError on failure. */
    static ModelBundle load(const std::string &path);

    /** Topology + schema summary for logs ("4 -> 16 logistic ..."). */
    std::string describe() const;

  private:
    nn::Mlp net;
    data::Standardizer xStd;
    data::Standardizer yStd;
    std::vector<std::string> xNames;
    std::vector<std::string> yNames;
    std::string versionTag = "untagged";
    bool isLoaded = false;
};

/** Shared-ownership handle the registry and its readers pass around. */
using BundlePtr = std::shared_ptr<const ModelBundle>;

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_BUNDLE_HH
