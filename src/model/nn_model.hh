/**
 * @file
 * The paper's proposal: an MLP-backed non-linear performance model.
 *
 * Wires together the full recipe of paper section 3:
 *  * standardize every configuration parameter (section 3.1),
 *  * standardize the indicators when fitting more than one jointly
 *    (section 3.1),
 *  * one n-to-m network rather than m n-to-1 networks, to capture the
 *    synthetic behaviour of the application (section 3.2),
 *  * gradient-descent back-propagation stopped at a loose error
 *    threshold to preserve flexibility (section 3.3).
 */

#ifndef WCNN_MODEL_NN_MODEL_HH
#define WCNN_MODEL_NN_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "data/standardizer.hh"
#include "model/model.hh"
#include "nn/mlp.hh"
#include "nn/trainer.hh"

namespace wcnn {
namespace model {

/** Configuration of an NnModel. */
struct NnModelOptions
{
    /** Hidden-layer unit counts (the output layer is added on top). */
    std::vector<std::size_t> hiddenUnits = {12};

    /** Hidden-layer activation (paper: logistic sigmoid). */
    nn::Activation hiddenActivation = nn::Activation::logistic();

    /**
     * Output-layer activation. Identity for regression over
     * standardized indicators (the conventional choice; a sigmoid output
     * cannot reach standardized values outside (0,1)).
     */
    nn::Activation outputActivation = nn::Activation::identity();

    /** Weight initialization rule. */
    nn::InitRule initRule = nn::InitRule::SmallUniform;

    /**
     * Back-propagation hyperparameters (see nn::TrainOptions). The
     * default stop threshold is deliberately loose (paper section 3.3).
     */
    nn::TrainOptions train = {.learningRate = 0.05,
                              .momentum = 0.9,
                              .maxEpochs = 4000,
                              .targetLoss = 0.02,
                              .recordHistory = false};

    /** Standardize the configuration parameters (paper section 3.1). */
    bool standardizeInputs = true;

    /**
     * Standardize the indicators; required when fitting multiple
     * indicators of different magnitudes jointly (paper section 3.1).
     */
    bool standardizeOutputs = true;

    /** Seed for weight init and sample shuffling. */
    std::uint64_t seed = 42;
};

/**
 * MLP-backed PerformanceModel.
 */
class NnModel : public PerformanceModel
{
  public:
    /**
     * @param options Hyperparameters; defaults follow the paper.
     */
    explicit NnModel(NnModelOptions options = {});

    void fit(const data::Dataset &ds) override;

    numeric::Vector predict(const numeric::Vector &x) const override;

    using PerformanceModel::predictAll;

    /**
     * Batched prediction through Mlp's matrix forward: standardize the
     * whole matrix, one forward sweep, inverse-standardize. The same
     * scalar operations as predict() per row, so the result is
     * bit-identical to the base-class row loop.
     */
    numeric::Matrix predictAll(const numeric::Matrix &xs) const override;

    bool fitted() const override { return isFitted; }

    std::string name() const override { return "neural-network"; }

    /** Options in effect. */
    const NnModelOptions &options() const { return opts; }

    /** Statistics of the last fit() training run. */
    const nn::TrainResult &lastTraining() const { return lastResult; }

    /** The trained network (valid after fit()). */
    const nn::Mlp &network() const { return net; }

    /** Input standardizer fitted by fit(). */
    const data::Standardizer &inputTransform() const { return xStd; }

    /** Output standardizer fitted by fit(). */
    const data::Standardizer &outputTransform() const { return yStd; }

  private:
    NnModelOptions opts;
    nn::Mlp net;
    data::Standardizer xStd;
    data::Standardizer yStd;
    nn::TrainResult lastResult;
    bool isFitted = false;
};

} // namespace model
} // namespace wcnn

#endif // WCNN_MODEL_NN_MODEL_HH
