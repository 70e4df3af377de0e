/**
 * @file
 * Multilayer perceptron (paper section 2.2).
 *
 * An MLP maps an n-dimensional input to an m-dimensional output through
 * one or more fully connected layers. Each unit computes
 * y = f(sum_i w_i x_i - w_0): a weighted sum of its inputs, shifted by a
 * bias (threshold) and squashed by a non-linear activation. Hornik et
 * al. ('89, paper ref [7]) showed such networks approximate any
 * continuous function, which is why the paper picks them as the
 * workload-model family.
 *
 * The class exposes forward evaluation and the exact backpropagated
 * gradient of a loss with respect to every weight and bias; the training
 * loops live in trainer.hh.
 */

#ifndef WCNN_NN_MLP_HH
#define WCNN_NN_MLP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "nn/activation.hh"
#include "nn/initializer.hh"
#include "core/contracts.hh"
#include "numeric/matrix.hh"

namespace wcnn {
namespace numeric {
class Rng;
} // namespace numeric

namespace nn {

/** Shape and activation of one fully connected layer. */
struct LayerSpec
{
    /** Number of units (perceptrons) in the layer. */
    std::size_t units;
    /** Activation applied by every unit in the layer. */
    Activation activation;
};

/**
 * Gradient of a loss with respect to every parameter of an Mlp, one
 * (weight-matrix, bias-vector) pair per layer. Supports the accumulate /
 * scale operations batch training needs.
 */
struct Gradients
{
    /** dLoss/dW per layer; shapes match Mlp::weights(). */
    std::vector<numeric::Matrix> weightGrads;
    /** dLoss/db per layer; shapes match Mlp::biases(). */
    std::vector<numeric::Vector> biasGrads;

    /** Elementwise accumulate; shapes must match. */
    void add(const Gradients &other);

    /** Multiply every entry by s. */
    void scale(double s);

    /** Sum of squared entries (for gradient-norm diagnostics). */
    double squaredNorm() const;
};

/**
 * Fully connected feed-forward network of arbitrary depth.
 */
class Mlp
{
  public:
    /**
     * Per-sample forward cache: pre-activations and activations of every
     * layer, needed by backward().
     */
    struct Cache
    {
        /** Input presented to the net. */
        numeric::Vector input;
        /** Pre-activation (weighted sum + bias) per layer. */
        std::vector<numeric::Vector> preActivations;
        /** Activation output per layer; back() is the net output. */
        std::vector<numeric::Vector> activations;
    };

    /** Empty network; deserialize or assign before use. */
    Mlp() = default;

    /**
     * Construct with random parameters.
     *
     * @param input_dim Input dimensionality n.
     * @param layers    Hidden and output layers, in order; the last
     *                  entry is the output layer (its units == m).
     * @param rule      Weight initialization rule.
     * @param rng       Generator for the initial parameters.
     */
    Mlp(std::size_t input_dim, std::vector<LayerSpec> layers,
        InitRule rule, numeric::Rng &rng);

    /** Input dimensionality n. */
    std::size_t inputDim() const { return nInputs; }

    /** Output dimensionality m (units of the last layer). */
    std::size_t outputDim() const;

    /** Number of layers (hidden + output). */
    std::size_t depth() const { return specs.size(); }

    /** Layer shapes/activations. */
    const std::vector<LayerSpec> &layers() const { return specs; }

    /** Total trainable parameter count. */
    std::size_t parameterCount() const;

    /**
     * Evaluate the network.
     *
     * @param x Input of size inputDim().
     * @return Output of size outputDim().
     */
    numeric::Vector forward(const numeric::Vector &x) const;

    /**
     * Evaluate the network for every row of a sample matrix.
     *
     * Bit-identical to calling forward(xs.row(i)) per row — the same
     * scalar operations run in the same order per sample — but without
     * the per-row vector allocations, which is what the surface-sweep
     * and prediction hot paths want: this is fusedForward() without
     * standardization stages. Safe to call concurrently: the network
     * is not mutated.
     *
     * @param xs One input per row; cols() must equal inputDim().
     * @return One output row per input row (rows() x outputDim()).
     */
    numeric::Matrix forward(const numeric::Matrix &xs) const;

    /**
     * Fused batched forward over arena scratch, optionally bracketed
     * by standardize / destandardize passes (the serving hot path).
     *
     * Runs the same per-element arithmetic as the per-row
     * composition standardize -> forward(Vector) -> destandardize, in
     * the same order per output element, so results are bit-identical
     * (asserted by kernel_equivalence_test). The difference is purely
     * mechanical: activations travel lane-major (one lane per row)
     * and ping-pong between two arena buffers in row blocks, and no
     * heap allocation happens after warm-up.
     *
     * Pass nullptr moment vectors to skip a standardization stage;
     * x_mu/x_sigma and y_mu/y_sigma must be given (or omitted) in
     * pairs. This keeps the nn layer free of any data-layer
     * dependency — serve::ModelBundle threads the Standardizer
     * moments down.
     *
     * @param xs      One input per row; cols() must equal inputDim().
     * @param x_mu    Input means (size inputDim()) or nullptr.
     * @param x_sigma Input stddevs, paired with x_mu.
     * @param y_mu    Output means (size outputDim()) or nullptr.
     * @param y_sigma Output stddevs, paired with y_mu.
     * @return One output row per input row (rows() x outputDim()).
     */
    numeric::Matrix fusedForward(const numeric::Matrix &xs,
                                 const numeric::Vector *x_mu,
                                 const numeric::Vector *x_sigma,
                                 const numeric::Vector *y_mu,
                                 const numeric::Vector *y_sigma) const;

    /**
     * Evaluate the network, retaining the per-layer cache for backward().
     *
     * @param x     Input of size inputDim().
     * @param cache Filled with per-layer intermediates.
     * @return Output of size outputDim().
     */
    numeric::Vector forward(const numeric::Vector &x, Cache &cache) const;

    /**
     * Backpropagate a loss gradient through the cached forward pass.
     *
     * @param cache        Cache produced by forward() for this sample.
     * @param output_grad  dLoss/dOutput at the network output.
     * @return Exact gradients for every weight and bias.
     */
    Gradients backward(const Cache &cache,
                       const numeric::Vector &output_grad) const;

    /** Zero-shaped gradient container matching this network. */
    Gradients zeroGradients() const;

    /**
     * Gradient-descent parameter update: p -= lr * g (+ momentum term
     * handled by the caller via velocity buffers shaped like Gradients).
     *
     * @param step Update to subtract from the parameters; shapes must
     *             match the network.
     */
    void applyUpdate(const Gradients &step);

    /** Weight matrix of one layer (units x fan_in). */
    const numeric::Matrix &
    weights(std::size_t layer) const
    {
        WCNN_CHECK_INDEX(layer, weightsPerLayer.size());
        return weightsPerLayer[layer];
    }

    /** Mutable weight matrix of one layer. */
    numeric::Matrix &
    weights(std::size_t layer)
    {
        WCNN_CHECK_INDEX(layer, weightsPerLayer.size());
        return weightsPerLayer[layer];
    }

    /** Bias vector of one layer. */
    const numeric::Vector &
    biases(std::size_t layer) const
    {
        WCNN_CHECK_INDEX(layer, biasesPerLayer.size());
        return biasesPerLayer[layer];
    }

    /** Mutable bias vector of one layer. */
    numeric::Vector &
    biases(std::size_t layer)
    {
        WCNN_CHECK_INDEX(layer, biasesPerLayer.size());
        return biasesPerLayer[layer];
    }

    /**
     * Topology summary like "4 -> 16 logistic(a=1) -> 5 identity",
     * used by the Fig. 3 bench and dumps.
     */
    std::string describe() const;

  private:
    std::size_t nInputs = 0;
    std::vector<LayerSpec> specs;
    std::vector<numeric::Matrix> weightsPerLayer;
    std::vector<numeric::Vector> biasesPerLayer;

    friend class Serializer;
};

} // namespace nn
} // namespace wcnn

#endif // WCNN_NN_MLP_HH
