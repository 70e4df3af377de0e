#include "mlp.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/contracts.hh"
#include "numeric/kernels/arena.hh"
#include "numeric/kernels/fused.hh"
#include "numeric/rng.hh"

namespace wcnn {
namespace nn {

void
Gradients::add(const Gradients &other)
{
    WCNN_REQUIRE(weightGrads.size() == other.weightGrads.size(),
                 "gradient layer count mismatch: ", weightGrads.size(),
                 " vs ", other.weightGrads.size());
    for (std::size_t l = 0; l < weightGrads.size(); ++l) {
        weightGrads[l] += other.weightGrads[l];
        for (std::size_t i = 0; i < biasGrads[l].size(); ++i)
            biasGrads[l][i] += other.biasGrads[l][i];
    }
}

void
Gradients::scale(double s)
{
    for (std::size_t l = 0; l < weightGrads.size(); ++l) {
        weightGrads[l] *= s;
        for (auto &b : biasGrads[l])
            b *= s;
    }
}

double
Gradients::squaredNorm() const
{
    double acc = 0.0;
    for (std::size_t l = 0; l < weightGrads.size(); ++l) {
        for (double w : weightGrads[l].data())
            acc += w * w;
        for (double b : biasGrads[l])
            acc += b * b;
    }
    return acc;
}

Mlp::Mlp(std::size_t input_dim, std::vector<LayerSpec> layers,
         InitRule rule, numeric::Rng &rng)
    : nInputs(input_dim), specs(std::move(layers))
{
    WCNN_REQUIRE(nInputs > 0, "MLP needs at least one input");
    WCNN_REQUIRE(!specs.empty(), "MLP needs at least one layer");
    std::size_t fan_in = nInputs;
    for (const auto &spec : specs) {
        WCNN_REQUIRE(spec.units > 0, "layer must have at least one unit");
        weightsPerLayer.push_back(
            initWeights(rule, spec.units, fan_in, rng));
        biasesPerLayer.push_back(initBiases(rule, spec.units, rng));
        fan_in = spec.units;
    }
}

std::size_t
Mlp::outputDim() const
{
    return specs.empty() ? 0 : specs.back().units;
}

std::size_t
Mlp::parameterCount() const
{
    std::size_t count = 0;
    for (std::size_t l = 0; l < specs.size(); ++l)
        count += weightsPerLayer[l].size() + biasesPerLayer[l].size();
    return count;
}

numeric::Vector
Mlp::forward(const numeric::Vector &x) const
{
    WCNN_REQUIRE(x.size() == nInputs, "forward input has ", x.size(),
                 " dims, network expects ", nInputs);
    numeric::Vector act = x;
    for (std::size_t l = 0; l < specs.size(); ++l) {
        numeric::Vector pre = weightsPerLayer[l] * act;
        const Activation &fn = specs[l].activation;
        for (std::size_t i = 0; i < pre.size(); ++i)
            pre[i] = fn.value(pre[i] + biasesPerLayer[l][i]);
        act = std::move(pre);
    }
    return act;
}

numeric::Matrix
Mlp::forward(const numeric::Matrix &xs) const
{
    return fusedForward(xs, nullptr, nullptr, nullptr, nullptr);
}

namespace {

/**
 * f(pre + bias) over a lane-major units x stride panel, with the
 * activation-kind switch hoisted out of the element loop.
 * Activation::value is an out-of-line switch, and rows*units calls of
 * it dominate the fused path's profile; these loops apply the SAME
 * scalar expressions to the same elements, so the results are
 * bit-identical to the per-element call. The lane layout means each
 * unit's bias is loop-invariant over a contiguous run.
 */
void
applyBiasActivationLanes(double *dst, std::size_t units,
                         std::size_t stride, const Activation &fn,
                         const double *bias)
{
    const double slope = fn.slope();
    switch (fn.kind()) {
      case Activation::Kind::Logistic:
        for (std::size_t u = 0; u < units; ++u) {
            double *pu = dst + u * stride;
            const double b = bias[u];
            for (std::size_t r = 0; r < stride; ++r)
                pu[r] = 1.0 / (1.0 + std::exp(-slope * (pu[r] + b)));
        }
        return;
      case Activation::Kind::Tanh:
        for (std::size_t u = 0; u < units; ++u) {
            double *pu = dst + u * stride;
            const double b = bias[u];
            for (std::size_t r = 0; r < stride; ++r)
                pu[r] = std::tanh(pu[r] + b);
        }
        return;
      case Activation::Kind::Relu:
        for (std::size_t u = 0; u < units; ++u) {
            double *pu = dst + u * stride;
            const double b = bias[u];
            for (std::size_t r = 0; r < stride; ++r) {
                const double x = pu[r] + b;
                pu[r] = x > 0.0 ? x : 0.0;
            }
        }
        return;
      case Activation::Kind::Identity:
        for (std::size_t u = 0; u < units; ++u) {
            double *pu = dst + u * stride;
            const double b = bias[u];
            for (std::size_t r = 0; r < stride; ++r)
                pu[r] = pu[r] + b;
        }
        return;
      case Activation::Kind::Logarithmic:
        for (std::size_t u = 0; u < units; ++u) {
            double *pu = dst + u * stride;
            const double b = bias[u];
            for (std::size_t r = 0; r < stride; ++r) {
                const double x = pu[r] + b;
                pu[r] = x >= 0.0 ? std::log1p(slope * x)
                                 : -std::log1p(-slope * x);
            }
        }
        return;
    }
    // Unknown kind (unreachable): fall back to the per-element call.
    for (std::size_t u = 0; u < units; ++u) {
        double *pu = dst + u * stride;
        for (std::size_t r = 0; r < stride; ++r)
            pu[r] = fn.value(pu[r] + bias[u]);
    }
}

} // namespace

numeric::Matrix
Mlp::fusedForward(const numeric::Matrix &xs,
                  const numeric::Vector *x_mu,
                  const numeric::Vector *x_sigma,
                  const numeric::Vector *y_mu,
                  const numeric::Vector *y_sigma) const
{
    namespace ker = numeric::kernels;
    WCNN_REQUIRE(xs.cols() == nInputs, "fused forward input rows have ",
                 xs.cols(), " dims, network expects ", nInputs);
    WCNN_REQUIRE((x_mu == nullptr) == (x_sigma == nullptr),
                 "input moments must be given or omitted as a pair");
    WCNN_REQUIRE((y_mu == nullptr) == (y_sigma == nullptr),
                 "output moments must be given or omitted as a pair");
    if (x_mu)
        WCNN_REQUIRE(x_mu->size() == nInputs && x_sigma->size() == nInputs,
                     "input moments have ", x_mu->size(), "/",
                     x_sigma->size(), " dims, network expects ", nInputs);
    if (y_mu)
        WCNN_REQUIRE(y_mu->size() == outputDim() &&
                         y_sigma->size() == outputDim(),
                     "output moments have ", y_mu->size(), "/",
                     y_sigma->size(), " dims, network emits ", outputDim());

    const std::size_t rows = xs.rows();
    const std::size_t out_dim = outputDim();
    numeric::Matrix out(rows, out_dim);
    if (rows == 0)
        return out;

    ker::Arena &arena = ker::threadArena();
    ker::Arena::Frame frame(arena);

    std::size_t widest = nInputs;
    for (const LayerSpec &spec : specs)
        widest = std::max(widest, spec.units);

    // Activations travel lane-major (feature x lane, lane = row)
    // through per-block ping/pong panels: every kernel then
    // vectorizes across independent row lanes with unit stride, the
    // weights are consumed row-major as stored, and each element's
    // k-reduction stays a sequential chain in per-row order.
    constexpr std::size_t kRowBlock = 64;
    const std::size_t stride = std::min(kRowBlock, rows);
    double *ping = arena.alloc(widest * stride);
    double *pong = arena.alloc(widest * stride);

    const double *input = xs.data().data();
    double *output = out.data().data();
    for (std::size_t r0 = 0; r0 < rows; r0 += stride) {
        const std::size_t nb = std::min(stride, rows - r0);
        const double *src = input + r0 * nInputs;
        if (x_mu)
            ker::standardizeToLanes(src, ping, nb, stride, nInputs,
                                    x_mu->data(), x_sigma->data());
        else
            ker::transposeToLanes(src, ping, nb, stride, nInputs);

        double *cur = ping;
        double *nxt = pong;
        std::size_t fanin = nInputs;
        for (std::size_t l = 0; l < specs.size(); ++l) {
            const std::size_t units = specs[l].units;
            ker::denseLayerForwardLanes(
                cur, weightsPerLayer[l].data().data(), nxt, stride,
                fanin, units);
            // Bias + activation exactly as forward(Vector) —
            // f(pre + bias) per element — with the kind dispatch
            // hoisted out of the hot loop.
            applyBiasActivationLanes(nxt, units, stride,
                                     specs[l].activation,
                                     biasesPerLayer[l].data());
            std::swap(cur, nxt);
            fanin = units;
        }
        // cur now holds the out_dim x stride output panel.
        double *dst = output + r0 * out_dim;
        if (y_mu)
            ker::destandardizeFromLanes(cur, dst, nb, stride, out_dim,
                                        y_mu->data(), y_sigma->data());
        else
            ker::transposeFromLanes(cur, dst, nb, stride, out_dim);
    }
    return out;
}

numeric::Vector
Mlp::forward(const numeric::Vector &x, Cache &cache) const
{
    WCNN_REQUIRE(x.size() == nInputs, "forward input has ", x.size(),
                 " dims, network expects ", nInputs);
    cache.input = x;
    cache.preActivations.assign(specs.size(), {});
    cache.activations.assign(specs.size(), {});
    const numeric::Vector *act = &cache.input;
    for (std::size_t l = 0; l < specs.size(); ++l) {
        numeric::Vector pre = weightsPerLayer[l] * (*act);
        for (std::size_t i = 0; i < pre.size(); ++i)
            pre[i] += biasesPerLayer[l][i];
        const Activation &fn = specs[l].activation;
        numeric::Vector out(pre.size());
        for (std::size_t i = 0; i < pre.size(); ++i)
            out[i] = fn.value(pre[i]);
        cache.preActivations[l] = std::move(pre);
        cache.activations[l] = std::move(out);
        act = &cache.activations[l];
    }
    return cache.activations.back();
}

Gradients
Mlp::backward(const Cache &cache, const numeric::Vector &output_grad) const
{
    WCNN_REQUIRE(output_grad.size() == outputDim(),
                 "output gradient has ", output_grad.size(),
                 " dims, network emits ", outputDim());
    WCNN_REQUIRE(cache.activations.size() == specs.size(),
                 "stale forward cache: ", cache.activations.size(),
                 " layers cached, network has ", specs.size());

    Gradients grads = zeroGradients();

    // delta starts as dLoss/dOutput and is pulled back layer by layer.
    numeric::Vector delta = output_grad;
    for (std::size_t li = specs.size(); li > 0; --li) {
        const std::size_t l = li - 1;
        const Activation &fn = specs[l].activation;
        const numeric::Vector &pre = cache.preActivations[l];
        const numeric::Vector &out = cache.activations[l];

        // Through the activation: delta_i *= f'(pre_i).
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta[i] *= fn.derivative(pre[i], out[i]);

        const numeric::Vector &layer_in =
            l == 0 ? cache.input : cache.activations[l - 1];

        // dLoss/dW = delta x input^T; dLoss/db = delta.
        grads.weightGrads[l] = numeric::outer(delta, layer_in);
        grads.biasGrads[l] = delta;

        if (l > 0) {
            // Pull back through the weights: delta = W^T delta.
            const numeric::Matrix &w = weightsPerLayer[l];
            numeric::Vector prev(w.cols(), 0.0);
            for (std::size_t i = 0; i < w.rows(); ++i) {
                const double d = delta[i];
                if (d == 0.0)
                    continue;
                for (std::size_t j = 0; j < w.cols(); ++j)
                    prev[j] += w(i, j) * d;
            }
            delta = std::move(prev);
        }
    }
    return grads;
}

Gradients
Mlp::zeroGradients() const
{
    Gradients g;
    for (std::size_t l = 0; l < specs.size(); ++l) {
        g.weightGrads.emplace_back(weightsPerLayer[l].rows(),
                                   weightsPerLayer[l].cols());
        g.biasGrads.emplace_back(biasesPerLayer[l].size(), 0.0);
    }
    return g;
}

void
Mlp::applyUpdate(const Gradients &step)
{
    WCNN_REQUIRE(step.weightGrads.size() == specs.size(),
                 "update has ", step.weightGrads.size(),
                 " layers, network has ", specs.size());
    for (std::size_t l = 0; l < specs.size(); ++l) {
        weightsPerLayer[l] -= step.weightGrads[l];
        for (std::size_t i = 0; i < biasesPerLayer[l].size(); ++i)
            biasesPerLayer[l][i] -= step.biasGrads[l][i];
    }
}

std::string
Mlp::describe() const
{
    std::ostringstream os;
    os << nInputs;
    for (const auto &spec : specs)
        os << " -> " << spec.units << ' ' << spec.activation.name();
    return os.str();
}

} // namespace nn
} // namespace wcnn
