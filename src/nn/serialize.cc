#include "serialize.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "core/failpoint.hh"

namespace wcnn {
namespace nn {

namespace {

constexpr const char *magic = "wcnn-mlp";
constexpr int version = 1;

/*
 * Sanity cap on every parsed count (depth, units, matrix dims). A
 * garbled file claiming 10^15 units must raise SerializeError, not
 * drive a multi-terabyte allocation; no legitimate model in this
 * repo is within orders of magnitude of the cap.
 */
constexpr std::size_t maxCount = 1u << 20;

std::string
expectToken(std::istream &is, const std::string &what)
{
    std::string token;
    if (!(is >> token))
        throw SerializeError("unexpected end of model file, wanted " +
                             what);
    return token;
}

double
expectDouble(std::istream &is, const std::string &what)
{
    double v;
    if (!(is >> v))
        throw SerializeError("bad number in model file at " + what);
    if (!std::isfinite(v))
        throw SerializeError("non-finite number in model file at " + what);
    return v;
}

std::size_t
expectSize(std::istream &is, const std::string &what)
{
    long long v;
    if (!(is >> v) || v < 0)
        throw SerializeError("bad count in model file at " + what);
    if (static_cast<unsigned long long>(v) > maxCount)
        throw SerializeError("implausible count in model file at " + what);
    return static_cast<std::size_t>(v);
}

} // namespace

void
Serializer::write(const Mlp &net, std::ostream &os)
{
    WCNN_FAILPOINT("model.write",
                   throw SerializeError("injected: model.write"));

    os << magic << ' ' << version << '\n';
    os << "input_dim " << net.inputDim() << '\n';
    os << "depth " << net.depth() << '\n';
    os << std::setprecision(17);
    for (std::size_t l = 0; l < net.depth(); ++l) {
        const auto &spec = net.layers()[l];
        os << "layer " << spec.units << ' ' << spec.activation.name()
           << '\n';
        const auto &w = net.weights(l);
        os << "weights " << w.rows() << ' ' << w.cols() << '\n';
        for (std::size_t i = 0; i < w.rows(); ++i) {
            for (std::size_t j = 0; j < w.cols(); ++j)
                os << (j ? " " : "") << w(i, j);
            os << '\n';
        }
        const auto &b = net.biases(l);
        os << "biases " << b.size() << '\n';
        for (std::size_t i = 0; i < b.size(); ++i)
            os << (i ? " " : "") << b[i];
        os << '\n';
    }
}

Mlp
Serializer::read(std::istream &is)
{
    WCNN_FAILPOINT("model.read",
                   throw SerializeError("injected: model.read"));

    if (expectToken(is, "magic") != magic)
        throw SerializeError("not a wcnn-mlp model file");
    if (expectSize(is, "version") != version)
        throw SerializeError("unsupported model version");

    if (expectToken(is, "input_dim") != "input_dim")
        throw SerializeError("expected input_dim");
    const std::size_t input_dim = expectSize(is, "input_dim");

    if (expectToken(is, "depth") != "depth")
        throw SerializeError("expected depth");
    const std::size_t depth = expectSize(is, "depth");
    if (depth == 0)
        throw SerializeError("model has no layers");

    Mlp net;
    net.nInputs = input_dim;
    for (std::size_t l = 0; l < depth; ++l) {
        if (expectToken(is, "layer") != "layer")
            throw SerializeError("expected layer");
        const std::size_t units = expectSize(is, "units");
        Activation act;
        try {
            act = Activation::parse(expectToken(is, "activation"));
        } catch (const std::invalid_argument &e) {
            throw SerializeError(e.what());
        }
        net.specs.push_back(LayerSpec{units, act});

        if (expectToken(is, "weights") != "weights")
            throw SerializeError("expected weights");
        const std::size_t rows = expectSize(is, "weight rows");
        const std::size_t cols = expectSize(is, "weight cols");
        if (rows != units)
            throw SerializeError("weight rows do not match layer units");
        if (cols != 0 && rows > maxCount / cols)
            throw SerializeError("implausible weight matrix size");
        numeric::Matrix w(rows, cols);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j)
                w(i, j) = expectDouble(is, "weight");
        net.weightsPerLayer.push_back(std::move(w));

        if (expectToken(is, "biases") != "biases")
            throw SerializeError("expected biases");
        const std::size_t blen = expectSize(is, "bias count");
        if (blen != units)
            throw SerializeError("bias count does not match layer units");
        numeric::Vector b(blen);
        for (std::size_t i = 0; i < blen; ++i)
            b[i] = expectDouble(is, "bias");
        net.biasesPerLayer.push_back(std::move(b));
    }

    // Consistency: fan-in chain must line up.
    std::size_t fan_in = net.nInputs;
    for (std::size_t l = 0; l < depth; ++l) {
        if (net.weightsPerLayer[l].cols() != fan_in)
            throw SerializeError("layer fan-in mismatch");
        fan_in = net.specs[l].units;
    }
    return net;
}

void
Serializer::writeMoments(std::ostream &os, const char *tag,
                         const numeric::Vector &mu,
                         const numeric::Vector &sigma)
{
    os << tag << ' ' << mu.size();
    os << std::setprecision(17);
    for (double v : mu)
        os << ' ' << v;
    for (double v : sigma)
        os << ' ' << v;
    os << '\n';
}

void
Serializer::readMoments(std::istream &is, const char *tag,
                        numeric::Vector &mu, numeric::Vector &sigma)
{
    if (expectToken(is, tag) != tag)
        throw SerializeError(std::string("expected ") + tag);
    const std::size_t d = expectSize(is, tag);
    mu.assign(d, 0.0);
    sigma.assign(d, 0.0);
    for (auto &v : mu)
        v = expectDouble(is, "mean");
    for (auto &v : sigma) {
        v = expectDouble(is, "scale");
        if (v <= 0.0)
            throw SerializeError("non-positive scale in moments");
    }
}

} // namespace nn
} // namespace wcnn
