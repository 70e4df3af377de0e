#include "bundle.hh"

#include <fstream>
#include <sstream>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "model/nn_model.hh"
#include "nn/serialize.hh"

namespace wcnn {
namespace serve {

namespace {

constexpr const char *magic = "wcnn-bundle";
constexpr int version = 1;

/* Same cap as the Mlp serializer: a garbled count must raise a typed
 * error, never drive a huge allocation. */
constexpr std::size_t maxCount = 1u << 20;

/** Synthesized column names for bundles built without a schema. */
std::vector<std::string>
syntheticNames(const char *prefix, std::size_t n)
{
    std::vector<std::string> names;
    names.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        names.push_back(prefix + std::to_string(i));
    return names;
}

/** Schema names are whitespace-delimited tokens in the artifact. */
void
requireTokenizable(const std::vector<std::string> &names,
                   const char *what)
{
    for (const auto &name : names) {
        if (name.empty() ||
            name.find_first_of(" \t\r\n") != std::string::npos) {
            throw nn::SerializeError(
                std::string(what) +
                " name is empty or contains whitespace: '" + name +
                "'");
        }
    }
}

void
writeNames(std::ostream &os, const char *tag,
           const std::vector<std::string> &names)
{
    os << tag << ' ' << names.size();
    for (const auto &name : names)
        os << ' ' << name;
    os << '\n';
}

std::vector<std::string>
readNames(std::istream &is, const char *tag)
{
    std::string token;
    if (!(is >> token) || token != tag)
        throw nn::SerializeError(std::string("expected ") + tag);
    long long count = 0;
    if (!(is >> count) || count < 0 ||
        static_cast<unsigned long long>(count) > maxCount)
        throw nn::SerializeError(std::string("bad count after ") + tag);
    std::vector<std::string> names(static_cast<std::size_t>(count));
    for (auto &name : names)
        if (!(is >> name))
            throw nn::SerializeError(std::string("truncated ") + tag +
                                     " list");
    return names;
}

data::Standardizer
readStandardizer(std::istream &is, const char *tag)
{
    numeric::Vector mu, sigma;
    nn::Serializer::readMoments(is, tag, mu, sigma);
    return data::Standardizer::fromMoments(std::move(mu),
                                           std::move(sigma));
}

/** Arity validation of a loaded bundle. */
void
requireConsistent(const nn::Mlp &net, const data::Standardizer &x_std,
                  const data::Standardizer &y_std,
                  const std::vector<std::string> &x_names,
                  const std::vector<std::string> &y_names)
{
    if (net.depth() == 0)
        throw nn::SerializeError("bundle network has no layers");
    if (net.inputDim() != x_std.dim() || net.outputDim() != y_std.dim())
        throw nn::SerializeError(
            "network arity does not match the stored moments");
    if (x_names.size() != net.inputDim() ||
        y_names.size() != net.outputDim())
        throw nn::SerializeError(
            "schema names do not match the network arity");
}

} // namespace

ModelBundle
ModelBundle::fromModel(const model::NnModel &mdl,
                       std::vector<std::string> input_names,
                       std::vector<std::string> output_names,
                       std::string tag)
{
    WCNN_REQUIRE(mdl.fitted(), "bundling an unfitted model");
    return fromParts(mdl.network(), mdl.inputTransform(),
                     mdl.outputTransform(), std::move(input_names),
                     std::move(output_names), std::move(tag));
}

ModelBundle
ModelBundle::fromParts(nn::Mlp net, data::Standardizer x_std,
                       data::Standardizer y_std,
                       std::vector<std::string> input_names,
                       std::vector<std::string> output_names,
                       std::string tag)
{
    WCNN_REQUIRE(net.depth() > 0, "bundling an empty network");
    WCNN_REQUIRE(x_std.dim() == net.inputDim(),
                 "input standardizer covers ", x_std.dim(),
                 " features, network expects ", net.inputDim());
    WCNN_REQUIRE(y_std.dim() == net.outputDim(),
                 "output standardizer covers ", y_std.dim(),
                 " features, network produces ", net.outputDim());
    if (input_names.empty())
        input_names = syntheticNames("x", net.inputDim());
    if (output_names.empty())
        output_names = syntheticNames("y", net.outputDim());
    WCNN_REQUIRE(input_names.size() == net.inputDim(),
                 "need one input name per network input");
    WCNN_REQUIRE(output_names.size() == net.outputDim(),
                 "need one output name per network output");
    WCNN_REQUIRE(!tag.empty() &&
                     tag.find_first_of(" \t\r\n") == std::string::npos,
                 "bundle tag must be one non-empty token");

    ModelBundle bundle;
    bundle.net = std::move(net);
    bundle.xStd = std::move(x_std);
    bundle.yStd = std::move(y_std);
    bundle.xNames = std::move(input_names);
    bundle.yNames = std::move(output_names);
    bundle.versionTag = std::move(tag);
    bundle.isLoaded = true;
    return bundle;
}

void
ModelBundle::fit(const data::Dataset &ds)
{
    static_cast<void>(ds);
    WCNN_REQUIRE(false, "ModelBundle is an immutable artifact; fit an "
                        "NnModel and bundle it");
}

numeric::Vector
ModelBundle::predict(const numeric::Vector &x) const
{
    WCNN_REQUIRE(isLoaded, "predict() on an empty bundle");
    WCNN_REQUIRE(x.size() == net.inputDim(), "bundle expects ",
                 net.inputDim(), " inputs, got ", x.size());
    return yStd.inverse(net.forward(xStd.transform(x)));
}

numeric::Matrix
ModelBundle::predictAll(const numeric::Matrix &xs) const
{
    WCNN_REQUIRE(isLoaded, "predictAll() on an empty bundle");
    WCNN_REQUIRE(xs.cols() == net.inputDim(), "bundle expects ",
                 net.inputDim(), " inputs, got ", xs.cols());
    // Fused standardize -> forward -> destandardize over arena
    // scratch: no intermediate matrices, zero heap traffic after
    // warm-up, bit-identical to predict() per row
    // (kernel_equivalence_test pins this).
    return net.fusedForward(xs, &xStd.means(), &xStd.stddevs(),
                            &yStd.means(), &yStd.stddevs());
}

void
ModelBundle::save(std::ostream &os) const
{
    WCNN_REQUIRE(isLoaded, "save() on an empty bundle");
    WCNN_FAILPOINT("serve.bundle.save",
                   throw nn::SerializeError("injected: serve.bundle.save"));
    requireTokenizable(xNames, "input");
    requireTokenizable(yNames, "output");

    os << magic << ' ' << version << '\n';
    os << "tag " << versionTag << '\n';
    writeNames(os, "inputs", xNames);
    writeNames(os, "outputs", yNames);
    nn::Serializer::writeMoments(os, "x_moments", xStd.means(),
                                 xStd.stddevs());
    nn::Serializer::writeMoments(os, "y_moments", yStd.means(),
                                 yStd.stddevs());
    nn::Serializer::write(net, os);
}

void
ModelBundle::save(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw nn::SerializeError("cannot open for writing: " + path);
    save(os);
    if (!os)
        throw nn::SerializeError("write failed: " + path);
}

ModelBundle
ModelBundle::load(std::istream &is)
{
    WCNN_FAILPOINT("serve.bundle.load",
                   throw nn::SerializeError("injected: serve.bundle.load"));

    std::string file_magic;
    if (!(is >> file_magic))
        throw nn::SerializeError("empty model artifact");

    // The older `wcnn-nn-model` and bare `wcnn-mlp` formats are
    // refused like any other magic: neither records the column
    // schema, and a bare network carries no standardizer moments, so
    // loading one means guessing them — and a guess predicts silently
    // wrong.
    if (file_magic != magic)
        throw nn::SerializeError("not a " + std::string(magic) +
                                 " artifact (magic '" + file_magic +
                                 "'); re-fit it with `wcnn fit`");
    long long file_version = 0;
    if (!(is >> file_version) || file_version != version)
        throw nn::SerializeError("unsupported bundle version");

    ModelBundle bundle;
    std::string token;
    if (!(is >> token) || token != "tag")
        throw nn::SerializeError("expected tag");
    if (!(is >> bundle.versionTag))
        throw nn::SerializeError("truncated tag");
    bundle.xNames = readNames(is, "inputs");
    bundle.yNames = readNames(is, "outputs");
    bundle.xStd = readStandardizer(is, "x_moments");
    bundle.yStd = readStandardizer(is, "y_moments");
    bundle.net = nn::Serializer::read(is);

    requireConsistent(bundle.net, bundle.xStd, bundle.yStd,
                      bundle.xNames, bundle.yNames);
    bundle.isLoaded = true;
    return bundle;
}

ModelBundle
ModelBundle::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw nn::SerializeError("cannot open for reading: " + path);
    return load(is);
}

std::string
ModelBundle::describe() const
{
    WCNN_REQUIRE(isLoaded, "describe() on an empty bundle");
    std::ostringstream os;
    os << net.describe() << " [tag " << versionTag << ", inputs";
    for (const auto &name : xNames)
        os << ' ' << name;
    os << ", outputs";
    for (const auto &name : yNames)
        os << ' ' << name;
    os << ']';
    return os.str();
}

} // namespace serve
} // namespace wcnn
