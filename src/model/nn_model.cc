#include "nn_model.hh"

#include "core/contracts.hh"
#include "numeric/rng.hh"

namespace wcnn {
namespace model {

NnModel::NnModel(NnModelOptions options) : opts(std::move(options)) {}

void
NnModel::fit(const data::Dataset &ds)
{
    WCNN_REQUIRE(!ds.empty(), "fit on an empty dataset");

    numeric::Matrix x = ds.xMatrix();
    numeric::Matrix y = ds.yMatrix();

    if (opts.standardizeInputs) {
        xStd.fit(x);
        x = xStd.transform(x);
    } else {
        xStd = data::Standardizer::identity(ds.inputDim());
    }
    if (opts.standardizeOutputs) {
        yStd.fit(y);
        y = yStd.transform(y);
    } else {
        yStd = data::Standardizer::identity(ds.outputDim());
    }

    numeric::Rng rng(opts.seed);
    std::vector<nn::LayerSpec> layers;
    for (std::size_t units : opts.hiddenUnits)
        layers.push_back(nn::LayerSpec{units, opts.hiddenActivation});
    layers.push_back(
        nn::LayerSpec{ds.outputDim(), opts.outputActivation});
    net = nn::Mlp(ds.inputDim(), std::move(layers), opts.initRule, rng);

    nn::Trainer trainer(opts.train);
    numeric::Rng shuffle_rng = rng.split();
    lastResult = trainer.train(net, x, y, shuffle_rng);
    isFitted = true;
}

numeric::Vector
NnModel::predict(const numeric::Vector &x) const
{
    WCNN_REQUIRE(isFitted, "predict() before fit()");
    return yStd.inverse(net.forward(xStd.transform(x)));
}

numeric::Matrix
NnModel::predictAll(const numeric::Matrix &xs) const
{
    WCNN_REQUIRE(isFitted, "predictAll() before fit()");
    return yStd.inverse(net.forward(xStd.transform(xs)));
}

} // namespace model
} // namespace wcnn
