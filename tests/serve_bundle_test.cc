/**
 * @file
 * ModelBundle: the deployable artifact. Pins the prediction identity
 * (predict == yStd.inverse(net.forward(xStd.transform(x))) exactly),
 * the bit-exact save/load round trip of the `wcnn-bundle` format, and
 * typed failures on malformed artifacts and on the older
 * `wcnn-nn-model` / bare `wcnn-mlp` formats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "data/standardizer.hh"
#include "model/nn_model.hh"
#include "nn/mlp.hh"
#include "nn/serialize.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"

using wcnn::data::Dataset;
using wcnn::data::Standardizer;
using wcnn::model::NnModel;
using wcnn::model::NnModelOptions;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::nn::SerializeError;
using wcnn::nn::Serializer;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::ModelBundle;

namespace {

Mlp
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    return Mlp(3,
               {LayerSpec{8, Activation::logistic(1.0)},
                LayerSpec{2, Activation::identity()}},
               InitRule::SmallUniform, rng);
}

ModelBundle
makeBundle(std::uint64_t seed = 1)
{
    return ModelBundle::fromParts(
        makeNet(seed),
        Standardizer::fromMoments({1.0, 2.0, 3.0}, {0.5, 1.5, 2.0}),
        Standardizer::fromMoments({0.1, -0.2}, {2.0, 3.0}),
        {"a", "b", "c"}, {"u", "v"}, "test-tag");
}

} // namespace

TEST(ServeBundleTest, ExposesSchemaAndTag)
{
    const ModelBundle bundle = makeBundle();
    EXPECT_TRUE(bundle.fitted());
    EXPECT_EQ(bundle.inputDim(), 3u);
    EXPECT_EQ(bundle.outputDim(), 2u);
    EXPECT_EQ(bundle.inputNames(),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(bundle.outputNames(),
              (std::vector<std::string>{"u", "v"}));
    EXPECT_EQ(bundle.tag(), "test-tag");
}

TEST(ServeBundleTest, PredictComposesStandardizersAndNetwork)
{
    const ModelBundle bundle = makeBundle();
    const Vector x{0.7, -1.3, 5.5};
    const Vector expected = bundle.outputTransform().inverse(
        bundle.network().forward(bundle.inputTransform().transform(x)));
    const Vector got = bundle.predict(x);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j]) << "output " << j;
}

TEST(ServeBundleTest, PredictAllBitIdenticalToPerRow)
{
    const ModelBundle bundle = makeBundle();
    Rng rng(7);
    wcnn::numeric::Matrix xs(17, 3);
    for (std::size_t i = 0; i < xs.rows(); ++i)
        xs.setRow(i, {rng.uniform(-3, 3), rng.uniform(-3, 3),
                      rng.uniform(-3, 3)});
    const wcnn::numeric::Matrix ys = bundle.predictAll(xs);
    ASSERT_EQ(ys.rows(), xs.rows());
    for (std::size_t i = 0; i < xs.rows(); ++i) {
        const Vector yi = bundle.predict(xs.row(i));
        for (std::size_t j = 0; j < yi.size(); ++j)
            EXPECT_EQ(ys(i, j), yi[j]) << "row " << i;
    }
}

TEST(ServeBundleTest, SaveLoadRoundTripsBitExact)
{
    const ModelBundle bundle = makeBundle(3);
    std::stringstream ss;
    bundle.save(ss);
    const ModelBundle loaded = ModelBundle::load(ss);

    EXPECT_EQ(loaded.inputNames(), bundle.inputNames());
    EXPECT_EQ(loaded.outputNames(), bundle.outputNames());
    EXPECT_EQ(loaded.tag(), bundle.tag());

    const Vector x{2.25, -0.5, 1.0};
    const Vector a = bundle.predict(x);
    const Vector b = loaded.predict(x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j)
        EXPECT_EQ(a[j], b[j]) << "output " << j;
}

TEST(ServeBundleTest, FromModelMatchesNnModelPredict)
{
    // A real (tiny) training run: the bundle must answer exactly like
    // the NnModel it was cut from.
    Dataset ds({"a", "b"}, {"y"});
    Rng rng(11);
    for (int i = 0; i < 24; ++i) {
        const double a = rng.uniform(0, 4);
        const double b = rng.uniform(0, 4);
        ds.add({a, b}, {a + 0.5 * b});
    }
    NnModelOptions opts;
    opts.hiddenUnits = {4};
    opts.train.maxEpochs = 50;
    opts.seed = 5;
    NnModel mdl(opts);
    mdl.fit(ds);

    const ModelBundle bundle =
        ModelBundle::fromModel(mdl, ds.inputs(), ds.outputs(), "cut");
    EXPECT_EQ(bundle.inputNames(), ds.inputs());
    EXPECT_EQ(bundle.outputNames(), ds.outputs());

    const Vector x{1.5, 2.5};
    const Vector want = mdl.predict(x);
    const Vector got = bundle.predict(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], want[j]);
}

TEST(ServeBundleTest, LegacyFormatsRaiseTypedErrorNamingTheMagic)
{
    const ModelBundle bundle = makeBundle(13);
    // The `wcnn-nn-model` layout: moments + network, no schema.
    std::stringstream nn_model;
    nn_model << "wcnn-nn-model 1\n";
    Serializer::writeMoments(nn_model, "x_moments",
                             bundle.inputTransform().means(),
                             bundle.inputTransform().stddevs());
    Serializer::writeMoments(nn_model, "y_moments",
                             bundle.outputTransform().means(),
                             bundle.outputTransform().stddevs());
    Serializer::write(bundle.network(), nn_model);
    // A bare network: weights only, no standardizer moments.
    std::stringstream bare_mlp;
    Serializer::write(bundle.network(), bare_mlp);

    for (auto *artifact : {&nn_model, &bare_mlp}) {
        const std::string magic =
            artifact->str().substr(0, artifact->str().find(' '));
        try {
            (void)ModelBundle::load(*artifact);
            ADD_FAILURE() << magic << " artifact loaded";
        } catch (const SerializeError &e) {
            EXPECT_EQ(e.kind(), "io.model");
            EXPECT_NE(std::string(e.what()).find("'" + magic + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServeBundleTest, MalformedArtifactThrowsTyped)
{
    std::stringstream garbage("not-an-artifact 42\njunk\n");
    EXPECT_THROW((void)ModelBundle::load(garbage), SerializeError);

    std::stringstream empty;
    EXPECT_THROW((void)ModelBundle::load(empty), SerializeError);
}

TEST(ServeBundleTest, TruncatedBundleThrowsTyped)
{
    std::stringstream ss;
    makeBundle().save(ss);
    const std::string whole = ss.str();
    std::stringstream half(whole.substr(0, whole.size() / 2));
    EXPECT_THROW((void)ModelBundle::load(half), SerializeError);
}

TEST(ServeBundleTest, WhitespaceSchemaNamesRefuseToSave)
{
    const ModelBundle bundle = ModelBundle::fromParts(
        makeNet(19), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "bad name", "c"}, {"u", "v"},
        "t");
    std::stringstream ss;
    EXPECT_THROW(bundle.save(ss), SerializeError);
}
