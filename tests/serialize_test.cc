/**
 * @file
 * Tests for MLP text serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "nn/serialize.hh"
#include "numeric/rng.hh"

using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::nn::SerializeError;
using wcnn::nn::Serializer;
using wcnn::numeric::Rng;

namespace {

Mlp
randomNet(std::uint64_t seed)
{
    Rng rng(seed);
    return Mlp(4,
               {LayerSpec{9, Activation::logistic(2.0)},
                LayerSpec{6, Activation::tanh()},
                LayerSpec{5, Activation::identity()}},
               InitRule::Xavier, rng);
}

} // namespace

TEST(SerializeTest, RoundTripPreservesExactBehaviour)
{
    const Mlp net = randomNet(1);
    std::stringstream ss;
    Serializer::write(net, ss);
    const Mlp loaded = Serializer::read(ss);

    EXPECT_EQ(loaded.inputDim(), net.inputDim());
    EXPECT_EQ(loaded.outputDim(), net.outputDim());
    EXPECT_EQ(loaded.depth(), net.depth());
    EXPECT_EQ(loaded.describe(), net.describe());

    Rng probe(2);
    for (int trial = 0; trial < 20; ++trial) {
        wcnn::numeric::Vector x(4);
        for (auto &v : x)
            v = probe.uniform(-3, 3);
        const auto a = net.forward(x);
        const auto b = loaded.forward(x);
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_DOUBLE_EQ(a[i], b[i]);
    }
}

TEST(SerializeTest, RoundTripPreservesExactParameters)
{
    const Mlp net = randomNet(3);
    std::stringstream ss;
    Serializer::write(net, ss);
    const Mlp loaded = Serializer::read(ss);
    for (std::size_t l = 0; l < net.depth(); ++l) {
        EXPECT_TRUE(loaded.weights(l) == net.weights(l));
        EXPECT_EQ(loaded.biases(l), net.biases(l));
    }
}

TEST(SerializeTest, RejectsBadMagic)
{
    std::stringstream ss("not-a-model 1\n");
    EXPECT_THROW(Serializer::read(ss), SerializeError);
}

TEST(SerializeTest, RejectsBadVersion)
{
    std::stringstream ss("wcnn-mlp 99\ninput_dim 1\ndepth 1\n");
    EXPECT_THROW(Serializer::read(ss), SerializeError);
}

TEST(SerializeTest, RejectsTruncatedFile)
{
    const Mlp net = randomNet(5);
    std::ostringstream os;
    Serializer::write(net, os);
    const std::string full = os.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(Serializer::read(truncated), SerializeError);
}

TEST(SerializeTest, RejectsUnknownActivation)
{
    std::stringstream ss(
        "wcnn-mlp 1\ninput_dim 1\ndepth 1\nlayer 1 blorp\n");
    EXPECT_THROW(Serializer::read(ss), SerializeError);
}

