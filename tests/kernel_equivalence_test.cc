/**
 * @file
 * The equivalence gate of the kernel layer: seeded property tests
 * comparing every batched kernel against a one-row-at-a-time oracle
 * over random shapes (including single-row/column degenerates and
 * non-multiple-of-block tails), unaligned views, and a hostile value
 * pool (denormals, +-0.0, large magnitudes).
 *
 * The oracles are the single-row public APIs — Mlp::forward(Vector),
 * Standardizer::transform/inverse(Vector), ModelBundle::predict — plus
 * gemvSequential below, the plain per-row dot product. Every kernel
 * under test keeps each output element's reduction in the oracle's
 * order, so the contract is BIT IDENTITY everywhere: there is no
 * legal source of divergence.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/contracts.hh"
#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/kernels/blas.hh"
#include "numeric/kernels/fused.hh"
#include "numeric/matrix.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Matrix;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::ModelBundle;
namespace kernels = wcnn::numeric::kernels;

namespace {

/** Oracle for kernels::gemv: one sequential dot product per row. */
void
gemvSequential(const double *a, const double *x, double *y,
               std::size_t m, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += a[i * n + j] * x[j];
        y[i] = acc;
    }
}

/**
 * Hostile value pool: ordinary magnitudes most of the time, with
 * exact zeros, signed zeros, denormals, and large magnitudes mixed
 * in.
 */
double
poolValue(Rng &rng)
{
    switch (rng.uniformInt(0, 9)) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    case 2:
        return 5e-324; // smallest denormal
    case 3:
        return -1e-310; // denormal
    case 4:
        return rng.uniform(-1.0, 1.0) * 1e100;
    default:
        return rng.uniform(-3.0, 3.0);
    }
}

std::vector<double>
poolBuffer(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &e : v)
        e = poolValue(rng);
    return v;
}

void
expectBitIdentical(const std::vector<double> &a,
                   const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::uint64_t ba = std::bit_cast<std::uint64_t>(a[i]);
        const std::uint64_t bb = std::bit_cast<std::uint64_t>(b[i]);
        ASSERT_EQ(ba, bb) << what << " diverges at element " << i << ": "
                          << a[i] << " vs " << b[i];
    }
}

} // namespace

// GEMV: bit-identical --------------------------------------------------

TEST(KernelEquivalenceTest, GemvBitIdenticalOverRandomShapes)
{
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng = Rng::stream(2006, trial);
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const std::vector<double> a = poolBuffer(rng, m * n);
        const std::vector<double> x = poolBuffer(rng, n);
        std::vector<double> y_ref(m, 0.0);
        std::vector<double> y_got(m, 0.0);
        gemvSequential(a.data(), x.data(), y_ref.data(), m, n);
        kernels::gemv(a.data(), x.data(), y_got.data(), m, n);
        expectBitIdentical(y_ref, y_got, "gemv");
    }
}

TEST(KernelEquivalenceTest, GemvBitIdenticalOnUnalignedViews)
{
    // The Matrix layer always hands the kernels aligned vector
    // storage, but the raw-pointer contract must hold for any offset:
    // run the same comparison through pointers displaced by one
    // element (8 bytes — guaranteed not 64-byte aligned).
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        Rng rng = Rng::stream(2007, trial);
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 33));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 33));
        const std::vector<double> a = poolBuffer(rng, m * n + 1);
        const std::vector<double> x = poolBuffer(rng, n + 1);
        std::vector<double> y_ref(m + 1, 0.0);
        std::vector<double> y_got(m + 1, 0.0);
        gemvSequential(a.data() + 1, x.data() + 1, y_ref.data() + 1, m,
                       n);
        kernels::gemv(a.data() + 1, x.data() + 1, y_got.data() + 1, m,
                      n);
        expectBitIdentical(y_ref, y_got, "gemv (unaligned)");
    }
}

TEST(KernelEquivalenceTest, MatrixVectorProductDispatchIsBitIdentical)
{
    Rng rng = Rng::stream(2008, 0);
    const Matrix a = Matrix::random(17, 23, rng, -5.0, 5.0);
    Vector x(23);
    for (double &e : x)
        e = poolValue(rng);
    Vector y_ref(17);
    gemvSequential(a.data().data(), x.data(), y_ref.data(), 17, 23);
    expectBitIdentical(y_ref, a * x, "Matrix::operator*(Vector)");
}

// seqDotMinus: order-pinned ------------------------

TEST(KernelEquivalenceTest, SeqDotMinusMatchesManualChain)
{
    Rng rng = Rng::stream(2014, 0);
    const std::size_t n = 53;
    const std::vector<double> a = poolBuffer(rng, n);
    const std::vector<double> b = poolBuffer(rng, n);
    const double init = rng.uniform(-10.0, 10.0);
    double manual = init;
    for (std::size_t i = 0; i < n; ++i)
        manual -= a[i] * b[i];
    const double got = kernels::seqDotMinus(init, a.data(), b.data(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(manual),
              std::bit_cast<std::uint64_t>(got));
}

// Standardize / destandardize: bit-identical ---------------------------

TEST(KernelEquivalenceTest, StandardizerMatrixPathsBitIdentical)
{
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        Rng rng = Rng::stream(2015, trial);
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto d = static_cast<std::size_t>(rng.uniformInt(1, 19));
        Matrix xs(rows, d);
        for (double &e : xs.data())
            e = poolValue(rng);
        Vector mu(d), sigma(d);
        for (std::size_t j = 0; j < d; ++j) {
            mu[j] = rng.uniform(-2.0, 2.0);
            sigma[j] = rng.uniform(0.1, 3.0);
        }
        const Standardizer std_ =
            Standardizer::fromMoments(mu, sigma);
        const Matrix z = std_.transform(xs);
        const Matrix y = std_.inverse(xs);
        for (std::size_t r = 0; r < rows; ++r) {
            expectBitIdentical(std_.transform(xs.row(r)), z.row(r),
                               "Standardizer::transform(Matrix)");
            expectBitIdentical(std_.inverse(xs.row(r)), y.row(r),
                               "Standardizer::inverse(Matrix)");
        }
    }
}

TEST(KernelEquivalenceTest, StandardizeRowsSupportsInPlace)
{
    Rng rng = Rng::stream(2016, 0);
    const std::size_t rows = 13, d = 7;
    std::vector<double> x = poolBuffer(rng, rows * d);
    std::vector<double> mu(d), sigma(d);
    for (std::size_t j = 0; j < d; ++j) {
        mu[j] = rng.uniform(-1.0, 1.0);
        sigma[j] = rng.uniform(0.5, 2.0);
    }
    std::vector<double> out(rows * d);
    kernels::standardizeRows(x.data(), out.data(), rows, d, mu.data(),
                             sigma.data());
    std::vector<double> inplace = x;
    kernels::standardizeRows(inplace.data(), inplace.data(), rows, d,
                             mu.data(), sigma.data());
    expectBitIdentical(out, inplace, "standardizeRows in-place");

    kernels::destandardizeRows(out.data(), out.data(), rows, d,
                               mu.data(), sigma.data());
    std::vector<double> back(rows * d);
    kernels::destandardizeRows(inplace.data(), back.data(), rows, d,
                               mu.data(), sigma.data());
    expectBitIdentical(out, back, "destandardizeRows in-place");
}

// Batched forward + fused serving path: bit-identical ------------------

namespace {

Mlp
randomNet(std::uint64_t seed, std::size_t inputs,
          std::vector<std::size_t> hidden, std::size_t outputs,
          const Activation &hidden_act = Activation::logistic(1.0))
{
    Rng rng = Rng::stream(2017, seed);
    std::vector<LayerSpec> layers;
    for (std::size_t h : hidden)
        layers.push_back(LayerSpec{h, hidden_act});
    layers.push_back(LayerSpec{outputs, Activation::identity()});
    return Mlp(inputs, std::move(layers), InitRule::Xavier, rng);
}

} // namespace

TEST(KernelEquivalenceTest, BatchedForwardBitIdenticalAcrossTopologies)
{
    const struct
    {
        std::size_t inputs;
        std::vector<std::size_t> hidden;
        std::size_t outputs;
        std::size_t rows;
    } cases[] = {
        {1, {}, 1, 1},       // degenerate single-unit net
        {4, {8}, 5, 3},      // the Table 2 shape
        {4, {16}, 5, 64},    // exactly one row block
        {4, {16}, 5, 65},    // block + 1-row tail
        {7, {32, 16}, 3, 200}, // two hidden layers, multiple blocks
        {3, {5}, 2, 130},
    };
    // The fused forward specializes its bias + activation loop per
    // activation kind, so every kind runs as the hidden activation of
    // every topology (the identity output layer covers Identity).
    const Activation hidden_acts[] = {
        Activation::logistic(1.0), Activation::logistic(0.5),
        Activation::tanh(), Activation::relu(),
        Activation::logarithmic(2.0)};
    std::uint64_t seed = 0;
    for (const Activation &act : hidden_acts) {
        SCOPED_TRACE(act.name());
        for (const auto &c : cases) {
            const Mlp net =
                randomNet(seed++, c.inputs, c.hidden, c.outputs, act);
            Rng rng = Rng::stream(2018, seed);
            Matrix xs(c.rows, c.inputs);
            for (double &e : xs.data())
                e = poolValue(rng);
            const Matrix out = net.forward(xs);
            ASSERT_EQ(out.rows(), c.rows);
            ASSERT_EQ(out.cols(), c.outputs);
            for (std::size_t r = 0; r < c.rows; ++r)
                expectBitIdentical(net.forward(xs.row(r)), out.row(r),
                                   "Mlp::forward(Matrix)");
        }
    }
}

TEST(KernelEquivalenceTest, FusedServingPathBitIdentical)
{
    const Mlp net = randomNet(99, 4, {16}, 5);
    Rng rng = Rng::stream(2019, 0);
    Vector x_mu(4), x_sigma(4), y_mu(5), y_sigma(5);
    for (std::size_t j = 0; j < 4; ++j) {
        x_mu[j] = rng.uniform(-2.0, 2.0);
        x_sigma[j] = rng.uniform(0.2, 4.0);
    }
    for (std::size_t j = 0; j < 5; ++j) {
        y_mu[j] = rng.uniform(-10.0, 10.0);
        y_sigma[j] = rng.uniform(0.2, 8.0);
    }
    const ModelBundle bundle = ModelBundle::fromParts(
        net, Standardizer::fromMoments(x_mu, x_sigma),
        Standardizer::fromMoments(y_mu, y_sigma), {}, {});

    for (std::size_t rows : {1u, 37u, 64u, 129u}) {
        Matrix xs(rows, 4);
        for (double &e : xs.data())
            e = poolValue(rng);
        const Matrix out = bundle.predictAll(xs);
        // predict() is the per-row composition; the fused batch path
        // must agree with it row by row.
        for (std::size_t r = 0; r < rows; ++r)
            expectBitIdentical(bundle.predict(xs.row(r)), out.row(r),
                               "ModelBundle::predictAll");
    }
}

#ifndef WCNN_NO_CONTRACTS
TEST(KernelEquivalenceTest, FusedForwardRejectsHalfPairedMoments)
{
    const Mlp net = randomNet(7, 3, {4}, 2);
    const Matrix xs(2, 3, 0.5);
    Vector mu(3, 0.0);
    EXPECT_THROW(static_cast<void>(net.fusedForward(
                     xs, &mu, nullptr, nullptr, nullptr)),
                 wcnn::ContractViolation);
}
#endif

TEST(KernelEquivalenceTest, FusedForwardHandlesEmptyBatch)
{
    const Mlp net = randomNet(8, 3, {4}, 2);
    const Matrix xs(0, 3);
    const Matrix out =
        net.fusedForward(xs, nullptr, nullptr, nullptr, nullptr);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 2u);
}
