/**
 * @file
 * Concurrency hammering for the kernel arena and the fused serving
 * path, run under the `chaos` CTest label so the nightly ASan/TSan
 * sweeps pick it up:
 *
 *   - many threads hammer their own threadArena() simultaneously with
 *     interleaved alloc/Frame/reset cycles — any cross-thread sharing
 *     or lifetime bug is a sanitizer report;
 *   - concurrent fused predictAll calls must each produce the bit
 *     pattern of the single-threaded per-row ModelBundle::predict
 *     (the arena is per-thread scratch, so concurrency must be
 *     invisible in the results).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/kernels/arena.hh"
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

TEST(ChaosKernelArenaTest, ConcurrentThreadArenasStayIsolated)
{
    constexpr int threads = 8;
    constexpr int rounds = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([t, &failures] {
            Rng rng = Rng::stream(2026, static_cast<std::uint64_t>(t));
            kernels::Arena &arena = kernels::threadArena();
            for (int round = 0; round < rounds; ++round) {
                {
                    kernels::Arena::Frame frame(arena);
                    // A handful of randomly sized blocks, each
                    // stamped with a thread-unique pattern and
                    // verified after the other blocks were written —
                    // cross-thread or cross-block aliasing flips a
                    // stamp.
                    const int blocks =
                        static_cast<int>(rng.uniformInt(1, 6));
                    std::vector<std::pair<double *, std::size_t>> owned;
                    for (int bl = 0; bl < blocks; ++bl) {
                        const auto n = static_cast<std::size_t>(
                            rng.uniformInt(0, 700));
                        double *p = arena.alloc(n);
                        const double stamp =
                            t * 1e6 + round * 10.0 + bl;
                        for (std::size_t i = 0; i < n; ++i)
                            p[i] = stamp;
                        owned.emplace_back(p, n);
                    }
                    for (std::size_t bl = 0; bl < owned.size(); ++bl) {
                        const double stamp = t * 1e6 + round * 10.0 +
                                             static_cast<double>(bl);
                        auto &[p, n] = owned[bl];
                        for (std::size_t i = 0; i < n; ++i)
                            if (p[i] != stamp)
                                failures.fetch_add(1);
                    }
                }
                // Occasionally drop everything, exercising reset
                // interleaved with other threads' traffic.
                if (round % 50 == 49)
                    arena.reset();
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(ChaosKernelArenaTest, ConcurrentFusedPredictAllIsBitStable)
{
    Rng rng = Rng::stream(2027, 0);
    const Mlp net(4,
                  {LayerSpec{16, Activation::logistic(1.0)},
                   LayerSpec{5, Activation::identity()}},
                  InitRule::Xavier, rng);
    Vector x_mu(4), x_sigma(4), y_mu(5), y_sigma(5);
    for (std::size_t j = 0; j < 4; ++j) {
        x_mu[j] = rng.uniform(-1.0, 1.0);
        x_sigma[j] = rng.uniform(0.5, 2.0);
    }
    for (std::size_t j = 0; j < 5; ++j) {
        y_mu[j] = rng.uniform(-5.0, 5.0);
        y_sigma[j] = rng.uniform(0.5, 4.0);
    }
    const ModelBundle bundle = ModelBundle::fromParts(
        net, Standardizer::fromMoments(x_mu, x_sigma),
        Standardizer::fromMoments(y_mu, y_sigma), {}, {});

    Matrix xs(97, 4);
    for (double &e : xs.data())
        e = rng.uniform(-3.0, 3.0);

    // Golden: the per-row composition, single-threaded.
    Matrix expected(xs.rows(), bundle.outputDim());
    for (std::size_t r = 0; r < xs.rows(); ++r)
        expected.setRow(r, bundle.predict(xs.row(r)));

    constexpr int threads = 8;
    constexpr int repeats = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int rep = 0; rep < repeats; ++rep) {
                const Matrix got = bundle.predictAll(xs);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    if (std::bit_cast<std::uint64_t>(got.data()[i]) !=
                        std::bit_cast<std::uint64_t>(
                            expected.data()[i]))
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
}
