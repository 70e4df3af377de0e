#include "standardizer.hh"

#include <cmath>

#include "core/contracts.hh"
#include "numeric/kernels/fused.hh"
#include "numeric/stats.hh"

namespace wcnn {
namespace data {

Standardizer
Standardizer::identity(std::size_t d)
{
    Standardizer s;
    s.mu.assign(d, 0.0);
    s.sigma.assign(d, 1.0);
    return s;
}

Standardizer
Standardizer::fromMoments(numeric::Vector mu, numeric::Vector sigma)
{
    WCNN_REQUIRE(mu.size() == sigma.size(), "moment size mismatch: ",
                 mu.size(), " means vs ", sigma.size(), " scales");
    for (double s : sigma)
        WCNN_REQUIRE(s > 0.0, "standardizer scale must be positive, got ",
                     s);
    Standardizer out;
    out.mu = std::move(mu);
    out.sigma = std::move(sigma);
    return out;
}

void
Standardizer::fit(const numeric::Matrix &samples)
{
    const std::size_t d = samples.cols();
    mu.assign(d, 0.0);
    sigma.assign(d, 1.0);
    for (std::size_t j = 0; j < d; ++j) {
        const numeric::Vector column = samples.col(j);
        mu[j] = numeric::mean(column);
        const double s = numeric::stddev(column);
        // Constant columns keep scale 1 so the transform stays invertible.
        sigma[j] = s > 0.0 ? s : 1.0;
    }
}

numeric::Vector
Standardizer::transform(const numeric::Vector &x) const
{
    WCNN_REQUIRE(x.size() == dim(), "transform input has ", x.size(),
                 " dims, standardizer was fit on ", dim());
    numeric::Vector z(x.size());
    for (std::size_t j = 0; j < x.size(); ++j)
        z[j] = (x[j] - mu[j]) / sigma[j];
    return z;
}

numeric::Matrix
Standardizer::transform(const numeric::Matrix &xs) const
{
    WCNN_REQUIRE(xs.cols() == dim(), "transform input has ", xs.cols(),
                 " columns, standardizer was fit on ", dim());
    numeric::Matrix out(xs.rows(), xs.cols());
    numeric::kernels::standardizeRows(xs.data().data(), out.data().data(),
                                      xs.rows(), dim(), mu.data(),
                                      sigma.data());
    return out;
}

numeric::Vector
Standardizer::inverse(const numeric::Vector &z) const
{
    WCNN_REQUIRE(z.size() == dim(), "inverse input has ", z.size(),
                 " dims, standardizer was fit on ", dim());
    numeric::Vector x(z.size());
    for (std::size_t j = 0; j < z.size(); ++j)
        x[j] = z[j] * sigma[j] + mu[j];
    return x;
}

numeric::Matrix
Standardizer::inverse(const numeric::Matrix &zs) const
{
    WCNN_REQUIRE(zs.cols() == dim(), "inverse input has ", zs.cols(),
                 " columns, standardizer was fit on ", dim());
    numeric::Matrix out(zs.rows(), zs.cols());
    numeric::kernels::destandardizeRows(zs.data().data(),
                                        out.data().data(), zs.rows(),
                                        dim(), mu.data(), sigma.data());
    return out;
}

} // namespace data
} // namespace wcnn
