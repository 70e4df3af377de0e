#include "matrix.hh"

#include <cmath>
#include <sstream>

#include "kernels/blas.hh"
#include "rng.hh"

namespace wcnn {
namespace numeric {

Matrix::Matrix(std::size_t r, std::size_t c, double fill)
    : nRows(r), nCols(c), elems(r * c, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows_init)
{
    nRows = rows_init.size();
    nCols = nRows ? rows_init.begin()->size() : 0;
    elems.reserve(nRows * nCols);
    for (const auto &r : rows_init) {
        WCNN_REQUIRE(r.size() == nCols,
                     "initializer row has ", r.size(), " elements, expected ",
                     nCols);
        elems.insert(elems.end(), r.begin(), r.end());
    }
}

Vector
Matrix::row(std::size_t i) const
{
    WCNN_CHECK_INDEX(i, nRows);
    return Vector(elems.begin() + static_cast<std::ptrdiff_t>(i * nCols),
                  elems.begin() + static_cast<std::ptrdiff_t>((i + 1) * nCols));
}

Vector
Matrix::col(std::size_t j) const
{
    WCNN_CHECK_INDEX(j, nCols);
    Vector v(nRows);
    for (std::size_t i = 0; i < nRows; ++i)
        v[i] = (*this)(i, j);
    return v;
}

void
Matrix::setRow(std::size_t i, const Vector &v)
{
    WCNN_CHECK_INDEX(i, nRows);
    WCNN_REQUIRE(v.size() == nCols, "row vector has ", v.size(),
                 " elements, expected ", nCols);
    for (std::size_t j = 0; j < nCols; ++j)
        (*this)(i, j) = v[j];
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::random(std::size_t r, std::size_t c, Rng &rng, double lo, double hi)
{
    Matrix m(r, c);
    for (auto &e : m.elems)
        e = rng.uniform(lo, hi);
    return m;
}

Matrix
Matrix::transposed() const
{
    Matrix t(nCols, nRows);
    for (std::size_t i = 0; i < nRows; ++i)
        for (std::size_t j = 0; j < nCols; ++j)
            t(j, i) = (*this)(i, j);
    return t;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    WCNN_REQUIRE(nCols == other.nRows, "product shape mismatch: ", nRows, "x",
                 nCols, " * ", other.nRows, "x", other.nCols);
    // The product loop lives in the kernel layer (lint R8).
    Matrix out(nRows, other.nCols);
    kernels::gemm(elems.data(), other.elems.data(), out.elems.data(),
                  nRows, nCols, other.nCols);
    return out;
}

Vector
Matrix::operator*(const Vector &v) const
{
    WCNN_REQUIRE(v.size() == nCols, "matrix-vector shape mismatch: ", nRows,
                 "x", nCols, " * vector of ", v.size());
    Vector out(nRows, 0.0);
    kernels::gemv(elems.data(), v.data(), out.data(), nRows, nCols);
    return out;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    Matrix out(*this);
    out += other;
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    Matrix out(*this);
    out -= other;
    return out;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix out(*this);
    out *= s;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    WCNN_REQUIRE(nRows == other.nRows && nCols == other.nCols,
                 "elementwise add shape mismatch: ", nRows, "x", nCols,
                 " vs ", other.nRows, "x", other.nCols);
    for (std::size_t i = 0; i < elems.size(); ++i)
        elems[i] += other.elems[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    WCNN_REQUIRE(nRows == other.nRows && nCols == other.nCols,
                 "elementwise subtract shape mismatch: ", nRows, "x", nCols,
                 " vs ", other.nRows, "x", other.nCols);
    for (std::size_t i = 0; i < elems.size(); ++i)
        elems[i] -= other.elems[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (auto &e : elems)
        e *= s;
    return *this;
}

Matrix
Matrix::hadamard(const Matrix &other) const
{
    WCNN_REQUIRE(nRows == other.nRows && nCols == other.nCols,
                 "hadamard shape mismatch: ", nRows, "x", nCols, " vs ",
                 other.nRows, "x", other.nCols);
    Matrix out(*this);
    for (std::size_t i = 0; i < elems.size(); ++i)
        out.elems[i] *= other.elems[i];
    return out;
}

Matrix
Matrix::apply(const std::function<double(double)> &fn) const
{
    Matrix out(*this);
    for (auto &e : out.elems)
        e = fn(e);
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (double e : elems)
        acc += e * e;
    return std::sqrt(acc);
}

bool
Matrix::operator==(const Matrix &other) const
{
    return nRows == other.nRows && nCols == other.nCols &&
           elems == other.elems;
}

std::string
Matrix::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < nRows; ++i) {
        for (std::size_t j = 0; j < nCols; ++j) {
            if (j)
                os << ' ';
            os << (*this)(i, j);
        }
        os << '\n';
    }
    return os.str();
}

Matrix
outer(const Vector &u, const Vector &v)
{
    Matrix m(u.size(), v.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        for (std::size_t j = 0; j < v.size(); ++j)
            m(i, j) = u[i] * v[j];
    return m;
}

double
dot(const Vector &u, const Vector &v)
{
    WCNN_REQUIRE(u.size() == v.size(), "dot size mismatch: ", u.size(),
                 " vs ", v.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i)
        acc += u[i] * v[i];
    return acc;
}

Vector
add(const Vector &u, const Vector &v)
{
    WCNN_REQUIRE(u.size() == v.size(), "add size mismatch: ", u.size(),
                 " vs ", v.size());
    Vector out(u);
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] += v[i];
    return out;
}

Vector
sub(const Vector &u, const Vector &v)
{
    WCNN_REQUIRE(u.size() == v.size(), "sub size mismatch: ", u.size(),
                 " vs ", v.size());
    Vector out(u);
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] -= v[i];
    return out;
}

Vector
scale(const Vector &u, double s)
{
    Vector out(u);
    for (auto &e : out)
        e *= s;
    return out;
}

double
norm(const Vector &u)
{
    return std::sqrt(dot(u, u));
}

} // namespace numeric
} // namespace wcnn
