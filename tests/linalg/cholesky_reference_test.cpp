// Bitwise equivalence of the column-major Cholesky against the textbook
// row-oriented loops it replaced. The golden traces depend on every factor
// entry and every solve being rounded exactly as before, so these tests use
// EXPECT_EQ on doubles, never a tolerance.

#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <string>

#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

// ---- reference: the row-oriented loops, on a lower-triangular L ----------

std::optional<Matrix> ref_factorize(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return l;
}

/// Cholesky::with_jitter()'s retry schedule over ref_factorize().
std::optional<Matrix> ref_with_jitter(const Matrix& a, double* jitter_used) {
  *jitter_used = 0.0;
  if (auto l = ref_factorize(a)) return l;
  double jitter = 1e-10 * std::max(1.0, a.max_abs());
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix jittered = a;
    jittered.add_to_diagonal(jitter);
    if (auto l = ref_factorize(jittered)) {
      *jitter_used = jitter;
      return l;
    }
    jitter *= 10.0;
  }
  return std::nullopt;
}

Vector ref_solve_lower(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
    y[i] = acc / l(i, i);
  }
  return y;
}

Vector ref_solve_upper(const Matrix& l, const Vector& y) {
  const std::size_t n = l.rows();
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

double ref_log_det(const Matrix& l) {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

// ---- fixtures --------------------------------------------------------------

/// Random SPD matrix A = B B^T + n*I.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian();
  }
  Matrix a = b * b.transposed();
  a.add_to_diagonal(static_cast<double>(n));
  return a;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.gaussian();
  return v;
}

void expect_bits_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

void expect_bits_equal(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "[" << i << "]";
  }
}

/// Checks every public operation of @p chol against the reference factor
/// @p l of the same matrix.
void expect_matches_reference(const Cholesky& chol, const Matrix& l,
                              std::uint64_t seed) {
  const std::size_t n = l.rows();
  ASSERT_EQ(chol.size(), n);
  expect_bits_equal(chol.lower(), l);
  EXPECT_EQ(chol.log_det(), ref_log_det(l));

  const Vector b = random_vector(n, seed + 1);
  const Vector y = ref_solve_lower(l, b);
  expect_bits_equal(chol.solve_lower(b), y);
  Vector into(n);
  chol.solve_lower_into(std::span<const double>(b.raw()),
                        std::span<double>(into.raw()));
  expect_bits_equal(into, y);
  expect_bits_equal(chol.solve_upper(b), ref_solve_upper(l, b));
  expect_bits_equal(chol.solve(b), ref_solve_upper(l, y));

  for (std::size_t k : {std::size_t{1}, (n + 1) / 2, n}) {
    Matrix lk(k, k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j <= i; ++j) lk(i, j) = l(i, j);
    }
    const Cholesky truncated = chol.truncated(k);
    expect_bits_equal(truncated.lower(), lk);
    EXPECT_EQ(truncated.jitter_used(), chol.jitter_used());
  }
}

class CholeskyReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyReference, FactorAndSolvesMatchRowOrientedLoops) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const auto l = ref_factorize(a);
  ASSERT_TRUE(l.has_value());
  expect_matches_reference(Cholesky(a), *l, n);
}

TEST_P(CholeskyReference, ExtendedMatchesReferenceFactorOfBorderedMatrix) {
  // The bordered update of the leading n x n factor equals the reference
  // factor of the full (n+1) x (n+1) matrix.
  const std::size_t n = GetParam();
  const Matrix full = random_spd(n + 1, 200 + n);
  Matrix lead(n, n);
  Vector row(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = full(i, j);
    row[i] = full(n, i);
  }
  const auto ext = Cholesky(lead).extended(row, full(n, n));
  ASSERT_TRUE(ext.has_value());
  const auto l = ref_factorize(full);
  ASSERT_TRUE(l.has_value());
  expect_matches_reference(*ext, *l, n);
}

TEST_P(CholeskyReference, JitteredFactorMatchesReferenceRetry) {
  // A rank-deficient PSD matrix (rank about n/2, all-ones for n = 1..3)
  // fails the plain factorization, so with_jitter() retries.
  const std::size_t n = GetParam();
  stats::Rng rng(300 + n);
  const std::size_t rank = n / 2;
  Matrix a(n, n, 1.0);
  if (rank > 1) {
    Matrix b(n, rank);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < rank; ++j) b(i, j) = rng.gaussian();
    }
    a = b * b.transposed();
  }
  double ref_jitter = 0.0;
  const auto l = ref_with_jitter(a, &ref_jitter);
  const auto chol = Cholesky::with_jitter(a);
  ASSERT_EQ(chol.has_value(), l.has_value());
  if (!l.has_value()) return;
  EXPECT_EQ(chol->jitter_used(), ref_jitter);
  if (n > 1) {
    EXPECT_GT(ref_jitter, 0.0);
  }
  expect_matches_reference(*chol, *l, n);
}

std::string size_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return std::to_string(info.param).insert(0, 1, 'n');
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyReference,
                         ::testing::Values(1, 2, 3, 17, 64, 120, 200),
                         size_name);

}  // namespace
}  // namespace hp::linalg
