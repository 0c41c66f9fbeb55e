#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/contracts.hpp"

namespace hp::linalg {

// Every entry of L is computed by one fixed expression, whatever the loop
// order: l(i,j) = (a(i,j) - l(i,0)*l(j,0) - l(i,1)*l(j,1) - ...) / l(j,j),
// the products subtracted one at a time in ascending k (the diagonal is the
// same with i = j and a square root instead of the division). The loops
// below run over independent entries in the inner loop, so they vectorize
// without changing any entry's rounding.

std::optional<Matrix> Cholesky::factorize(const Matrix& a) {
  HP_ASSERT(a.square(), "Cholesky::factorize: callers pre-check squareness");
  const std::size_t n = a.rows();
  const std::vector<double>& av = a.raw();
  Matrix u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    // Column j of L (row j of u), entries i >= j, one accumulator each.
    const std::span<double> uj = u.row_span(j);
    for (std::size_t i = j; i < n; ++i) uj[i] = av[i * n + j];
    // Four rows of u per pass (fewer loads and stores of uj); each entry
    // still subtracts its k terms one at a time in ascending order.
    std::size_t k = 0;
    for (; k + 4 <= j; k += 4) {
      const double* u0 = std::as_const(u).row_span(k).data();
      const double* u1 = u0 + n;
      const double* u2 = u1 + n;
      const double* u3 = u2 + n;
      const double l0 = u0[j], l1 = u1[j], l2 = u2[j], l3 = u3[j];
      for (std::size_t i = j; i < n; ++i) {
        uj[i] = (((uj[i] - u0[i] * l0) - u1[i] * l1) - u2[i] * l2) -
                u3[i] * l3;
      }
    }
    for (; k < j; ++k) {
      const std::span<const double> uk = std::as_const(u).row_span(k);
      const double ljk = uk[j];
      for (std::size_t i = j; i < n; ++i) uj[i] -= uk[i] * ljk;
    }
    const double diag = uj[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    uj[j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) uj[i] /= ljj;
  }
  return u;
}

Cholesky::Cholesky(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  if (!a.is_symmetric(1e-8 * std::max(1.0, a.max_abs()))) {
    throw std::invalid_argument("Cholesky: matrix must be symmetric");
  }
  auto u = factorize(a);
  if (!u) {
    throw std::runtime_error("Cholesky: matrix is not positive definite");
  }
  u_ = std::move(*u);
}

std::optional<Cholesky> Cholesky::with_jitter(Matrix a, double initial_jitter,
                                              int max_attempts) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky::with_jitter: matrix must be square");
  }
  if (auto u = factorize(a)) {
    return Cholesky(FromFactor{}, std::move(*u), 0.0);
  }
  double jitter = initial_jitter * std::max(1.0, a.max_abs());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix jittered = a;
    jittered.add_to_diagonal(jitter);
    if (auto u = factorize(jittered)) {
      return Cholesky(FromFactor{}, std::move(*u), jitter);
    }
    jitter *= 10.0;
  }
  return std::nullopt;
}

std::optional<Cholesky> Cholesky::extended(const Vector& row,
                                           double diag) const {
  const std::size_t n = size();
  HP_REQUIRE(row.size() == n, "Cholesky::extended: row dimension mismatch");
  // The new bottom row y of L solves L y = row. solve_lower_into() forms
  // each y_j exactly as factorize() forms l(n,j): row[j] minus the
  // products y_k*l(j,k) in ascending k, divided by l(j,j).
  std::vector<double> y(n);
  solve_lower_into(std::span<const double>(row.raw()), std::span<double>(y));
  // New pivot: same sequential subtraction order as factorize()'s diagonal
  // accumulation (NOT diag - dot(y, y), which rounds differently).
  double pivot = diag;
  for (std::size_t k = 0; k < n; ++k) pivot -= y[k] * y[k];
  if (pivot <= 0.0 || !std::isfinite(pivot)) return std::nullopt;
  Matrix u(n + 1, n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const double> src = u_.row_span(r);
    const std::span<double> dst = u.row_span(r);
    for (std::size_t c = r; c < n; ++c) dst[c] = src[c];
    dst[n] = y[r];
  }
  u(n, n) = std::sqrt(pivot);
  return Cholesky(FromFactor{}, std::move(u), jitter_);
}

Cholesky Cholesky::truncated(std::size_t k) const {
  if (k == 0 || k > size()) {
    throw std::invalid_argument("Cholesky::truncated: size out of range");
  }
  Matrix u(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    const std::span<const double> src = u_.row_span(r);
    const std::span<double> dst = u.row_span(r);
    for (std::size_t c = r; c < k; ++c) dst[c] = src[c];
  }
  return Cholesky(FromFactor{}, std::move(u), jitter_);
}

Vector Cholesky::solve_lower(const Vector& b) const {
  HP_REQUIRE(b.size() == size(), "Cholesky::solve_lower: dimension mismatch");
  Vector y(size());
  solve_lower_into(std::span<const double>(b.raw()),
                   std::span<double>(y.raw()));
  return y;
}

void Cholesky::solve_lower_into(std::span<const double> b,
                                std::span<double> out) const {
  const std::size_t n = size();
  HP_REQUIRE(b.size() == n && out.size() == n,
             "Cholesky::solve_lower_into: dimension mismatch");
  // Column sweep: once out[k] is final, subtract its contribution from
  // every later entry. Each out[i] still receives b[i] - l(i,0)*out[0] -
  // l(i,1)*out[1] - ... in ascending k before its division.
  for (std::size_t i = 0; i < n; ++i) out[i] = b[i];
  for (std::size_t k = 0; k < n; ++k) {
    const std::span<const double> uk = u_.row_span(k);
    const double yk = out[k] / uk[k];
    out[k] = yk;
    for (std::size_t i = k + 1; i < n; ++i) out[i] -= uk[i] * yk;
  }
}

Vector Cholesky::solve_upper(const Vector& y) const {
  const std::size_t n = size();
  HP_REQUIRE(y.size() == n, "Cholesky::solve_upper: dimension mismatch");
  Vector x(n);
  const std::span<double> xs(x.raw());
  for (std::size_t ii = n; ii-- > 0;) {
    // Row ii of L^T is column ii of L: a contiguous row of u_.
    const std::span<const double> ui = u_.row_span(ii);
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= ui[k] * xs[k];
    xs[ii] = acc / ui[ii];
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

double Cholesky::log_det() const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += std::log(u_(i, i));
  return 2.0 * acc;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = size();
  Matrix inv(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(n);
    e[c] = 1.0;
    inv.set_col(c, solve(e));
  }
  return inv;
}

}  // namespace hp::linalg
