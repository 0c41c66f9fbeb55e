#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace hp::linalg {

namespace {
// Contract detail string for a dimension mismatch; only built on failure.
// [[maybe_unused]]: with HP_CONTRACTS=0 every call site compiles out.
[[maybe_unused]] std::string size_mismatch(const char* op, std::size_t a,
                                           std::size_t b) {
  return std::string("Vector ") + op + ": dimension mismatch (" +
         std::to_string(a) + " vs " + std::to_string(b) + ")";
}
}  // namespace

Vector& Vector::operator+=(const Vector& rhs) {
  HP_REQUIRE(size() == rhs.size(), size_mismatch("+=", size(), rhs.size()));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  HP_REQUIRE(size() == rhs.size(), size_mismatch("-=", size(), rhs.size()));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  HP_REQUIRE(s != 0.0, "Vector /=: division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

double Vector::norm() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Vector::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Vector::mean() const {
  if (data_.empty()) throw std::logic_error("Vector::mean on empty vector");
  return sum() / static_cast<double>(data_.size());
}

double Vector::max() const {
  if (data_.empty()) throw std::logic_error("Vector::max on empty vector");
  return *std::max_element(data_.begin(), data_.end());
}

double Vector::min() const {
  if (data_.empty()) throw std::logic_error("Vector::min on empty vector");
  return *std::min_element(data_.begin(), data_.end());
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector lhs, double s) { return lhs *= s; }
Vector operator*(double s, Vector rhs) { return rhs *= s; }
Vector operator/(Vector lhs, double s) { return lhs /= s; }

double dot(const Vector& a, const Vector& b) {
  HP_REQUIRE(a.size() == b.size(), size_mismatch("dot", a.size(), b.size()));
  return dot(std::span<const double>(a.raw()),
             std::span<const double>(b.raw()));
}

double dot(std::span<const double> a, std::span<const double> b) {
  HP_REQUIRE(a.size() == b.size(), size_mismatch("dot", a.size(), b.size()));
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

Vector hadamard(const Vector& a, const Vector& b) {
  HP_REQUIRE(a.size() == b.size(),
             size_mismatch("hadamard", a.size(), b.size()));
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  HP_REQUIRE(a.size() == b.size(),
             size_mismatch("max_abs_diff", a.size(), b.size()));
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << v[i];
  }
  return os << ']';
}

}  // namespace hp::linalg
