#pragma once
// Minimal JSON value + serializer shared by the observability layer (JSONL
// log sink) and the bench reporter. Write-only on purpose: the repo needs
// machine-readable *output* (BENCH_*.json, structured log lines), not a
// parser. Object keys keep insertion order so
// emitted files are stable and diffable run-to-run.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hp::obs {

/// Escapes @p s for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters; UTF-8 passes through untouched).
[[nodiscard]] std::string json_escape(std::string_view s);

/// A JSON document node. Small tagged union; numbers keep their original
/// integer/floating kind so counts serialize without a decimal point.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::Int), int_(v) {}
  JsonValue(long v) : kind_(Kind::Int), int_(v) {}
  JsonValue(long long v) : kind_(Kind::Int), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::Uint), uint_(v) {}
  JsonValue(unsigned long v) : kind_(Kind::Uint), uint_(v) {}
  JsonValue(unsigned long long v) : kind_(Kind::Uint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::Double), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::String), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  JsonValue(std::string_view s) : kind_(Kind::String), string_(s) {}

  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// Object access; inserts a null member on first use. Converts a null
  /// value into an object (so `v["a"]["b"] = 1` builds nested objects).
  JsonValue& operator[](const std::string& key);
  /// Array append; converts a null value into an array.
  void push_back(JsonValue element);

  [[nodiscard]] std::size_t size() const noexcept;

  /// Numeric value of an Int/Uint/Double node, @p fallback otherwise. The
  /// one read accessor: event consumers (the CLI progress sink) pick
  /// numbers back out of log fields with it.
  [[nodiscard]] double number_or(double fallback) const noexcept;

  /// Serializes compactly (no whitespace) when @p indent < 0, or
  /// pretty-prints with @p indent spaces per level.
  void dump(std::ostream& os, int indent = -1, int depth = 0) const;
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace hp::obs
