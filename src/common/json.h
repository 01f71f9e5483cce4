// json — the one reader for every JSON artifact this repo writes and reads
// back: the `--resume` journal and results database (harness/report.h),
// metrics.jsonl (metrics.h), trace.json (trace.h) and profile.json
// (trace_analysis.h). Each of those is a thin decoder over Parse(); none
// scans text on its own.
//
// Parse() is a strict RFC 8259 reader: one value, optional surrounding
// whitespace, nothing else. It decodes every escape JsonEscape writes and
// turns \uXXXX (surrogate pairs included) into UTF-8. Bytes >= 0x80 pass
// through as-is, as JsonEscape writes them. Numbers keep their literal
// text, so a uint64 reads back exactly. Nesting deeper than kMaxDepth is
// rejected instead of recursing without bound, since the tools read any
// file they are handed.
//
//   GLY_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
//   GLY_ASSIGN_OR_RETURN(uint64_t edges, doc.Get<uint64_t>("edges"));
//   GLY_ASSIGN_OR_RETURN(std::string note, doc.GetOr<std::string>("note", ""));

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace gly::json {

/// Deepest array/object nesting Parse() accepts. The repo's own artifacts
/// nest at most four levels.
inline constexpr int kMaxDepth = 256;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  /// Members in document order. A repeated key is kept; Find() returns the
  /// first.
  using Object = std::vector<std::pair<std::string, Value>>;

  Type type() const { return static_cast<Type>(data_.index()); }

  /// Elements of an array / members of an object; nullptr for other types.
  const Array* array() const { return std::get_if<Array>(&data_); }
  const Object* object() const { return std::get_if<Object>(&data_); }

  /// The first member named `key`, or nullptr (also when not an object).
  const Value* Find(std::string_view key) const;

  /// This value as T: bool, std::string, double (any number), or uint64_t
  /// or uint32_t (a non-negative integer literal that fits).
  /// InvalidArgument when the type differs.
  template <typename T>
  Result<T> As() const;

  /// Member `key` as T; InvalidArgument naming the key when it is missing
  /// or holds another type.
  template <typename T>
  Result<T> Get(std::string_view key) const;

  /// Like Get, but a missing member yields `fallback`.
  template <typename T>
  Result<T> GetOr(std::string_view key, T fallback) const {
    if (Find(key) == nullptr) return fallback;
    return Get<T>(key);
  }

  /// Elements of the array member `key` (same errors as Get).
  Result<const Array*> GetArray(std::string_view key) const;

 private:
  friend class Parser;
  struct Number {
    std::string text;  ///< the literal as written, e.g. "-1.5e3"
  };
  // Alternative order matches Type.
  std::variant<std::monostate, bool, Number, std::string, Array, Object>
      data_;
};

template <>
Result<bool> Value::As<bool>() const;
template <>
Result<std::string> Value::As<std::string>() const;
template <>
Result<double> Value::As<double>() const;
template <>
Result<uint64_t> Value::As<uint64_t>() const;
template <>
Result<uint32_t> Value::As<uint32_t>() const;

template <typename T>
Result<T> Value::Get(std::string_view key) const {
  const Value* member = Find(key);
  if (member == nullptr) {
    return Status::InvalidArgument("missing key \"" + std::string(key) + "\"");
  }
  Result<T> value = member->As<T>();
  if (!value.ok()) {
    return value.status().WithPrefix("key \"" + std::string(key) + "\"");
  }
  return value;
}

/// Parses one JSON document. Errors are InvalidArgument and name the byte
/// offset of the first violation.
Result<Value> Parse(std::string_view text);

}  // namespace gly::json
