// Config: typed key=value configuration used by the harness.
//
// The paper's harness is configured through properties files ("We also
// provide configuration files associated with these graphs"). Config parses
// a minimal properties/INI dialect: `key = value` lines, `#`/`;` comments,
// optional `[section]` headers that prefix keys with "section.".

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace gly {

/// An ordered string->string map with typed accessors.
class Config {
 public:
  Config() = default;

  /// Parses properties text (see file comment for the dialect).
  static Result<Config> Parse(const std::string& text);

  /// Loads and parses a properties file.
  static Result<Config> LoadFile(const std::string& path);

  /// Sets (or overwrites) a key.
  void Set(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  bool Has(const std::string& key) const;

  /// Typed getters; fail with NotFound / InvalidArgument.
  Result<std::string> GetString(const std::string& key) const;
  Result<int64_t> GetInt(const std::string& key) const;
  Result<uint64_t> GetUint(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;

  /// Getters with defaults; never fail (a malformed value also yields the
  /// default).
  std::string GetStringOr(const std::string& key, std::string def) const;
  int64_t GetIntOr(const std::string& key, int64_t def) const;
  uint64_t GetUintOr(const std::string& key, uint64_t def) const;
  double GetDoubleOr(const std::string& key, double def) const;
  bool GetBoolOr(const std::string& key, bool def) const;

  /// All keys with the given prefix, in sorted order.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// Returns a Config containing every `prefix.rest` key re-keyed to `rest`.
  Config Scoped(const std::string& prefix) const;

  /// Merges `other` into this config; `other` wins on conflicts.
  void MergeFrom(const Config& other);

  /// Serializes back to properties text (sorted by key).
  std::string ToString() const;

  size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

/// Reads an optional unsigned key into `*value`: an unset key leaves
/// `*value` as it is, but a set one must parse and fit in T, or the
/// InvalidArgument names `scope` + `key`. `scope` is the prefix a Scoped
/// config dropped ("graphx."), so the error names the key as written.
template <typename T>
Status ReadSetUint(const Config& config, const std::string& key, T* value,
                   const std::string& scope = "") {
  if (!config.Has(key)) return Status::OK();
  Result<uint64_t> parsed = config.GetUint(key);
  if (!parsed.ok()) return parsed.status().WithPrefix(scope + key);
  if (*parsed > std::numeric_limits<T>::max()) {
    return Status::InvalidArgument(scope + key + ": " +
                                   std::to_string(*parsed) +
                                   " is out of range");
  }
  *value = static_cast<T>(*parsed);
  return Status::OK();
}

/// ReadSetUint's twins for a double and a bool key: an unset key leaves
/// `*value` as it is, a set one must parse.
Status ReadSetDouble(const Config& config, const std::string& key,
                     double* value, const std::string& scope = "");
Status ReadSetBool(const Config& config, const std::string& key, bool* value,
                   const std::string& scope = "");

}  // namespace gly
