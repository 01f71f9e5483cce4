// Config: typed key=value configuration used by the harness.
//
// The paper's harness is configured through properties files ("We also
// provide configuration files associated with these graphs"). Config parses
// a minimal properties/INI dialect: `key = value` lines, `#`/`;` comments,
// optional `[section]` headers that prefix keys with "section.".

#pragma once

#include <cstdint>
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
  Result<uint64_t> GetUint(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;

  /// All keys with the given prefix, in sorted order.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// Returns a Config containing every `prefix.rest` key re-keyed to `rest`.
  Config Scoped(const std::string& prefix) const;

  /// Serializes back to properties text (sorted by key).
  std::string ToString() const;

  size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gly
