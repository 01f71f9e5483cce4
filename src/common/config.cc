#include "common/config.h"

#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace gly {

Result<Config> Config::Parse(const std::string& text) {
  Config config;
  std::string section;
  size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '#' || sv[0] == ';') continue;
    if (sv.front() == '[') {
      if (sv.back() != ']') {
        return Status::InvalidArgument(
            StringPrintf("config line %zu: unterminated section header", line_no));
      }
      section = std::string(Trim(sv.substr(1, sv.size() - 2)));
      continue;
    }
    size_t eq = sv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StringPrintf("config line %zu: expected key=value", line_no));
    }
    std::string key(Trim(sv.substr(0, eq)));
    std::string value(Trim(sv.substr(eq + 1)));
    if (key.empty()) {
      return Status::InvalidArgument(
          StringPrintf("config line %zu: empty key", line_no));
    }
    if (!section.empty()) key = section + "." + key;
    config.values_[key] = value;
  }
  return config;
}

Result<Config> Config::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = Parse(buf.str());
  if (!result.ok()) return result.status().WithPrefix(path);
  return result;
}

void Config::Set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}
void Config::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}
void Config::SetDouble(const std::string& key, double value) {
  values_[key] = StringPrintf("%.17g", value);
}
void Config::SetBool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

Result<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("config key: " + key);
  return it->second;
}

Result<uint64_t> Config::GetUint(const std::string& key) const {
  GLY_ASSIGN_OR_RETURN(std::string s, GetString(key));
  return ParseUint64(s);
}

Result<double> Config::GetDouble(const std::string& key) const {
  GLY_ASSIGN_OR_RETURN(std::string s, GetString(key));
  return ParseDouble(s);
}

Result<bool> Config::GetBool(const std::string& key) const {
  GLY_ASSIGN_OR_RETURN(std::string s, GetString(key));
  std::string lower = ToLower(s);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  return Status::InvalidArgument("cannot parse bool: '" + s + "'");
}

std::vector<std::string> Config::KeysWithPrefix(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back(it->first);
  }
  return out;
}

Config Config::Scoped(const std::string& prefix) const {
  Config out;
  std::string full = prefix + ".";
  for (const std::string& key : KeysWithPrefix(full)) {
    out.values_[key.substr(full.size())] = values_.at(key);
  }
  return out;
}

std::string Config::ToString() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    out += k;
    out += " = ";
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace gly
