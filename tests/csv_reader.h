// ParseCsvLine: the tests' reader for CsvWriter's output. No product code
// reads CSV back (results_query reads the JSONL journal), so the reader
// lives with the tests that check the writer's quoting and mask the
// report's CSV against its golden.

#pragma once

#include <string>
#include <vector>

namespace gly {

/// Parses one CSV record into fields, undoing CsvWriter's quoting (RFC
/// 4180: quoted fields may contain commas, doubled quotes, and newlines).
/// `line` must be a complete record — when a quoted field contains a
/// newline the caller must join physical lines until the quotes balance.
inline std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';  // doubled quote inside a quoted field
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace gly
