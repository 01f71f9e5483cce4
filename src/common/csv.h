// CsvWriter: RFC-4180-ish CSV emission for harness reports and bench output.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gly {

/// Streams CSV rows to an ostream, quoting fields when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream* out) : out_(out) {}

  /// Writes a header row.
  void WriteHeader(const std::vector<std::string>& columns) { WriteRow(columns); }

  /// Writes one row; fields containing commas, quotes, or newlines are quoted.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience builder-style row API.
  CsvWriter& Field(const std::string& value);
  CsvWriter& Field(uint64_t value);
  CsvWriter& Field(double value);
  /// Terminates the row started with Field() calls.
  void EndRow();

  size_t rows_written() const { return rows_; }

 private:
  static std::string Escape(const std::string& field);

  std::ostream* out_;
  std::vector<std::string> pending_;
  size_t rows_ = 0;
};

}  // namespace gly
