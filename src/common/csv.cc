#include "common/csv.h"

#include "common/string_util.h"

namespace gly {

std::string CsvWriter::Escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out_ << ',';
    *out_ << Escape(fields[i]);
  }
  *out_ << '\n';
  ++rows_;
}

CsvWriter& CsvWriter::Field(const std::string& value) {
  pending_.push_back(value);
  return *this;
}
CsvWriter& CsvWriter::Field(uint64_t value) {
  pending_.push_back(std::to_string(value));
  return *this;
}
CsvWriter& CsvWriter::Field(double value) {
  pending_.push_back(StringPrintf("%.6g", value));
  return *this;
}

void CsvWriter::EndRow() {
  WriteRow(pending_);
  pending_.clear();
}

}  // namespace gly
