// MapReduce record model and binary serialization.
//
// Records are (uint64 key, opaque byte-string value) — the same shape
// Hadoop jobs use after serialization. Record files are the on-disk
// interchange between job phases and between chained jobs:
//   [key: u64 LE][len: u32 LE][len bytes]*

#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/result.h"

namespace gly::mapreduce {

/// One key-value record.
struct Record {
  uint64_t key = 0;
  std::string value;

  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// Sequential writer of record files.
class RecordFileWriter {
 public:
  /// Opens `path` for writing (truncates).
  static Result<RecordFileWriter> Open(const std::string& path);

  Status Append(const Record& record);
  Status Append(uint64_t key, const std::string& value);

  /// Flushes and closes. Must be called before the file is read.
  Status Close();

  uint64_t bytes_written() const { return bytes_; }

 private:
  explicit RecordFileWriter(std::ofstream out, std::string path)
      : out_(std::move(out)), path_(std::move(path)) {}
  std::ofstream out_;
  std::string path_;
  uint64_t bytes_ = 0;
};

/// Sequential reader of record files.
class RecordFileReader {
 public:
  static Result<RecordFileReader> Open(const std::string& path);

  /// Reads the next record; returns false at EOF.
  Result<bool> Next(Record* out);

 private:
  explicit RecordFileReader(std::ifstream in, std::string path)
      : in_(std::move(in)), path_(std::move(path)) {}
  std::ifstream in_;
  std::string path_;
};

/// Reads an entire record file into memory (tests, small outputs).
Result<std::vector<Record>> ReadAllRecords(const std::string& path);

/// Writes `records` to `path`.
Status WriteAllRecords(const std::vector<Record>& records,
                       const std::string& path);

}  // namespace gly::mapreduce
