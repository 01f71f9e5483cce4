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

  /// Opens the `length` bytes of `path` that start at `offset`: one run
  /// among several that a writer appended to the same file.
  static Result<RecordFileReader> Open(const std::string& path,
                                       uint64_t offset, uint64_t length);

  /// Reads the next record; returns false at EOF or at the end of the
  /// opened range.
  Result<bool> Next(Record* out);

 private:
  explicit RecordFileReader(std::ifstream in, std::string path,
                            uint64_t remaining)
      : in_(std::move(in)), path_(std::move(path)), remaining_(remaining) {}
  std::ifstream in_;
  std::string path_;
  uint64_t remaining_;  ///< bytes left in the range; UINT64_MAX: to EOF
};

}  // namespace gly::mapreduce
