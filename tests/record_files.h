// Whole-file record helpers for the MapReduce tests, written against the
// engine's RecordFileWriter and RecordFileReader.

#pragma once

#include <string>
#include <vector>

#include "common/macros.h"
#include "mapreduce/record.h"

namespace gly::mapreduce {

/// Writes `records` to a new record file at `path`.
inline Status WriteRecords(const std::vector<Record>& records,
                           const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileWriter writer, RecordFileWriter::Open(path));
  for (const Record& r : records) GLY_RETURN_NOT_OK(writer.Append(r));
  return writer.Close();
}

/// Reads every record of the file at `path`.
inline Result<std::vector<Record>> ReadRecords(const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileReader reader, RecordFileReader::Open(path));
  std::vector<Record> records;
  Record r;
  for (;;) {
    GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&r));
    if (!more) return records;
    records.push_back(r);
  }
}

}  // namespace gly::mapreduce
