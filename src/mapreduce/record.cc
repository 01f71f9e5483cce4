#include "mapreduce/record.h"

#include <limits>

#include "common/macros.h"

namespace gly::mapreduce {

Result<RecordFileWriter> RecordFileWriter::Open(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  return RecordFileWriter(std::move(out), path);
}

Status RecordFileWriter::Append(const Record& record) {
  return Append(record.key, record.value);
}

Status RecordFileWriter::Append(uint64_t key, const std::string& value) {
  uint32_t len = static_cast<uint32_t>(value.size());
  out_.write(reinterpret_cast<const char*>(&key), sizeof(key));
  out_.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out_.write(value.data(), len);
  if (!out_) return Status::IOError("write failed: " + path_);
  bytes_ += sizeof(key) + sizeof(len) + len;
  return Status::OK();
}

Status RecordFileWriter::Close() {
  out_.flush();
  out_.close();
  if (out_.fail()) return Status::IOError("close failed: " + path_);
  return Status::OK();
}

Result<RecordFileReader> RecordFileReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  return RecordFileReader(std::move(in), path,
                          std::numeric_limits<uint64_t>::max());
}

Result<RecordFileReader> RecordFileReader::Open(const std::string& path,
                                                uint64_t offset,
                                                uint64_t length) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  in.seekg(static_cast<std::streamoff>(offset));
  if (!in) return Status::IOError("cannot seek in " + path);
  return RecordFileReader(std::move(in), path, length);
}

Result<bool> RecordFileReader::Next(Record* out) {
  if (remaining_ == 0) return false;
  uint64_t key;
  in_.read(reinterpret_cast<char*>(&key), sizeof(key));
  if (in_.eof() && in_.gcount() == 0) {
    if (remaining_ == std::numeric_limits<uint64_t>::max()) return false;
    return Status::IOError("truncated run in " + path_);
  }
  if (!in_ || in_.gcount() != sizeof(key)) {
    return Status::IOError("truncated record key in " + path_);
  }
  uint32_t len;
  in_.read(reinterpret_cast<char*>(&len), sizeof(len));
  if (!in_ || in_.gcount() != sizeof(len)) {
    return Status::IOError("truncated record length in " + path_);
  }
  out->key = key;
  out->value.resize(len);
  if (len > 0) {
    in_.read(out->value.data(), len);
    if (!in_ || in_.gcount() != static_cast<std::streamsize>(len)) {
      return Status::IOError("truncated record value in " + path_);
    }
  }
  if (remaining_ != std::numeric_limits<uint64_t>::max()) {
    const uint64_t size = sizeof(key) + sizeof(len) + len;
    if (size > remaining_) {
      return Status::IOError("record crosses the end of a run in " + path_);
    }
    remaining_ -= size;
  }
  return true;
}

}  // namespace gly::mapreduce
