#include "mapreduce/record.h"

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
  return RecordFileReader(std::move(in), path);
}

Result<bool> RecordFileReader::Next(Record* out) {
  uint64_t key;
  in_.read(reinterpret_cast<char*>(&key), sizeof(key));
  if (in_.eof() && in_.gcount() == 0) return false;
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
  return true;
}

Result<std::vector<Record>> ReadAllRecords(const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileReader reader, RecordFileReader::Open(path));
  std::vector<Record> records;
  Record r;
  for (;;) {
    GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&r));
    if (!more) break;
    records.push_back(r);
  }
  return records;
}

Status WriteAllRecords(const std::vector<Record>& records,
                       const std::string& path) {
  GLY_ASSIGN_OR_RETURN(RecordFileWriter writer, RecordFileWriter::Open(path));
  for (const Record& r : records) {
    GLY_RETURN_NOT_OK(writer.Append(r));
  }
  return writer.Close();
}

}  // namespace gly::mapreduce
