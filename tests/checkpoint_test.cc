// Tests for the checkpoint serialization module (common/checkpoint.h) and
// the stale-scratch reaping in TempDir: the recovery layer's foundations.
// A checkpoint must either load exactly as written or fail Load() — torn
// writes, bit flips, and truncation are detected, and a crash *during* a
// checkpoint write must leave the previous checkpoint intact.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/checkpoint.h"
#include "common/fault_injection.h"
#include "common/temp_dir.h"

namespace gly {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(CheckpointTest, RoundTripsSections) {
  auto dir = TempDir::Create("gly-ckpt-test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("a.ckpt");

  CheckpointWriter writer;
  CheckpointEncoder meta(writer.AddSection("meta"));
  meta.PutU32(7);
  meta.PutU64(123456789012345ull);
  meta.PutDouble(3.25);
  meta.PutString("hello");
  CheckpointEncoder blob(writer.AddSection("blob"));
  blob.PutBytes("\x00\x01\xff", 3);
  ASSERT_TRUE(writer.WriteTo(path).ok());

  auto reader = CheckpointReader::Load(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Has("meta"));
  EXPECT_TRUE(reader->Has("blob"));
  EXPECT_FALSE(reader->Has("missing"));

  auto meta_section = reader->Section("meta");
  ASSERT_TRUE(meta_section.ok());
  CheckpointDecoder dec(*meta_section);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(dec.GetU32(&u32));
  ASSERT_TRUE(dec.GetU64(&u64));
  ASSERT_TRUE(dec.GetDouble(&d));
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 123456789012345ull);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(dec.Done());

  auto blob_section = reader->Section("blob");
  ASSERT_TRUE(blob_section.ok());
  EXPECT_EQ(*blob_section, std::string_view("\x00\x01\xff", 3));
}

TEST(CheckpointTest, DecoderFailsClosedOnUnderflow) {
  CheckpointWriter writer;
  CheckpointEncoder enc(writer.AddSection("s"));
  enc.PutU32(1);

  auto dir = TempDir::Create("gly-ckpt-test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("b.ckpt");
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto reader = CheckpointReader::Load(path);
  ASSERT_TRUE(reader.ok());
  CheckpointDecoder dec(*reader->Section("s"));
  uint64_t u64 = 0;
  EXPECT_FALSE(dec.GetU64(&u64));  // only 4 bytes present
  std::string s;
  EXPECT_FALSE(dec.GetString(&s));
}

TEST(CheckpointTest, CorruptionIsRejected) {
  auto dir = TempDir::Create("gly-ckpt-test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("c.ckpt");

  CheckpointWriter writer;
  CheckpointEncoder enc(writer.AddSection("payload"));
  for (uint32_t i = 0; i < 100; ++i) enc.PutU32(i);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  std::string good = ReadFile(path);
  ASSERT_TRUE(CheckpointReader::Load(path).ok());

  // Bit flip in the payload: checksum mismatch.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x40;
  WriteFile(path, flipped);
  EXPECT_FALSE(CheckpointReader::Load(path).ok());

  // Truncated tail (torn write that bypassed the atomic rename).
  WriteFile(path, good.substr(0, good.size() - 7));
  EXPECT_FALSE(CheckpointReader::Load(path).ok());

  // Wrong magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFile(path, bad_magic);
  EXPECT_FALSE(CheckpointReader::Load(path).ok());

  // Empty file.
  WriteFile(path, "");
  EXPECT_FALSE(CheckpointReader::Load(path).ok());
}

TEST(CheckpointTest, CrashDuringWriteKeepsPreviousCheckpoint) {
  auto dir = TempDir::Create("gly-ckpt-test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("d.ckpt");

  CheckpointWriter first;
  CheckpointEncoder(first.AddSection("gen")).PutU32(1);
  ASSERT_TRUE(first.WriteTo(path).ok());

  // The second write crashes between staging the .tmp file and the rename:
  // the visible checkpoint must still be generation 1.
  CheckpointWriter second;
  CheckpointEncoder(second.AddSection("gen")).PutU32(2);
  fault::FaultPlan plan(42);
  plan.Add({.site = "checkpoint.write", .kind = fault::FaultKind::kCrash,
            .max_triggers = 1});
  {
    fault::ScopedFaultPlan active(&plan);
    EXPECT_FALSE(second.WriteTo(path).ok());
  }
  ASSERT_EQ(plan.TotalTriggered(), 1u);

  auto reader = CheckpointReader::Load(path);
  ASSERT_TRUE(reader.ok());
  CheckpointDecoder dec(*reader->Section("gen"));
  uint32_t gen = 0;
  ASSERT_TRUE(dec.GetU32(&gen));
  EXPECT_EQ(gen, 1u);

  // After the "crash", the next write attempt succeeds and supersedes it.
  ASSERT_TRUE(second.WriteTo(path).ok());
  reader = CheckpointReader::Load(path);
  ASSERT_TRUE(reader.ok());
  CheckpointDecoder dec2(*reader->Section("gen"));
  ASSERT_TRUE(dec2.GetU32(&gen));
  EXPECT_EQ(gen, 2u);
}

TEST(CheckpointTest, RemoveCheckpointClearsStagedTemp) {
  auto dir = TempDir::Create("gly-ckpt-test");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("e.ckpt");
  CheckpointWriter writer;
  CheckpointEncoder(writer.AddSection("s")).PutU32(1);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  WriteFile(path + ".tmp", "leftover staged bytes");
  RemoveCheckpoint(path);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ------------------------------------------------------- stale scratch dirs

TEST(TempDirReapTest, CleanupStaleRemovesDirsOfDeadProcesses) {
  // A forked child that has already been reaped gives us a pid that is
  // guaranteed dead (and, having just existed, valid in range).
  pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

  const char* env = std::getenv("TMPDIR");
  fs::path base = (env != nullptr && *env != '\0')
                      ? fs::path(env)
                      : fs::temp_directory_path();
  fs::path stale =
      base / ("gly-reap-test.p" + std::to_string(dead) + ".deadbeef");
  fs::create_directories(stale / "nested");
  fs::path live =
      base / ("gly-reap-test.p" + std::to_string(getpid()) + ".cafe");
  fs::create_directories(live);

  EXPECT_GE(TempDir::CleanupStale("gly-reap-test"), 1u);
  EXPECT_FALSE(fs::exists(stale));   // dead owner: reaped (recursively)
  EXPECT_TRUE(fs::exists(live));     // we are alive: untouched
  fs::remove_all(live);

  // Unrelated prefixes are never touched.
  fs::path other =
      base / ("gly-other-prefix.p" + std::to_string(dead) + ".1");
  fs::create_directories(other);
  TempDir::CleanupStale("gly-reap-test");
  EXPECT_TRUE(fs::exists(other));
  fs::remove_all(other);
}

}  // namespace
}  // namespace gly
