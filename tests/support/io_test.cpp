// Atomic artifact writes: temp sibling + fsync + rename.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "support/io.h"

namespace hlsav {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Io, TempSiblingIsPidUniqueAndSameDirectory) {
  std::string t = temp_sibling_path("/some/dir/report.json");
  EXPECT_EQ(t.rfind("/some/dir/report.json.tmp.", 0), 0u) << t;
  EXPECT_NE(t.find(std::to_string(::getpid())), std::string::npos) << t;
  // Unique per call too: two threads of one process never share it.
  EXPECT_NE(t, temp_sibling_path("/some/dir/report.json"));
}

TEST(Io, WriteCreatesFileWithExactContent) {
  std::string path = temp_path("io_create.txt");
  Status s = write_file_atomic(path, "hello\nworld\n");
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(slurp(path), "hello\nworld\n");
  // No temp residue: every temp name is unique per call, so look for
  // any sibling with the temp prefix.
  const std::string prefix = fs::path(path).filename().string() + ".tmp.";
  for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u) << entry.path();
  }
}

TEST(Io, WriteReplacesExistingFileAtomically) {
  std::string path = temp_path("io_replace.txt");
  ASSERT_TRUE(write_file_atomic(path, "old old old").ok());
  ASSERT_TRUE(write_file_atomic(path, "new").ok());
  EXPECT_EQ(slurp(path), "new");
}

TEST(Io, WriteHandlesBinaryContent) {
  std::string path = temp_path("io_binary.bin");
  std::string blob("\x00\x01\xff\x7f with embedded\nnewlines\0too", 31);
  ASSERT_TRUE(write_file_atomic(path, blob).ok());
  EXPECT_EQ(slurp(path), blob);
}

TEST(Io, UnwritableDirectoryYieldsIoErrorNotThrow) {
  Status s = write_file_atomic("/nonexistent_dir_hlsav/x.json", "data");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(s.message().empty());
}

TEST(Io, FailedWriteLeavesTargetUntouched) {
  // The target must survive a failed rewrite attempt towards a bad temp
  // location -- here the failure mode is an unwritable directory, so
  // the original from a *different* directory is untouched by design;
  // what we can check directly: failure does not create the target.
  std::string missing = "/nonexistent_dir_hlsav/never.json";
  (void)write_file_atomic(missing, "data");
  EXPECT_FALSE(fs::exists(missing));
}

}  // namespace
}  // namespace hlsav
