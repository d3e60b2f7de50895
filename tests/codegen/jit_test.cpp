// Module-cache concurrency: threads of one process building the same
// source into one cache directory must all succeed and leave exactly one
// published module behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codegen/codegen_test_util.h"
#include "codegen/emit.h"
#include "codegen/jit.h"

namespace hlsav::codegen {
namespace {

TEST(Jit, ConcurrentSameSourceBuildsAllSucceed) {
  HLSAV_REQUIRE_COMPILER();
  auto c = hlsav::testing::compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(out, stream_read(in) + 1);
      }
    }
  )");
  const std::string source = emit_design(c->design, sched::schedule_design(c->design)).source;
  CompileOptions opt;
  opt.cache_dir = test_cache_dir() + "/race-" + std::to_string(::getpid());
  std::filesystem::remove_all(opt.cache_dir);

  constexpr int kThreads = 8;
  std::vector<std::string> keys(kThreads);
  std::vector<std::string> errors(kThreads);
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        StatusOr<LoadedModule> m = compile_module(source, opt);
        if (m.ok()) {
          keys[t] = m->key;
        } else {
          errors[t] = m.status().to_string();
        }
      });
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
    EXPECT_EQ(keys[t], keys[0]) << "thread " << t;
  }
  int published = 0;
  for (const auto& entry : std::filesystem::directory_iterator(opt.cache_dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << "temp file left behind: " << name;
    if (entry.path().extension() == ".so") ++published;
  }
  EXPECT_EQ(published, 1);
}

}  // namespace
}  // namespace hlsav::codegen
