// Shared rig for the compiled-engine test suite: build one design +
// schedule + compiled module, run it under both engines, and assert
// every externally observable artifact -- RunResult status, cycle
// count, decoded failures, hang report, CPU-received words -- is
// bit-identical. This is the differential contract SimOptions::engine
// documents; every workload test routes through expect_engines_agree.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "codegen/engine.h"
#include "common/test_util.h"
#include "sim/simulator.h"

// Every compiled-engine test starts with this: without a host C
// compiler there is nothing to differentiate, so skip (the fallback
// paths that must work *without* a compiler don't use it).
#define HLSAV_REQUIRE_COMPILER()                                         \
  do {                                                                   \
    if (hlsav::codegen::find_compiler().empty()) {                       \
      GTEST_SKIP() << "no host C compiler on PATH (and HLSAV_CC unset)"; \
    }                                                                    \
  } while (0)

namespace hlsav::codegen {

/// Per-test-process cache directory so the suite neither reuses nor
/// pollutes the developer's real module cache. Removed at process exit.
inline const std::string& test_cache_dir() {
  struct Dir {
    std::string path;
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir{::testing::TempDir() + "hlsav-codegen-test-" + std::to_string(::getpid())};
  return dir.path;
}

/// A design prepared for both engines. `compiled` is null when prepare
/// failed; tests that expect compilation assert `prep_error` is empty.
struct DiffRig {
  ir::Design design;
  sched::DesignSchedule schedule;
  sim::ExternRegistry externs;
  std::unique_ptr<CompiledDesign> compiled;
  std::string prep_error;

  void prepare_compiled() {
    PrepareOptions popt;
    popt.cache_dir = test_cache_dir();
    StatusOr<std::unique_ptr<CompiledDesign>> prep = prepare(design, schedule, popt);
    if (prep.ok()) {
      compiled = std::move(*prep);
    } else {
      prep_error = prep.status().message();
    }
  }
};

/// synthesize(aopt) -> verify -> schedule -> AOT-compile a lowered design.
[[nodiscard]] inline DiffRig rig_from(const ir::Design& lowered,
                                      const assertions::Options& aopt) {
  DiffRig rig;
  rig.design = lowered.clone();
  assertions::synthesize(rig.design, aopt);
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.prepare_compiled();
  return rig;
}

/// compile -> synthesize(aopt) -> verify -> schedule -> AOT-compile.
[[nodiscard]] inline DiffRig make_rig(const std::string& src, const assertions::Options& aopt) {
  return rig_from(hlsav::testing::compile(src)->design, aopt);
}

/// Everything one engine run can observe from the outside.
struct EngineRun {
  sim::RunResult result;
  std::map<std::string, std::vector<std::uint64_t>> outputs;
  bool engine_active = false;
  std::string engine_note;
  std::string rendered_trace;
};

[[nodiscard]] inline EngineRun run_engine(
    const DiffRig& rig, sim::SimEngine engine,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const std::vector<std::string>& outputs, sim::SimOptions base = {}) {
  base.engine = engine;
  if (engine != sim::SimEngine::kInterpreter && rig.compiled != nullptr) {
    base.compiled = rig.compiled->handle();
  }
  sim::Simulator s(rig.design, rig.schedule, rig.externs, base);
  for (const auto& [name, words] : feeds) s.feed(name, words);
  EngineRun er;
  er.result = s.run();
  er.engine_active = s.engine_active();
  er.engine_note = s.engine_note();
  if (base.trace) er.rendered_trace = s.render_trace();
  for (const std::string& name : outputs) er.outputs[name] = s.received(name);
  return er;
}

/// The differential contract, field by field.
inline void expect_identical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.result.status, b.result.status);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.hang_report, b.result.hang_report);
  ASSERT_EQ(a.result.failures.size(), b.result.failures.size());
  for (std::size_t i = 0; i < a.result.failures.size(); ++i) {
    EXPECT_EQ(a.result.failures[i].assertion_id, b.result.failures[i].assertion_id)
        << "failure " << i;
    EXPECT_EQ(a.result.failures[i].message, b.result.failures[i].message) << "failure " << i;
    EXPECT_EQ(a.result.failures[i].cycle, b.result.failures[i].cycle) << "failure " << i;
  }
  EXPECT_EQ(a.outputs, b.outputs);
}

/// Runs the rig under both engines and checks the full contract. The
/// compiled run must have actually engaged the compiled engine (a
/// silent fallback would make the comparison vacuous).
inline void expect_engines_agree(const DiffRig& rig,
                                 const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                                 const std::vector<std::string>& outputs,
                                 sim::SimOptions base = {}) {
  ASSERT_EQ(rig.prep_error, "");
  EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, outputs, base);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, outputs, base);
  EXPECT_TRUE(comp.engine_active) << "compiled engine fell back: " << comp.engine_note;
  expect_identical(interp, comp);
}

}  // namespace hlsav::codegen
