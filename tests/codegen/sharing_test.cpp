// Shared process bodies: the emitter writes one C function per distinct
// body text, and every process with that body runs through it with its
// own process index (st[kStPidx]) and its own memory table. These tests
// pin the sharing itself and check, on both engines, the two ways a
// shared body could go wrong: a callback naming the wrong process and a
// load or store reaching another process's BRAM.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/loopback.h"
#include "codegen/codegen_test_util.h"
#include "codegen/emit.h"

namespace hlsav::codegen {
namespace {

using assertions::Options;

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// synthesize(aopt) -> verify -> schedule, plus the compiled module when
/// `compile` is set.
DiffRig rig_for(const ir::Design& lowered, const Options& aopt, bool compile) {
  DiffRig rig;
  rig.design = lowered.clone();
  assertions::synthesize(rig.design, aopt);
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  if (compile) rig.prepare_compiled();
  return rig;
}

TEST(EmitSharing, LoopbackChainEmitsOneFunctionAndOneRowPerStage) {
  constexpr unsigned kStages = 16;
  auto app = apps::loopback::build(kStages, 8);
  for (const Options& opt : {Options::optimized(), Options::unoptimized()}) {
    DiffRig rig = rig_for(app->design, opt, /*compile=*/false);
    EmitResult e = emit_design(rig.design, rig.schedule);
    ASSERT_EQ(e.compiled_count(), kStages);
    EXPECT_EQ(count_of(e.source, "static uint64_t hlsav_p"), 1u);
    EXPECT_EQ(count_of(e.source, "  {\"stage"), kStages);  // registry rows
    for (const ProcEmit& pe : e.procs) EXPECT_EQ(pe.symbol, e.procs[0].symbol) << pe.process;
  }
}

TEST(EmitSharing, BodiesDifferingOnlyInALoopBoundStayApart) {
  auto source = [](unsigned bound_g) {
    std::ostringstream os;
    for (auto [name, bound] : {std::pair<const char*, unsigned>{"f", 4}, {"g", bound_g}}) {
      os << "void " << name << "(stream_in<32> in, stream_out<32> out) {\n"
         << "  for (uint32 i = 0; i < " << bound << "; i++) {\n"
         << "    stream_write(out, stream_read(in) + 1);\n"
         << "  }\n"
         << "}\n";
    }
    return os.str();
  };
  auto same = hlsav::testing::compile(source(4));
  auto differ = hlsav::testing::compile(source(5));
  EmitResult one = emit_design(same->design, sched::schedule_design(same->design));
  EmitResult two = emit_design(differ->design, sched::schedule_design(differ->design));
  ASSERT_EQ(one.compiled_count(), 2u);
  ASSERT_EQ(two.compiled_count(), 2u);
  EXPECT_EQ(count_of(one.source, "static uint64_t hlsav_p"), 1u);
  EXPECT_EQ(one.procs[0].symbol, one.procs[1].symbol);
  EXPECT_EQ(count_of(two.source, "static uint64_t hlsav_p"), 2u);
  EXPECT_NE(two.procs[0].symbol, two.procs[1].symbol);
}

TEST(DifferentialSharing, ChainedLoopbackOf32Stages) {
  HLSAV_REQUIRE_COMPILER();
  constexpr unsigned kStages = 32;
  constexpr unsigned kWords = 24;
  auto app = apps::loopback::build(kStages, kWords);
  const std::string in = apps::loopback::input_stream(kStages);
  const std::string out = apps::loopback::output_stream(kStages);
  std::vector<std::uint64_t> words;
  for (unsigned i = 0; i < kWords; ++i) words.push_back(1 + i * 7919u);
  for (const Options& opt : {Options::optimized(), Options::unoptimized()}) {
    DiffRig rig = rig_for(app->design, opt, /*compile=*/true);
    expect_engines_agree(rig, {{in, words}}, {out});

    // Starved: the chain drains what it got and every stage then waits
    // on its input. Both engines must name the same blocked streams.
    std::map<std::string, std::vector<std::uint64_t>> starved{
        {in, std::vector<std::uint64_t>(words.begin(), words.begin() + kWords / 2)}};
    expect_engines_agree(rig, starved, {out});
    EngineRun a = run_engine(rig, sim::SimEngine::kInterpreter, starved, {out});
    EngineRun b = run_engine(rig, sim::SimEngine::kCompiled, starved, {out});
    ASSERT_EQ(b.result.status, sim::RunStatus::kHung);
    ASSERT_TRUE(a.result.hang.has_value());
    ASSERT_TRUE(b.result.hang.has_value());
    ASSERT_EQ(a.result.hang->waiters.size(), b.result.hang->waiters.size());
    EXPECT_EQ(b.result.hang->waiters.size(), kStages);
    for (std::size_t k = 0; k < a.result.hang->waiters.size(); ++k) {
      EXPECT_EQ(a.result.hang->waiters[k].process, b.result.hang->waiters[k].process);
      EXPECT_EQ(a.result.hang->waiters[k].stream, b.result.hang->waiters[k].stream);
      EXPECT_FALSE(b.result.hang->waiters[k].stream.empty());
    }
  }
}

TEST(DifferentialSharing, ChainedDelayLinesKeepTheirOwnBram) {
  HLSAV_REQUIRE_COMPILER();
  // Every stage adds the word it saw 16 words earlier (zero at first),
  // kept in its own BRAM across stream handshakes. The stages share one
  // function, so a memory table pointing one stage at another's BRAM
  // changes the outputs.
  constexpr unsigned kStages = 32;
  constexpr unsigned kWords = 40;
  std::ostringstream os;
  for (unsigned k = 0; k < kStages; ++k) {
    os << "void stage" << k << "(stream_in<32> a, stream_out<32> b) {\n"
       << "  uint32 hist[16];\n"
       << "  for (uint32 i = 0; i < " << kWords << "; i++) {\n"
       << "    uint32 v;\n"
       << "    v = stream_read(a);\n"
       << "    uint32 old;\n"
       << "    old = hist[i & 15];\n"
       << "    hist[i & 15] = v;\n"
       << "    stream_write(b, v + old);\n"
       << "  }\n"
       << "}\n";
  }
  auto c = hlsav::testing::compile(os.str());
  for (unsigned k = 0; k + 1 < kStages; ++k) {
    ir::StreamId link =
        c->design.find_process("stage" + std::to_string(k))->find_port("b")->stream;
    c->design.connect_consumer(link, "stage" + std::to_string(k + 1), "a");
  }
  DiffRig rig = rig_for(c->design, Options::ndebug(), /*compile=*/true);
  ASSERT_EQ(rig.prep_error, "");
  std::vector<std::uint64_t> words;
  for (unsigned i = 0; i < kWords; ++i) words.push_back(3 + i * 31u);
  const std::string out = "stage" + std::to_string(kStages - 1) + ".b";
  expect_engines_agree(rig, {{"stage0.a", words}}, {out});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, {{"stage0.a", words}}, {out});
  EXPECT_EQ(comp.outputs[out].size(), kWords);
}

TEST(DifferentialSharing, UnchainedStageFailureNamesItsOwnProcess) {
  HLSAV_REQUIRE_COMPILER();
  // Eight independent stages, one body. Only stage5 sees a zero word,
  // so the failure must be stage5's -- a callback reporting the wrong
  // process index would name another stage's assertion.
  constexpr unsigned kStages = 8;
  constexpr unsigned kWords = 6;
  auto app = apps::compile_app("loopback8", "loopback.c",
                               apps::loopback::hlsc_source(kStages, kWords));
  std::map<std::string, std::vector<std::uint64_t>> feeds;
  std::vector<std::string> outs;
  for (unsigned k = 0; k < kStages; ++k) {
    std::vector<std::uint64_t> w{1, 2, 3, 4, 5, 6};
    if (k == 5) w[3] = 0;
    feeds["stage" + std::to_string(k) + ".a"] = w;
    outs.push_back("stage" + std::to_string(k) + ".b");
  }
  for (const Options& opt : {Options::optimized(), Options::unoptimized()}) {
    DiffRig rig = rig_for(app->design, opt, /*compile=*/true);
    expect_engines_agree(rig, feeds, outs);
    EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, outs);
    ASSERT_FALSE(comp.result.failures.empty());
    for (const assertions::Failure& f : comp.result.failures) {
      EXPECT_NE(f.message.find(": stage5: Assertion `w > 0' failed."), std::string::npos)
          << f.message;
    }
  }
}

}  // namespace
}  // namespace hlsav::codegen
