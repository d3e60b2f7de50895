// Compiled-vs-interpreter differential suite.
//
// The compiled engine's whole contract is "bit-identical, just
// faster": same RunResult, same cycle counts, same decoded failure
// list, same CPU-received words, same hang diagnosis. These tests
// enforce that over the paper's workloads (loopback, Triple-DES,
// edge detection), over every assertion configuration, over pipelined
// and stalling control flow, over aborts/hangs/cycle limits, over a
// randomized program family, and over fault-campaign coverage tables.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "apps/bmp.h"
#include "apps/des.h"
#include "apps/edge.h"
#include "codegen/codegen_test_util.h"
#include "sim/campaign.h"
#include "support/str.h"

namespace hlsav::codegen {
namespace {

using assertions::Options;
using hlsav::testing::compile;

const char* kLoopbackSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    for (uint32 i = 0; i < 4; i++) {
      uint32 v;
      v = stream_read(in);
      assert(v < 1000);
      stream_write(out, v + 1);
    }
  }
)";

TEST(Differential, LoopbackAcrossAssertionConfigs) {
  HLSAV_REQUIRE_COMPILER();
  std::vector<Options> configs;
  configs.push_back(Options::ndebug());
  configs.push_back(Options::unoptimized());
  configs.push_back(Options::optimized());
  Options par = Options::unoptimized();
  par.parallelize = true;
  configs.push_back(par);
  for (const Options& o : configs) {
    DiffRig rig = make_rig(kLoopbackSrc, o);
    expect_engines_agree(rig, {{"f.in", {10, 20, 30, 40}}}, {"f.out"});
  }
}

TEST(Differential, FailingAssertionSameFailureSameCycle) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kLoopbackSrc, Options::unoptimized());
  // Third word trips the assert; both engines must abort on the same
  // cycle with the same rendered ANSI-C message.
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 3000, 40}}};
  expect_engines_agree(rig, feeds, {"f.out"});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"});
  EXPECT_EQ(comp.result.status, sim::RunStatus::kAborted);
  ASSERT_EQ(comp.result.failures.size(), 1u);
}

TEST(Differential, NabortCollectsIdenticalFailureList) {
  HLSAV_REQUIRE_COMPILER();
  Options o = Options::unoptimized();
  o.nabort = true;
  DiffRig rig = make_rig(kLoopbackSrc, o);
  // Two of four words fail; NABORT keeps going, so both engines must
  // collect the same two failures in the same order.
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {5000, 20, 3000, 40}}};
  expect_engines_agree(rig, feeds, {"f.out"});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"});
  EXPECT_EQ(comp.result.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(comp.result.failures.size(), 2u);
}

TEST(Differential, ArithmeticTorture) {
  HLSAV_REQUIRE_COMPILER();
  // Division, remainder, shifts, comparisons and narrow signed types:
  // every generated C helper (hlsav_sdiv/srem/shl/lshr/ashr/sx) against
  // the interpreter's BitVector semantics.
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 6; i++) {
        uint32 v;
        v = stream_read(in);
        uint32 q;
        q = v / 7;
        uint32 r;
        r = v % 7;
        int32 s;
        s = 100 - v;
        int32 sq;
        sq = s / 3;
        int32 sr;
        sr = s % 3;
        uint32 sh;
        sh = (v << 3) ^ (v >> 2);
        uint32 cmp;
        cmp = 0;
        if (s < sq) { cmp = cmp + 1; }
        if (v >= q) { cmp = cmp + 2; }
        int16 narrow;
        narrow = s * 3;
        stream_write(out, q + r + sh + cmp + (sq ^ sr) + narrow);
      }
    }
  )",
                         Options::ndebug());
  expect_engines_agree(rig, {{"f.in", {0, 1, 7, 99, 250, 4294967295ull & 0xffffffffull}}},
                       {"f.out"});
}

TEST(Differential, MemoryTraffic) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[16];
      for (uint32 i = 0; i < 16; i++) {
        buf[i] = stream_read(in) * 3;
      }
      uint32 acc;
      acc = 0;
      for (uint32 j = 0; j < 16; j++) {
        acc = acc + buf[15 - j];
        assert(acc >= buf[15 - j]);
      }
      stream_write(out, acc);
    }
  )",
                         Options::optimized());
  std::vector<std::uint64_t> input;
  for (std::uint64_t i = 0; i < 16; ++i) input.push_back(i * 17 + 1);
  expect_engines_agree(rig, {{"f.in", input}}, {"f.out"});
}

TEST(Differential, PipelinedLoopCycleParity) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 25; i++) {
        acc = acc + x + i;
      }
      stream_write(out, acc);
    }
  )",
                         Options::unoptimized());
  expect_engines_agree(rig, {{"f.in", {3}}}, {"f.out"});
}

/// Rewires producer.link -> consumer.link so the consumer's pipelined
/// stream reads genuinely stall mid-iteration on the producer's pace.
DiffRig make_linked_rig(const std::string& src, const Options& aopt) {
  auto c = compile(src);
  DiffRig rig;
  rig.design = c->design.clone();
  ir::StreamId link = rig.design.find_process("producer")->find_port("link")->stream;
  rig.design.connect_consumer(link, "consumer", "link");
  assertions::synthesize(rig.design, aopt);
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.prepare_compiled();
  return rig;
}

TEST(Differential, PipelinedConsumerStallsOnProducer) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_linked_rig(R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      uint32 seed;
      seed = stream_read(in);
      for (uint32 i = 0; i < 12; i++) {
        stream_write(link, seed + i * i);
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 12; i++) {
        acc = acc + stream_read(link);
      }
      stream_write(out, acc);
    }
  )",
                                Options::unoptimized());
  expect_engines_agree(rig, {{"producer.in", {7}}}, {"consumer.out"});
}

TEST(Differential, TimingAssertionParity) {
  HLSAV_REQUIRE_COMPILER();
  const char* src = R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 n;
      n = stream_read(in);
      assert_cycles(2);
      uint32 acc;
      acc = 0;
      for (uint32 i = 0; i < n; i++) {
        acc = acc + i;
      }
      assert_cycles(40);
      stream_write(out, acc);
    }
  )";
  DiffRig rig = make_rig(src, Options::unoptimized());
  // Small n: both timing windows hold. Large n: the 40-cycle budget
  // blows, and both engines must report it at the same local time.
  expect_engines_agree(rig, {{"f.in", {3}}}, {"f.out"});
  expect_engines_agree(rig, {{"f.in", {60}}}, {"f.out"});
}

TEST(Differential, StarvationHangParity) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kLoopbackSrc, Options::ndebug());
  // Two words fed, four reads: the run starves. The structured hang
  // diagnosis (process, stream, cycle, waits-on) must match too --
  // expect_engines_agree compares the rendered report.
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20}}};
  expect_engines_agree(rig, feeds, {"f.out"});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"});
  EXPECT_EQ(comp.result.status, sim::RunStatus::kHung);
  EXPECT_FALSE(comp.result.hang_report.empty());
}

TEST(Differential, CycleLimitParity) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      for (uint32 i = 0; i < 100000; i++) {
        acc = acc + x;
      }
      stream_write(out, acc);
    }
  )",
                        Options::ndebug());
  sim::SimOptions base;
  base.max_cycles = 500;  // livelock backstop fires mid-loop
  expect_engines_agree(rig, {{"f.in", {1}}}, {"f.out"}, base);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, {{"f.in", {1}}}, {"f.out"}, base);
  EXPECT_EQ(comp.result.status, sim::RunStatus::kHung);
}

TEST(Differential, PipelinedCycleLimitParity) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 100000; i++) {
        acc = acc + x;
      }
      stream_write(out, acc);
    }
  )",
                        Options::ndebug());
  sim::SimOptions base;
  base.max_cycles = 300;
  expect_engines_agree(rig, {{"f.in", {1}}}, {"f.out"}, base);
}

/// Same family as the integration equivalence suite: arithmetic, array
/// traffic, data-dependent control flow and always-true assertions.
std::string generated_program(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::ostringstream os;
  os << "void f(stream_in<32> in, stream_out<32> out) {\n"
     << "  uint32 buf[16];\n"
     << "  uint32 acc;\n"
     << "  acc = 0;\n"
     << "  for (uint32 i = 0; i < 8; i++) {\n"
     << "    uint32 v;\n"
     << "    v = stream_read(in);\n"
     << "    assert(v > 0);\n";
  const char* ops[] = {"+", "^", "|"};
  for (int s = 0; s < 3; ++s) {
    os << "    acc = acc " << ops[rng.next_below(3)] << " (v "
       << (rng.next_below(2) == 0 ? "+" : "^") << " " << 1 + rng.next_below(9) << ");\n";
  }
  os << "    buf[i & 15] = acc;\n";
  if (rng.next_below(2) == 0) {
    os << "    if (acc > " << 100 + rng.next_below(400) << ") {\n"
       << "      acc = acc - " << 1 + rng.next_below(50) << ";\n"
       << "    }\n";
  }
  os << "    assert(buf[i & 15] == acc || acc != buf[i & 15] - 0);\n"
     << "    stream_write(out, acc + buf[i & 15]);\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

class DifferentialProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialProperty, GeneratedProgramsAgree) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(generated_program(GetParam()), Options::optimized());
  SplitMix64 rng(GetParam() * 7 + 1);
  std::vector<std::uint64_t> input;
  for (int i = 0; i < 8; ++i) input.push_back(1 + rng.next_below(50));
  expect_engines_agree(rig, {{"f.in", input}}, {"f.out"});
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------- paper workloads --

TEST(Differential, TripleDesDecryptor) {
  HLSAV_REQUIRE_COMPILER();
  std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                       0x456789ABCDEF0123ull};
  auto app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(keys));
  DiffRig rig;
  rig.design = app->design.clone();
  assertions::synthesize(rig.design, Options::optimized());
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.prepare_compiled();

  std::vector<std::uint64_t> blocks = apps::des::pack_text("Differential ABV");
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : blocks) cipher.push_back(apps::des::triple_des_encrypt(b, keys));
  std::map<std::string, std::vector<std::uint64_t>> feeds{
      {"des3.in", apps::des::to_word_stream(cipher)}};
  expect_engines_agree(rig, feeds, {"des3.txt"});

  // And the decrypted text is actually right (not just "both wrong").
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"des3.txt"});
  std::string out;
  for (std::uint64_t c : comp.outputs["des3.txt"]) out.push_back(static_cast<char>(c));
  EXPECT_EQ(out, "Differential ABV");
}

TEST(Differential, EdgeDetector) {
  HLSAV_REQUIRE_COMPILER();
  auto app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(16, 12));
  DiffRig rig;
  rig.design = app->design.clone();
  assertions::synthesize(rig.design, Options::optimized());
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.prepare_compiled();

  apps::img::Image input = apps::img::synthetic_image(16, 12, 11);
  std::map<std::string, std::vector<std::uint64_t>> feeds{
      {"edge.in", apps::edge::to_word_stream(input)}};
  expect_engines_agree(rig, feeds, {"edge.out"});

  // Wrong-size image: the paper's Table 2 abort scenario, under both
  // engines, with identical failure text.
  apps::img::Image wrong = apps::img::synthetic_image(24, 12, 11);
  std::map<std::string, std::vector<std::uint64_t>> bad{
      {"edge.in", apps::edge::to_word_stream(wrong)}};
  expect_engines_agree(rig, bad, {"edge.out"});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, bad, {"edge.out"});
  EXPECT_EQ(comp.result.status, sim::RunStatus::kAborted);
}

// ------------------------------------------- campaign coverage parity --

TEST(Differential, CampaignCoverageTablesIdentical) {
  HLSAV_REQUIRE_COMPILER();
  // A campaign with the compiled engine attached runs its golden pass
  // and most faulted sites compiled (narrow-compare and BRAM sites
  // decline per run). The classification table, coverage attribution
  // and cycle columns must match a fully interpreted campaign byte for
  // byte.
  DiffRig rig = make_rig(kLoopbackSrc, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};

  sim::CampaignOptions interp_opt;
  interp_opt.max_faults = 10;
  interp_opt.threads = 1;
  sim::CampaignReport interp =
      sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, interp_opt);

  sim::CampaignOptions comp_opt = interp_opt;
  comp_opt.sim.engine = sim::SimEngine::kAuto;
  comp_opt.sim.compiled = rig.compiled->handle();
  sim::CampaignReport comp =
      sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, comp_opt);

  EXPECT_EQ(interp.golden_cycles, comp.golden_cycles);
  ASSERT_EQ(interp.results.size(), comp.results.size());
  for (std::size_t i = 0; i < interp.results.size(); ++i) {
    EXPECT_EQ(interp.results[i].outcome, comp.results[i].outcome) << "site " << i;
    EXPECT_EQ(interp.results[i].cycles, comp.results[i].cycles) << "site " << i;
    EXPECT_EQ(interp.results[i].detected_by, comp.results[i].detected_by) << "site " << i;
  }
  EXPECT_EQ(interp.render(rig.design), comp.render(rig.design));
}

}  // namespace
}  // namespace hlsav::codegen
