// Fault injection on the compiled engine.
//
// Stream and extern faults apply in the callbacks compiled code makes,
// channel faults on the shared CPU drain, and skip-block / stuck-branch
// faults from the block-entry poll -- the generated C never changes. A
// faulted run must therefore give exactly the interpreter's result:
// same status, cycles, failures, hang report and received words. These
// tests check that for every enumerated site of the campaign designs
// plus edge detection, and for the block-entry corner cases by hand.
// Narrow-compare and BRAM faults hit what compiled code executes
// natively; they decline to the interpreter (fallback_test.cpp).
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "apps/bmp.h"
#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "codegen/codegen_test_util.h"
#include "sim/campaign.h"
#include "sim/fault.h"

namespace hlsav::codegen {
namespace {

using assertions::Options;
using Feeds = std::map<std::string, std::vector<std::uint64_t>>;

bool in_pipelined_loop(const ir::Design& d, const sim::FaultSpec& f) {
  const ir::Process* p = d.find_process(f.process);
  if (p == nullptr) return false;
  for (const ir::LoopInfo& l : p->loops) {
    if (l.pipelined && (l.header == f.block || l.body == f.block)) return true;
  }
  return false;
}

/// The sites the compiled engine hands back to the interpreter.
bool declined(const ir::Design& d, const sim::FaultSpec& f) {
  switch (f.kind) {
    case sim::FaultKind::kNarrowCompare:
    case sim::FaultKind::kBramBitFlip:
    case sim::FaultKind::kBramStuckAt:
      return true;
    case sim::FaultKind::kFsmSkipBlock:
    case sim::FaultKind::kFsmStuckBranch:
      return in_pipelined_loop(d, f);
    default:
      return false;
  }
}

/// Runs `base` with `fault` armed on both engines and checks they agree.
/// Returns whether the compiled run engaged the compiled engine.
bool expect_fault_agrees(const DiffRig& rig, const sim::FaultSpec& fault, const Feeds& feeds,
                         const std::vector<std::string>& outputs, sim::SimOptions base = {}) {
  base.faults.add(fault);
  EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, outputs, base);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, outputs, base);
  expect_identical(interp, comp);
  return comp.engine_active;
}

/// Every enumerated site, under the campaign's livelock backstop: the
/// engines agree, and the compiled engine runs every kind it does not
/// decline.
void expect_every_site_agrees(const DiffRig& rig, const Feeds& feeds,
                              const std::vector<std::string>& outputs) {
  ASSERT_EQ(rig.prep_error, "");
  EngineRun golden = run_engine(rig, sim::SimEngine::kInterpreter, feeds, outputs);
  ASSERT_EQ(golden.result.status, sim::RunStatus::kCompleted);
  sim::SimOptions base;
  base.max_cycles = sim::resolve_max_cycles(0, golden.result.cycles);
  std::size_t ran_compiled = 0;
  for (const sim::FaultSpec& site : sim::enumerate_fault_sites(rig.design, rig.schedule)) {
    SCOPED_TRACE("site s" + std::to_string(site.id) + ": " + site.describe(rig.design));
    bool active = expect_fault_agrees(rig, site, feeds, outputs, base);
    EXPECT_EQ(active, !declined(rig.design, site));
    if (active) ++ran_compiled;
  }
  EXPECT_GT(ran_compiled, 0u);
}

// ----------------------------------------------- every enumerated site --

TEST(CompiledFaults, EverySiteOfTheInnerLoopDesign) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 8; i++) {
        uint32 v = stream_read(in);
        uint32 acc = 0;
        for (uint32 j = 0; j < 40; j++) {
          acc = acc + v;
        }
        assert(acc >= v);
        stream_write(out, acc);
      }
    }
  )",
                         Options::optimized());
  expect_every_site_agrees(rig, {{"f.in", {3, 1, 4, 1, 5, 9, 2, 6}}}, {"f.out"});
}

TEST(CompiledFaults, EverySiteOfTripleDes) {
  HLSAV_REQUIRE_COMPILER();
  std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                       0x456789ABCDEF0123ull};
  auto app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(keys));
  DiffRig rig = rig_from(app->design, Options::optimized());
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : apps::des::pack_text("in-circ.")) {
    cipher.push_back(apps::des::triple_des_encrypt(b, keys));
  }
  expect_every_site_agrees(rig, {{"des3.in", apps::des::to_word_stream(cipher)}}, {"des3.txt"});
}

TEST(CompiledFaults, EverySiteOfUnchainedLoopbackN8Unoptimized) {
  HLSAV_REQUIRE_COMPILER();
  constexpr unsigned kWords = 12;
  auto app = apps::compile_app("loopback_n8_unopt", "loopback.c",
                               apps::loopback::hlsc_source(8, kWords));
  DiffRig rig = rig_from(app->design, Options::unoptimized());
  Feeds feeds;
  std::vector<std::string> outputs;
  for (unsigned k = 0; k < 8; ++k) {
    std::vector<std::uint64_t> words;
    for (unsigned w = 0; w < kWords; ++w) words.push_back(1 + 97 * k + 13 * w);
    feeds["stage" + std::to_string(k) + ".a"] = words;
    outputs.push_back("stage" + std::to_string(k) + ".b");
  }
  expect_every_site_agrees(rig, feeds, outputs);
}

TEST(CompiledFaults, EverySiteOfTheEdgeDetector) {
  HLSAV_REQUIRE_COMPILER();
  auto app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(16, 12));
  DiffRig rig = rig_from(app->design, Options::optimized());
  apps::img::Image input = apps::img::synthetic_image(16, 12, 11);
  expect_every_site_agrees(rig, {{"edge.in", apps::edge::to_word_stream(input)}}, {"edge.out"});
}

TEST(CompiledFaults, EverySiteOfAnExternCallingDesign) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    extern uint32 accel(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 4; i++) {
        uint32 r = accel(stream_read(in));
        assert(r < 1000);
        stream_write(out, r);
      }
    }
  )",
                         Options::optimized());
  auto twice = [](const std::vector<BitVector>& a) {
    return BitVector::from_u64(32, a[0].to_u64() * 2);
  };
  rig.externs.add("accel", twice, twice);
  expect_every_site_agrees(rig, {{"f.in", {10, 20, 30, 40}}}, {"f.out"});
}

// ------------------------------------------------ block-entry corners --

/// All skip-block and stuck-branch sites of `rig`.
std::vector<sim::FaultSpec> control_sites(const DiffRig& rig) {
  std::vector<sim::FaultSpec> out;
  for (const sim::FaultSpec& f : sim::enumerate_fault_sites(rig.design, rig.schedule)) {
    if (f.kind == sim::FaultKind::kFsmSkipBlock || f.kind == sim::FaultKind::kFsmStuckBranch) {
      out.push_back(f);
    }
  }
  return out;
}

const char* kAccumulateSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 acc = 0;
    for (uint32 i = 0; i < 4; i++) {
      uint32 v = stream_read(in);
      acc = acc + v * i;
    }
    assert(acc < 100000);
    stream_write(out, acc);
  }
)";

TEST(CompiledFaults, StuckBranchBlockBlockedAtItsFirstOpResumesInPlace) {
  HLSAV_REQUIRE_COMPILER();
  // The consumer steps first and blocks at op 0 of its loop body, a
  // block ending in a branch, before the producer has written anything.
  // The resume re-enters that block at op 0 -- which is not a block
  // entry, so the stuck branch must not redirect it.
  auto c = hlsav::testing::compile(R"(
    void consumer(stream_in<32> link, stream_out<32> out) {
      uint32 acc = 0;
      for (uint32 i = 0; i < 6; i++) {
        uint32 v = stream_read(link);
        if (v > 20) {
          acc = acc + v;
        } else {
          acc = acc + 1;
        }
        stream_write(out, acc);
      }
    }
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 6; i++) {
        stream_write(link, stream_read(in) * 3);
      }
    }
  )");
  ir::StreamId link = c->design.find_process("producer")->find_port("link")->stream;
  c->design.connect_consumer(link, "consumer", "link");
  DiffRig rig = rig_from(c->design, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");

  const ir::Process& consumer = *rig.design.find_process("consumer");
  ir::BlockId faulted = ir::kNoBlock;
  for (const ir::BasicBlock& b : consumer.blocks) {
    if (!b.ops.empty() && b.ops.front().kind == ir::OpKind::kStreamRead &&
        b.term.kind == ir::TermKind::kBranch) {
      faulted = b.id;
    }
  }
  ASSERT_NE(faulted, ir::kNoBlock) << "no branch block starting with a stream read";

  Feeds feeds{{"producer.in", {2, 9, 4, 11, 1, 30}}};
  for (bool taken : {true, false}) {
    SCOPED_TRACE(taken ? "stuck taken" : "stuck not-taken");
    sim::SimOptions base;
    base.max_cycles = 5000;
    EXPECT_TRUE(expect_fault_agrees(rig, sim::FaultSpec::fsm_stuck_branch("consumer", faulted, taken),
                                    feeds, {"consumer.out"}, base));
  }
}

TEST(CompiledFaults, CycleLimitAtTheFaultedBlockEntry) {
  HLSAV_REQUIRE_COMPILER();
  // Sweep the limit across the whole run, so for every control site it
  // lands exactly at (and next to) the faulted block's entry.
  DiffRig rig = make_rig(kAccumulateSrc, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");
  Feeds feeds{{"f.in", {5, 6, 7, 8}}};
  EngineRun golden = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"});
  std::vector<sim::FaultSpec> sites = control_sites(rig);
  ASSERT_FALSE(sites.empty());
  for (const sim::FaultSpec& site : sites) {
    for (std::uint64_t limit = 0; limit <= golden.result.cycles + 2; ++limit) {
      SCOPED_TRACE(site.describe(rig.design) + ", max_cycles " + std::to_string(limit));
      sim::SimOptions base;
      base.max_cycles = limit;
      EXPECT_TRUE(expect_fault_agrees(rig, site, feeds, {"f.out"}, base));
    }
  }
}

TEST(CompiledFaults, StuckBranchWhoseSuccessorIsAPipelinedLoopHeader) {
  HLSAV_REQUIRE_COMPILER();
  auto c = hlsav::testing::compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x = stream_read(in);
      uint32 acc = 0;
      uint32 i = 0;
      if (x > 5) {
        acc = x;
      }
      #pragma HLS pipeline
      while (i < 10) {
        acc = acc + x + i;
        i = i + 1;
      }
      stream_write(out, acc);
    }
  )");
  // Lowering puts an empty merge block before the loop header; point
  // the entry branch and the then-arm straight at the header, so one
  // successor of the faulted branch is the pipelined header itself.
  ir::Process& p = *c->design.find_process("f");
  ASSERT_EQ(p.loops.size(), 1u);
  ASSERT_TRUE(p.loops[0].pipelined);
  const ir::BlockId header = p.loops[0].header;
  ir::BasicBlock& entry = p.block(p.entry);
  ASSERT_EQ(entry.term.kind, ir::TermKind::kBranch);
  entry.term.on_false = header;
  p.block(entry.term.on_true).term.on_true = header;
  DiffRig rig = rig_from(c->design, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");

  // x = 3 naturally enters the header, x = 9 the then-arm: each stuck
  // direction is tried both ways round.
  for (std::uint64_t x : {3, 9}) {
    for (bool taken : {true, false}) {
      SCOPED_TRACE("x = " + std::to_string(x) + (taken ? ", stuck taken" : ", stuck not-taken"));
      EXPECT_TRUE(expect_fault_agrees(rig, sim::FaultSpec::fsm_stuck_branch("f", p.entry, taken),
                                      {{"f.in", {x}}}, {"f.out"}));
    }
  }
  // A stuck branch on the pipelined header itself declines.
  sim::SimOptions base;
  base.max_cycles = 2000;
  EXPECT_FALSE(expect_fault_agrees(rig, sim::FaultSpec::fsm_stuck_branch("f", header, false),
                                   {{"f.in", {3}}}, {"f.out"}, base));
}

TEST(CompiledFaults, StuckBranchBetweenTwoPipelinedLoopHeaders) {
  HLSAV_REQUIRE_COMPILER();
  auto c = hlsav::testing::compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x = stream_read(in);
      uint32 acc = 0;
      uint32 i = 0;
      if (x > 5) {
        #pragma HLS pipeline
        while (i < 10) {
          acc = acc + x + i;
          i = i + 1;
        }
      } else {
        #pragma HLS pipeline
        while (i < 7) {
          acc = acc + x * i;
          i = i + 1;
        }
      }
      stream_write(out, acc);
    }
  )");
  // Both arms start with a pipelined loop; point the entry branch
  // straight at the two headers, so the entered block and the forced
  // one are both pipelined headers.
  ir::Process& p = *c->design.find_process("f");
  ASSERT_EQ(p.loops.size(), 2u);
  ir::BasicBlock& entry = p.block(p.entry);
  ASSERT_EQ(entry.term.kind, ir::TermKind::kBranch);
  for (const ir::LoopInfo& l : p.loops) {
    ASSERT_TRUE(l.pipelined);
    if (p.block(entry.term.on_true).term.on_true == l.header) entry.term.on_true = l.header;
    if (p.block(entry.term.on_false).term.on_true == l.header) entry.term.on_false = l.header;
  }
  ASSERT_NE(entry.term.on_true, entry.term.on_false);
  DiffRig rig = rig_from(c->design, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");
  for (std::uint64_t x : {3, 9}) {
    for (bool taken : {true, false}) {
      SCOPED_TRACE("x = " + std::to_string(x) + (taken ? ", stuck taken" : ", stuck not-taken"));
      EXPECT_TRUE(expect_fault_agrees(rig, sim::FaultSpec::fsm_stuck_branch("f", p.entry, taken),
                                      {{"f.in", {x}}}, {"f.out"}));
    }
  }
}

TEST(CompiledFaults, SkippingABlockThatEndsInReturn) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kAccumulateSrc, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");
  const ir::Process& p = *rig.design.find_process("f");
  ir::BlockId last = ir::kNoBlock;
  for (const ir::BasicBlock& b : p.blocks) {
    if (b.term.kind == ir::TermKind::kReturn && !b.ops.empty()) last = b.id;
  }
  ASSERT_NE(last, ir::kNoBlock);
  Feeds feeds{{"f.in", {5, 6, 7, 8}}};
  sim::FaultSpec skip = sim::FaultSpec::fsm_skip_block("f", last);
  EXPECT_TRUE(expect_fault_agrees(rig, skip, feeds, {"f.out"}));
  // The skipped block held the output write: the run still completes.
  sim::SimOptions base;
  base.faults.add(skip);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
  EXPECT_EQ(comp.result.status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(comp.outputs["f.out"].empty());
}

TEST(CompiledFaults, DeadlineArmedWithAControlFault) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kAccumulateSrc, Options::optimized());
  ASSERT_EQ(rig.prep_error, "");
  Feeds feeds{{"f.in", {5, 6, 7, 8}}};
  const sim::Deadline far = sim::Deadline::in_ms(600'000);
  const sim::Deadline gone = sim::Deadline::in_ms(0);
  for (const sim::FaultSpec& site : control_sites(rig)) {
    SCOPED_TRACE(site.describe(rig.design));
    sim::SimOptions base;
    base.max_cycles = 5000;
    base.deadline = &far;
    EXPECT_TRUE(expect_fault_agrees(rig, site, feeds, {"f.out"}, base));
    base.deadline = &gone;
    base.faults.add(site);
    EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
    EXPECT_EQ(comp.result.status, sim::RunStatus::kDeadline);
  }
}

TEST(CompiledFaults, ControlFaultsInTwoProcessesBothApply) {
  HLSAV_REQUIRE_COMPILER();
  auto c = hlsav::testing::compile(R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 6; i++) {
        stream_write(link, stream_read(in) * 2);
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      uint32 acc = 0;
      for (uint32 i = 0; i < 6; i++) {
        acc = acc + stream_read(link);
      }
      stream_write(out, acc);
    }
  )");
  ir::StreamId link = c->design.find_process("producer")->find_port("link")->stream;
  c->design.connect_consumer(link, "consumer", "link");
  DiffRig rig = rig_from(c->design, Options::ndebug());
  ASSERT_EQ(rig.prep_error, "");
  Feeds feeds{{"producer.in", {1, 2, 3, 4, 5, 6}}};
  std::vector<sim::FaultSpec> sites = control_sites(rig);
  for (const sim::FaultSpec& a : sites) {
    for (const sim::FaultSpec& b : sites) {
      if (a.process != "producer" || b.process != "consumer") continue;
      SCOPED_TRACE(a.describe(rig.design) + " + " + b.describe(rig.design));
      sim::SimOptions base;
      base.max_cycles = 3000;
      base.faults.add(a);
      EXPECT_TRUE(expect_fault_agrees(rig, b, feeds, {"consumer.out"}, base));
    }
  }
}

// ------------------------------------------------------------ campaign --

std::size_t sites_interpreted(const sim::CampaignReport& rep) {
  std::size_t n = 0;
  for (const auto& [note, count] : rep.interpreted_by_note) n += count;
  return n;
}

TEST(CompiledFaults, CampaignCountsSitesPerEngineAndRendersIdentically) {
  HLSAV_REQUIRE_COMPILER();
  auto app = apps::compile_app("loopback2", "loopback.c", apps::loopback::hlsc_source(2, 6));
  DiffRig rig = rig_from(app->design, Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  Feeds feeds{{"stage0.a", {1, 2, 3, 4, 5, 6}}, {"stage1.a", {7, 8, 9, 10, 11, 12}}};

  sim::CampaignOptions opt;
  opt.threads = 2;
  sim::CampaignReport interp = sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, opt);
  EXPECT_EQ(interp.sites_compiled, 0u);
  EXPECT_EQ(sites_interpreted(interp), interp.results.size());
  EXPECT_EQ(interp.interpreted_by_note.size(), 1u);
  EXPECT_EQ(interp.interpreted_by_note.count(""), 1u);

  opt.sim.engine = sim::SimEngine::kAuto;
  opt.sim.compiled = rig.compiled->handle();
  sim::CampaignReport comp = sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, opt);
  EXPECT_EQ(interp.render(rig.design), comp.render(rig.design));

  std::size_t expect_compiled = 0;
  std::map<std::string, std::size_t> expect_notes;
  for (const sim::FaultResult& r : comp.results) {
    if (declined(rig.design, r.site)) {
      ++expect_notes[std::string(sim::fault_kind_name(r.site.kind)) +
                     " fault armed; compiled engine declines, interpreting"];
    } else {
      ++expect_compiled;
    }
  }
  EXPECT_GT(expect_compiled, 0u);
  EXPECT_EQ(comp.sites_compiled, expect_compiled);
  EXPECT_EQ(sites_interpreted(comp), comp.results.size() - expect_compiled);
  EXPECT_EQ(comp.interpreted_by_note, expect_notes);
  EXPECT_NE(comp.engine_summary().find(std::to_string(expect_compiled) + " sites compiled"),
            std::string::npos)
      << comp.engine_summary();

  // A resume that restores every site from the journal ran none.
  std::string journal = test_cache_dir() + "/engine-counts.jsonl";
  std::filesystem::create_directories(test_cache_dir());
  opt.journal = journal;
  sim::CampaignReport first = sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, opt);
  EXPECT_EQ(first.sites_compiled, expect_compiled);
  opt.resume = true;
  sim::CampaignReport again = sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, opt);
  EXPECT_EQ(again.render(rig.design), comp.render(rig.design));
  EXPECT_EQ(again.sites_compiled + sites_interpreted(again), 0u);
}

}  // namespace
}  // namespace hlsav::codegen
