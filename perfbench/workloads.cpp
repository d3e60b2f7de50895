#include "workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/bmp.h"
#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "assertions/synthesize.h"
#include "codegen/emit.h"
#include "codegen/engine.h"
#include "codegen/jit.h"
#include "ir/lower.h"
#include "lang/parser.h"
#include "pipeline/compile.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "support/io.h"
#include "support/str.h"
#include "support/subprocess.h"

namespace perfbench {

void Results::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

std::string inner_loop_source(unsigned inner) {
  std::ostringstream os;
  os << "void f(stream_in<32> in, stream_out<32> out) {\n"
     << "  for (uint32 i = 0; i < 8; i++) {\n"
     << "    uint32 v = stream_read(in);\n"
     << "    uint32 acc = 0;\n"
     << "    for (uint32 j = 0; j < " << inner << "; j++) {\n"
     << "      acc = acc + v;\n"
     << "    }\n"
     << "    assert(acc >= v);\n"
     << "    stream_write(out, acc);\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

namespace {

using namespace hlsav;
using Feeds = std::map<std::string, std::vector<std::uint64_t>>;

/// The count metrics (sim.cycles, assertions.failures_decoded) cover
/// the first blocks of requests, which every run with the seed makes.
constexpr std::size_t kPrefixBlocks = 1;

// ------------------------------------------------------------ inputs --

/// The generator for one purpose (`tag`) and index, derived from the
/// run seed alone, so request i gets the same input in every run.
SplitMix64 rng_for(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  SplitMix64 mix(seed ^ (tag * 0x9e3779b97f4a7c15ull));
  std::uint64_t a = mix.next();
  return SplitMix64(a ^ (index * 0xbf58476d1ce4e5b9ull));
}

/// Seeded permutation of 0..n-1 for block `b`: each block visits every
/// request group once, in an order drawn from the seed.
std::vector<std::size_t> block_order(std::uint64_t seed, std::uint64_t tag, std::uint64_t b,
                                     std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = k;
  SplitMix64 rng = rng_for(seed, tag, b);
  for (std::size_t k = n; k > 1; --k) std::swap(order[k - 1], order[rng.next_below(k)]);
  return order;
}

std::string printable_text(SplitMix64& rng, std::size_t chars) {
  std::string s(chars, ' ');
  for (char& c : s) c = static_cast<char>(33 + rng.next_below(94));
  return s;
}

std::string feed_spec(const Feeds& feeds) {
  std::string out;
  for (const auto& [stream, words] : feeds) {
    if (!out.empty()) out += ';';
    out += stream + '=';
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(words[i]);
    }
  }
  return out;
}

double ms_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; }

void make_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + dir);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ----------------------------------------------------------- designs --

struct DesignSpec {
  std::string name;  // metric name
  std::string file;  // source buffer name; the path for campaign designs
  std::string source;
  unsigned chain_stages = 0;  // > 0: wire stage{k}.b -> stage{k+1}.a
  assertions::Options assert_opts = assertions::Options::optimized();
  sched::SchedOptions sched_opts;
};

struct Built {
  std::string name;
  SourceManager sm;
  DiagnosticEngine diags{&sm};
  std::unique_ptr<lang::Program> program;
  lang::SemaResult sema;
  ir::Design design;
  sched::DesignSchedule schedule;
  std::unique_ptr<codegen::CompiledDesign> jit;
  std::size_t c_bytes = 0;
};

bool same_schedule(const sched::DesignSchedule& a, const sched::DesignSchedule& b) {
  if (a.processes.size() != b.processes.size()) return false;
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    const sched::ProcessSchedule& x = a.processes[p];
    const sched::ProcessSchedule& y = b.processes[p];
    if (x.process != y.process || x.total_states != y.total_states ||
        x.blocks.size() != y.blocks.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.blocks.size(); ++k) {
      const sched::BlockSchedule& u = x.blocks[k];
      const sched::BlockSchedule& v = y.blocks[k];
      if (u.op_state != v.op_state || u.num_states != v.num_states ||
          u.pipelined != v.pipelined || u.ii != v.ii || u.latency != v.latency ||
          u.header_op_state != v.header_op_state) {
        return false;
      }
    }
  }
  return true;
}

/// The compile pipeline one stage at a time, in pipeline::compile_buffer's
/// order, each stage a span, then codegen emit. With `check_pipeline`
/// the schedule is compared with compile_buffer's.
std::unique_ptr<Built> build_front(const DesignSpec& spec, SpanLog& log, bool check_pipeline,
                                   std::string& c_source) {
  auto d = std::make_unique<Built>();
  d->name = spec.name;
  d->design.name = spec.file;
  auto fail = [&](const std::string& stage) {
    throw std::runtime_error(spec.name + ": " + stage + " failed:\n" + d->diags.render());
  };
  {
    Scoped s(log, "lang.parse");
    d->program = lang::parse_source(d->sm, d->diags, spec.file, spec.source);
  }
  if (d->diags.has_errors()) fail("parse");
  {
    Scoped s(log, "lang.sema");
    d->sema = lang::analyze(*d->program, d->sm, d->diags);
  }
  if (!d->sema.ok || d->diags.has_errors()) fail("sema");
  {
    // lower_all_processes registers the design's externs first.
    Scoped s(log, "ir.lower");
    if (!ir::lower_all_processes(d->design, *d->program, d->sm, d->diags).ok()) fail("lower");
  }
  for (unsigned k = 0; k + 1 < spec.chain_stages; ++k) {
    std::string producer = "stage" + std::to_string(k);
    ir::StreamId link = d->design.find_process(producer)->find_port("b")->stream;
    d->design.connect_consumer(link, "stage" + std::to_string(k + 1), "a");
  }
  {
    Scoped s(log, "assertions.synthesize");
    (void)assertions::synthesize(d->design, spec.assert_opts);
  }
  ir::verify(d->design);
  {
    Scoped s(log, "sched.schedule");
    d->schedule = sched::schedule_design(d->design, spec.sched_opts);
  }
  if (check_pipeline) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    pipeline::CompileOptions copt;
    copt.assert_opts = spec.assert_opts;
    copt.sched_opts = spec.sched_opts;
    StatusOr<pipeline::Compiled> ref =
        pipeline::compile_source(sm, diags, spec.file, spec.source, copt);
    if (!ref.ok()) throw std::runtime_error(spec.name + ": " + ref.status().to_string());
    if (!same_schedule(d->schedule, ref->schedule)) {
      throw std::runtime_error(spec.name + ": staged schedule differs from compile_buffer's");
    }
  }
  {
    Scoped s(log, "codegen.emit");
    c_source = codegen::emit_design(d->design, d->schedule).source;
  }
  d->c_bytes = c_source.size();
  return d;
}

/// Compiles every design: the front end one design after another, then
/// the cold JIT builds into the empty cache `cache_dir` concurrently (one
/// host-compiler process per design), then a warm codegen::prepare per
/// design that must hit the cache.
std::vector<std::unique_ptr<Built>> build_all(const std::vector<DesignSpec>& specs, SpanLog& log,
                                              const std::string& cache_dir, bool check_pipeline) {
  std::vector<std::unique_ptr<Built>> out;
  std::vector<std::string> sources(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    out.push_back(build_front(specs[k], log, check_pipeline, sources[k]));
  }
  codegen::CompileOptions jit_opt;
  jit_opt.cache_dir = cache_dir;
  std::vector<std::string> errors(specs.size());
  {
    std::vector<std::jthread> pool;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      pool.emplace_back([&, k] {
        Scoped s(log, "codegen.jit_cold");
        StatusOr<codegen::LoadedModule> cold = codegen::compile_module(sources[k], jit_opt);
        if (!cold.ok()) errors[k] = cold.status().to_string();
        else if (cold->from_cache) errors[k] = "JIT cache was not empty";
      });
    }
  }
  codegen::PrepareOptions prep;
  prep.cache_dir = cache_dir;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    if (!errors[k].empty()) throw std::runtime_error(specs[k].name + ": JIT: " + errors[k]);
    Scoped s(log, "codegen.jit_warm");
    StatusOr<std::unique_ptr<codegen::CompiledDesign>> warm =
        codegen::prepare(out[k]->design, out[k]->schedule, prep);
    if (!warm.ok()) {
      throw std::runtime_error(specs[k].name + ": JIT: " + warm.status().to_string());
    }
    if (!(*warm)->from_cache()) throw std::runtime_error(specs[k].name + ": warm JIT missed");
    out[k]->jit = std::move(*warm);
  }
  return out;
}

/// The ANSI-C failure text of the first `assert(...)` in `function`,
/// read off the source: "file:line: function: Assertion `cond' failed."
std::string expected_failure(const std::string& file, const std::string& source,
                             const std::string& function) {
  std::istringstream in(source);
  std::string line;
  bool inside = false;
  for (unsigned n = 1; std::getline(in, line); ++n) {
    if (line.find(" " + function + "(") != std::string::npos) inside = true;
    std::size_t a = line.find("assert(");
    if (inside && a != std::string::npos) {
      std::size_t close = line.rfind(')');
      std::string cond = line.substr(a + 7, close - a - 7);
      return file + ":" + std::to_string(n) + ": " + function + ": Assertion `" + cond +
             "' failed.";
    }
  }
  throw std::runtime_error("no assertion in " + function);
}

const sim::ExternRegistry& no_externs() {
  static const sim::ExternRegistry ext;
  return ext;
}

sim::SimOptions engine_options(const Built& d, bool compiled) {
  sim::SimOptions so;
  if (compiled) {
    so.engine = sim::SimEngine::kCompiled;
    so.compiled = d.jit->handle();
  }
  return so;
}

// ------------------------------------------------ single simulations --

struct Outcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  std::uint64_t cycles = 0;
  Feeds out;  // words the CPU received, by output stream
  std::vector<assertions::Failure> failures;
  bool engine_active = false;
  double ms = 0.0;
  double construct_us = 0.0;
  double run_ms = 0.0;

  [[nodiscard]] bool same_as(const Outcome& o) const {
    if (status != o.status || cycles != o.cycles || out != o.out ||
        failures.size() != o.failures.size()) {
      return false;
    }
    for (std::size_t k = 0; k < failures.size(); ++k) {
      if (failures[k].message != o.failures[k].message ||
          failures[k].cycle != o.failures[k].cycle) {
        return false;
      }
    }
    return true;
  }
};

/// One request: construct, feed, run, collect. The wall time covers all
/// four; construction and run are spans of their own.
Outcome simulate(const Built& d, bool compiled, const Feeds& feeds,
                 const std::vector<std::string>& outputs, SpanLog& log, std::uint64_t request) {
  Outcome o;
  sim::SimOptions so = engine_options(d, compiled);
  std::optional<sim::Simulator> s;
  std::uint64_t t0 = now_ns();
  {
    Scoped span(log, "sim.construct", request);
    s.emplace(d.design, d.schedule, no_externs(), so);
  }
  std::uint64_t t1 = now_ns();
  for (const auto& [stream, words] : feeds) s->feed(stream, words);
  sim::RunResult r;
  std::uint64_t t2 = now_ns();
  {
    Scoped span(log, "sim.run", request);
    r = s->run();
  }
  std::uint64_t t3 = now_ns();
  for (const std::string& stream : outputs) o.out[stream] = s->received(stream);
  std::uint64_t t4 = now_ns();
  o.status = r.status;
  o.cycles = r.cycles;
  o.failures = std::move(r.failures);
  o.engine_active = s->engine_active();
  o.ms = ms_between(t0, t4);
  o.construct_us = ms_between(t0, t1) * 1e3;
  o.run_ms = ms_between(t2, t3);
  return o;
}

/// Layer samples of one traced single simulation.
void record_sim_layers(Results& r, const std::string& design, bool compiled, const Outcome& o) {
  r.layer["sim.construct_us"].push_back(o.construct_us);
  r.layer["sim.run_ms"].push_back(o.run_ms);
  if (o.cycles > 0) {
    double ns_per_cycle = o.run_ms * 1e6 / static_cast<double>(o.cycles);
    std::string engine = compiled ? "compiled" : "interp";
    r.layer["sim." + engine + "_ns_per_cycle"].push_back(ns_per_cycle);
    r.layer["sim.ns_per_cycle." + design + "." + engine].push_back(ns_per_cycle);
  }
  if (compiled) r.layer["sim.engine_active_ratio"].push_back(o.engine_active ? 1.0 : 0.0);
}

/// Set-up golden check: sim::golden_run on the compiled engine must
/// reproduce the C++ model's outputs.
void golden_check(const Built& d, const Feeds& feeds, const Feeds& expected, SpanLog& log,
                  Results& r) {
  sim::SimOptions so = engine_options(d, /*compiled=*/true);
  so.engine = sim::SimEngine::kAuto;
  std::uint64_t t0 = now_ns();
  sim::GoldenRef g;
  {
    Scoped s(log, "sim.golden");
    g = sim::golden_run(d.design, d.schedule, no_externs(), feeds, so);
  }
  if (log.enabled()) r.layer["sim.golden_ms"].push_back(ms_between(t0, now_ns()));
  Feeds got(g.outputs.begin(), g.outputs.end());
  if (got != expected) throw std::runtime_error(d.name + ": golden outputs differ from the model");
}

// ------------------------------------------------------ stream_chain --

/// Loopback chains of 8 and 128 stages, each request one run of a
/// seeded stream; pairs of requests run the same input on the
/// interpreter and then the compiled engine.
class StreamChain : public Workload {
 public:
  void setup(const Context& ctx, int rep, Results& r) override {
    ctx_ = ctx;
    shapes_.clear();
    designs_.clear();
    memo_.clear();
    std::string cache = ctx.dir + "/jit" + std::to_string(rep);
    // Stream length is compiled into the design, and a cold JIT build of
    // a 128-stage chain takes seconds, so only the 8-stage chain spans
    // tens to thousands of words; the 128-stage chains run 64.
    struct Config {
      const char* name;
      unsigned stages;
      assertions::Options opt;
      std::vector<unsigned> lengths;
    };
    const Config configs[] = {
        {"loopback_n8", 8, assertions::Options::optimized(), {40, 400, 4000}},
        {"loopback_n128_opt", 128, assertions::Options::optimized(), {64}},
        {"loopback_n128_unopt", 128, assertions::Options::unoptimized(), {64}}};
    std::vector<DesignSpec> specs;
    for (const Config& c : configs) {
      for (unsigned words : c.lengths) {
        DesignSpec spec;
        spec.name = c.name;
        spec.file = "loopback.c";
        spec.source = apps::loopback::hlsc_source(c.stages, words);
        spec.chain_stages = c.stages;
        spec.assert_opts = c.opt;
        specs.push_back(spec);
        Shape sh;
        sh.words = words;
        sh.group = std::string(c.name) + "/w" + std::to_string(words);
        sh.in = apps::loopback::input_stream(c.stages);
        sh.out = apps::loopback::output_stream(c.stages);
        sh.failure = expected_failure(spec.file, spec.source, "stage0");
        shapes_.push_back(sh);
      }
    }
    designs_ = build_all(specs, *ctx.spans, cache, ctx.traced_run);
    std::size_t c_bytes = 0;
    for (std::size_t k = 0; k < shapes_.size(); ++k) {
      Shape& sh = shapes_[k];
      sh.design = designs_[k].get();
      c_bytes += sh.design->c_bytes;
      // Golden check on a seeded clean stream: the chain is the identity.
      SplitMix64 rng = rng_for(ctx.seed, 1, k);
      std::vector<std::uint64_t> words_in(sh.words);
      for (std::uint64_t& w : words_in) w = 1 + rng.next_below(0xffffffffull);
      golden_check(*sh.design, {{sh.in, words_in}}, {{sh.out, words_in}}, *ctx.spans, r);
    }
    r.layer["codegen.c_bytes"].push_back(static_cast<double>(c_bytes));
  }

  [[nodiscard]] std::size_t block() const override { return 2 * shapes_.size(); }

  void request(std::uint64_t i, bool traced, Results& r) override {
    const std::uint64_t pair = i / 2;
    const bool compiled = (i % 2) == 1;
    if (!compiled) make_input(pair);
    const Shape& sh = shapes_[shape_];
    Outcome o;
    try {
      o = simulate(*sh.design, compiled, {{sh.in, input_}}, {sh.out}, *ctx_.spans, i);
    } catch (const std::exception& e) {
      r.fail(sh.group + ": " + e.what());
      return;
    }
    r.samples.push_back({sh.group + (compiled ? "/compiled" : "/interp"), o.ms, o.cycles, traced});
    if (traced) record_sim_layers(r, sh.design->name, compiled, o);
    if (i < kPrefixBlocks * block()) {
      r.prefix_cycles += o.cycles;
      r.prefix_failures_decoded += o.failures.size();
      r.prefix_zero_words += zero_at_ >= 0 ? 1 : 0;
    }
    std::string why = check(sh, o);
    if (why.empty() && compiled) {
      if (!o.engine_active) why = "compiled engine fell back";
      else if (!o.same_as(interp_)) why = "compiled run differs from the interpreter's";
    }
    // The same input shape must always take the same number of cycles.
    auto [it, fresh] = memo_.emplace(std::make_pair(shape_, zero_at_), o.cycles);
    if (why.empty() && !fresh && it->second != o.cycles) why = "cycle count did not repeat";
    if (!why.empty()) r.fail(sh.group + (compiled ? "/compiled: " : "/interp: ") + why);
    if (!compiled) interp_ = std::move(o);
  }

  void finish(Results& r) override {
    r.notes.push_back("one request in " + std::to_string(kZeroOneIn) + " carries a zero word");
  }

 private:
  static constexpr unsigned kZeroOneIn = 10;

  struct Shape {
    const Built* design = nullptr;
    unsigned words = 0;
    std::string group, in, out, failure;
  };

  void make_input(std::uint64_t pair) {
    const std::size_t n = shapes_.size();
    shape_ = block_order(ctx_.seed, 2, pair / n, n)[pair % n];
    SplitMix64 rng = rng_for(ctx_.seed, 3, pair);
    input_.assign(shapes_[shape_].words, 0);
    for (std::uint64_t& w : input_) w = 1 + rng.next_below(0xffffffffull);
    zero_at_ = -1;
    if (rng.next_below(kZeroOneIn) == 0) {
      zero_at_ = static_cast<long>(rng.next_below(input_.size()));
      input_[static_cast<std::size_t>(zero_at_)] = 0;
    }
  }

  /// Oracle: a clean stream comes back unchanged; a stream with a zero
  /// word aborts with stage0's `w > 0' failure, having delivered only
  /// words that precede the zero.
  std::string check(const Shape& sh, const Outcome& o) const {
    if (zero_at_ < 0) {
      if (o.status != sim::RunStatus::kCompleted) return "clean stream did not complete";
      if (!o.failures.empty()) return "clean stream raised an assertion";
      if (o.out.at(sh.out) != input_) return "output differs from input";
      return "";
    }
    if (o.status != sim::RunStatus::kAborted) return "zero word did not abort the run";
    if (o.failures.empty() || o.failures.front().message != sh.failure) {
      return "wrong failure text: " + (o.failures.empty() ? "none" : o.failures.front().message);
    }
    const std::vector<std::uint64_t>& got = o.out.at(sh.out);
    if (got.size() > static_cast<std::size_t>(zero_at_) ||
        !std::equal(got.begin(), got.end(), input_.begin())) {
      return "aborted output is not a prefix of the clean words";
    }
    return "";
  }

  Context ctx_;
  std::vector<std::unique_ptr<Built>> designs_;
  std::vector<Shape> shapes_;
  std::map<std::pair<std::size_t, long>, std::uint64_t> memo_;
  // The current pair's input and its interpreter outcome.
  std::size_t shape_ = 0;
  std::vector<std::uint64_t> input_;
  long zero_at_ = -1;
  Outcome interp_;
};

// ------------------------------------------------------ compute_apps --

/// The paper's case studies: the 3DES decryptor (per-run keys from the
/// seed) and the 64x48 edge detector, pairs of requests on both engines.
class ComputeApps : public Workload {
 public:
  void setup(const Context& ctx, int rep, Results& r) override {
    ctx_ = ctx;
    std::string cache = ctx.dir + "/jit" + std::to_string(rep);
    SplitMix64 krng = rng_for(ctx.seed, 10, 0);
    for (std::uint64_t& k : keys_) k = krng.next();

    DesignSpec des;
    des.name = "tripledes";
    des.file = "des3.c";
    des.source = apps::des::hlsc_decrypt_source(keys_);
    des.sched_opts.chain_depth = 6;

    DesignSpec edge;
    edge.name = "edge";
    edge.file = "edge.c";
    edge.source = apps::edge::hlsc_source(kW, kH);
    edge.sched_opts.chain_depth = 16;
    std::vector<std::unique_ptr<Built>> built = build_all({des, edge}, *ctx.spans, cache,
                                                          ctx.traced_run);
    des_ = std::move(built[0]);
    edge_ = std::move(built[1]);
    r.layer["codegen.c_bytes"].push_back(static_cast<double>(des_->c_bytes + edge_->c_bytes));

    SplitMix64 rng = rng_for(ctx.seed, 11, 0);
    std::string text = printable_text(rng, 16);
    golden_check(*des_, {{"des3.in", des_words(text)}}, {{"des3.txt", chars(text)}}, *ctx.spans,
                 r);
    apps::img::Image img = apps::img::synthetic_image(kW, kH, rng.next());
    golden_check(*edge_, {{"edge.in", apps::edge::to_word_stream(img)}},
                 {{"edge.out", pixels(apps::edge::golden_edge(img))}}, *ctx.spans, r);
  }

  [[nodiscard]] std::size_t block() const override { return 2 * kShapes; }

  void request(std::uint64_t i, bool traced, Results& r) override {
    const std::uint64_t pair = i / 2;
    const bool compiled = (i % 2) == 1;
    if (!compiled) make_input(pair);
    const bool is_des = shape_ < 2;
    const Built& d = is_des ? *des_ : *edge_;
    std::string group = is_des ? "tripledes/c" + std::to_string(kTextChars[shape_]) : "edge/64x48";
    Outcome o;
    try {
      o = simulate(d, compiled, {{is_des ? "des3.in" : "edge.in", input_}},
                   {is_des ? "des3.txt" : "edge.out"}, *ctx_.spans, i);
    } catch (const std::exception& e) {
      r.fail(group + ": " + e.what());
      return;
    }
    r.samples.push_back({group + (compiled ? "/compiled" : "/interp"), o.ms, o.cycles, traced});
    if (traced) record_sim_layers(r, d.name, compiled, o);
    if (i < kPrefixBlocks * block()) {
      r.prefix_cycles += o.cycles;
      r.prefix_failures_decoded += o.failures.size();
    }
    std::string why;
    if (o.status != sim::RunStatus::kCompleted || !o.failures.empty()) {
      why = "run did not complete cleanly";
    } else if (o.out.begin()->second != expected_) {
      why = is_des ? "plaintext differs from des::triple_des_decrypt"
                   : "edge map differs from edge::golden_edge";
    } else if (compiled && !o.engine_active) {
      why = "compiled engine fell back";
    } else if (compiled && !o.same_as(interp_)) {
      why = "compiled run differs from the interpreter's";
    }
    if (!why.empty()) r.fail(group + (compiled ? "/compiled: " : "/interp: ") + why);
    if (!compiled) interp_ = std::move(o);
  }

  void finish(Results& r) override {
    r.notes.push_back("3DES plaintext sizes (chars): " + std::to_string(kTextChars[0]) + ", " +
                      std::to_string(kTextChars[1]) + "; edge image " + std::to_string(kW) +
                      "x" + std::to_string(kH));
  }

 private:
  static constexpr unsigned kW = 64;
  static constexpr unsigned kH = 48;
  static constexpr std::size_t kShapes = 3;  // two 3DES sizes, one image
  static constexpr std::size_t kTextChars[2] = {32, 128};

  std::vector<std::uint64_t> des_words(const std::string& text) const {
    std::vector<std::uint64_t> cipher;
    for (std::uint64_t b : apps::des::pack_text(text)) {
      cipher.push_back(apps::des::triple_des_encrypt(b, keys_));
    }
    return apps::des::to_word_stream(cipher);
  }

  static std::vector<std::uint64_t> chars(const std::string& text) {
    return {text.begin(), text.end()};
  }

  static std::vector<std::uint64_t> pixels(const apps::img::Image& img) {
    return {img.pixels.begin(), img.pixels.end()};
  }

  void make_input(std::uint64_t pair) {
    shape_ = block_order(ctx_.seed, 12, pair / kShapes, kShapes)[pair % kShapes];
    SplitMix64 rng = rng_for(ctx_.seed, 13, pair);
    if (shape_ < 2) {
      std::string text = printable_text(rng, kTextChars[shape_]);
      input_ = des_words(text);
      // The oracle decrypts with the C++ model, not the design.
      std::vector<std::uint64_t> blocks;
      for (std::size_t k = 1; k + 1 < input_.size(); k += 2) {
        blocks.push_back(apps::des::triple_des_decrypt((input_[k] << 32) | input_[k + 1], keys_));
      }
      expected_ = chars(apps::des::unpack_text(blocks));
      if (expected_ != chars(text)) throw std::runtime_error("3DES model does not round-trip");
    } else {
      apps::img::Image img = apps::img::synthetic_image(kW, kH, rng.next());
      input_ = apps::edge::to_word_stream(img);
      expected_ = pixels(apps::edge::golden_edge(img));
    }
  }

  Context ctx_;
  std::array<std::uint64_t, 3> keys_{};
  std::unique_ptr<Built> des_, edge_;
  std::size_t shape_ = 0;
  std::vector<std::uint64_t> input_, expected_;
  Outcome interp_;
};

// ---------------------------------------------------------- campaigns --

/// One campaign design: its file (the daemon compiles the same path),
/// seeded feeds, the C++ model's outputs and the reference report.
struct CampaignDesign {
  std::string name;
  std::string path;
  std::string assertions;
  Feeds feeds;
  Feeds expected;
  std::uint64_t campaign_seed = 1;
  std::unique_ptr<Built> built;
  std::string reference;  // threads=1 interpreter report
  std::uint64_t cycles = 0;  // golden + every site
  std::size_t sites = 0;
  std::uint64_t failures_decoded = 0;  // assertion ids detected across sites
  std::uint64_t site_cycles = 0;
  std::uint64_t hang_timeout_cycles = 0;
  std::size_t tally[sim::kNumFaultOutcomes] = {};
};

constexpr unsigned kInner = 5000;
constexpr unsigned kLoopWords = 512;

/// The three campaigns both campaign workloads cycle through, in this
/// order: the inner-loop design, 3DES and an 8-stage loopback with
/// unoptimized synthesis. The daemon compiles designs from files, where
/// loopback stages are not chained, so each stage gets its own stream.
std::vector<CampaignDesign> setup_campaigns(const Context& ctx, int rep, Results& r) {
  std::string dir = ctx.dir + "/campaign" + std::to_string(rep);
  make_dir(dir);
  std::string cache = ctx.dir + "/jit" + std::to_string(rep);
  std::vector<CampaignDesign> out(3);
  std::vector<DesignSpec> specs(3);

  SplitMix64 rng = rng_for(ctx.seed, 20, 0);
  {
    CampaignDesign& c = out[0];
    c.name = "inner_loop";
    specs[0].source = inner_loop_source(kInner);
    c.assertions = "optimized";
    std::vector<std::uint64_t> in(8), sums(8);
    for (std::size_t k = 0; k < 8; ++k) {
      in[k] = 1 + rng.next_below(100000);  // v * kInner stays below 2^32
      sums[k] = in[k] * kInner;
    }
    c.feeds["f.in"] = in;
    c.expected["f.out"] = sums;
  }
  {
    CampaignDesign& c = out[1];
    c.name = "tripledes";
    std::array<std::uint64_t, 3> keys{rng.next(), rng.next(), rng.next()};
    specs[1].source = apps::des::hlsc_decrypt_source(keys);
    c.assertions = "optimized";
    std::string text = printable_text(rng, 8);
    std::vector<std::uint64_t> cipher;
    for (std::uint64_t b : apps::des::pack_text(text)) {
      cipher.push_back(apps::des::triple_des_encrypt(b, keys));
    }
    c.feeds["des3.in"] = apps::des::to_word_stream(cipher);
    c.expected["des3.txt"] = {text.begin(), text.end()};
  }
  {
    CampaignDesign& c = out[2];
    c.name = "loopback_n8_unopt";
    specs[2].source = apps::loopback::hlsc_source(8, kLoopWords);
    specs[2].assert_opts = assertions::Options::unoptimized();
    c.assertions = "unoptimized";
    for (unsigned k = 0; k < 8; ++k) {
      std::vector<std::uint64_t> words(kLoopWords);
      for (std::uint64_t& w : words) w = 1 + rng.next_below(0xffffffffull);
      c.feeds["stage" + std::to_string(k) + ".a"] = words;
      c.expected["stage" + std::to_string(k) + ".b"] = words;
    }
  }
  std::size_t c_bytes = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    CampaignDesign& c = out[k];
    c.path = dir + "/" + c.name + ".c";
    c.campaign_seed = 1 + rng.next_below(1000000);
    Status st = write_file_atomic(c.path, specs[k].source);
    if (!st.ok()) throw std::runtime_error(st.to_string());
    specs[k].name = c.name;
    specs[k].file = c.path;
  }
  std::vector<std::unique_ptr<Built>> built = build_all(specs, *ctx.spans, cache, ctx.traced_run);
  for (std::size_t k = 0; k < out.size(); ++k) {
    CampaignDesign& c = out[k];
    c.built = std::move(built[k]);
    c_bytes += c.built->c_bytes;
    golden_check(*c.built, c.feeds, c.expected, *ctx.spans, r);

    // Both engines straight through the Simulator as well, checked
    // against the same model.
    std::vector<std::string> outputs;
    for (const auto& [stream, words] : c.expected) outputs.push_back(stream);
    for (bool compiled : {false, true}) {
      Outcome o = simulate(*c.built, compiled, c.feeds, outputs, *ctx.spans, 0);
      if (o.status != sim::RunStatus::kCompleted || o.out != c.expected) {
        throw std::runtime_error(c.name + ": simulation differs from the model");
      }
      if (compiled && !o.engine_active) throw std::runtime_error(c.name + ": no compiled engine");
      if (ctx.traced_run) record_sim_layers(r, c.name, compiled, o);
    }

    sim::CampaignOptions copt;
    copt.seed = c.campaign_seed;
    copt.threads = 1;
    sim::CampaignReport rep_ref;
    {
      Scoped s(*ctx.spans, "sim.reference_campaign");
      StatusOr<sim::CampaignReport> ref = sim::run_campaign_st(
          c.built->design, c.built->schedule, no_externs(), c.feeds, copt);
      if (!ref.ok()) throw std::runtime_error(c.name + ": " + ref.status().to_string());
      rep_ref = std::move(*ref);
    }
    c.reference = rep_ref.render(c.built->design);
    c.sites = rep_ref.results.size();
    c.cycles = rep_ref.golden_cycles;
    for (const sim::FaultResult& f : rep_ref.results) {
      c.failures_decoded += f.detected_by.size();
      c.cycles += f.cycles;
      c.site_cycles += f.cycles;
      if (f.outcome == sim::FaultOutcome::kHangTimeout) c.hang_timeout_cycles += f.cycles;
      ++c.tally[static_cast<std::size_t>(f.outcome)];
    }
  }
  r.layer["codegen.c_bytes"].push_back(static_cast<double>(c_bytes));
  return out;
}

void campaign_notes(const std::vector<CampaignDesign>& designs, Results& r) {
  std::uint64_t site_cycles = 0, hang_cycles = 0;
  for (const CampaignDesign& c : designs) {
    std::string tallies;
    for (std::size_t o = 0; o < sim::kNumFaultOutcomes; ++o) {
      if (c.tally[o] == 0) continue;
      tallies += std::string(tallies.empty() ? "" : ", ") +
                 sim::fault_outcome_name(static_cast<sim::FaultOutcome>(o)) + " " +
                 std::to_string(c.tally[o]);
    }
    r.notes.push_back("campaign " + c.name + ": " + std::to_string(c.sites) + " sites, " +
                      std::to_string(c.cycles) + " cycles (" + tallies + ")");
    site_cycles += c.site_cycles;
    hang_cycles += c.hang_timeout_cycles;
  }
  r.layer_value["sim.site_cycles"] = static_cast<double>(site_cycles);
  r.layer_value["sim.hang_timeout_cycle_share"] =
      site_cycles == 0 ? 0.0 : static_cast<double>(hang_cycles) / static_cast<double>(site_cycles);
}

/// One campaign per request through sim::run_campaign_st, 4 threads, no
/// journal, the compiled engine armed as `--engine=auto` arms it.
class Campaign : public Workload {
 public:
  void setup(const Context& ctx, int rep, Results& r) override {
    ctx_ = ctx;
    designs_ = setup_campaigns(ctx, rep, r);
  }

  [[nodiscard]] std::size_t block() const override { return designs_.size(); }

  void request(std::uint64_t i, bool traced, Results& r) override {
    CampaignDesign& c = designs_[i % designs_.size()];
    sim::CampaignOptions copt;
    copt.seed = c.campaign_seed;
    copt.threads = kThreads;
    copt.sim.engine = sim::SimEngine::kAuto;
    copt.sim.compiled = c.built->jit->handle();
    std::int64_t campaign_span = -1;
    std::optional<SiteSpans> sites;
    if (traced) {
      campaign_span = ctx_.spans->begin("sim.campaign", i);
      sites.emplace(*ctx_.spans, campaign_span, i);
      copt.site_start_hook = [&sites](std::uint32_t id) { sites->start(id); };
      copt.site_sink = [&sites](const sim::FaultResult& f) { sites->done(f.site.id, f.cycles); };
    }
    std::uint64_t t0 = now_ns();
    StatusOr<sim::CampaignReport> rep = sim::run_campaign_st(
        c.built->design, c.built->schedule, no_externs(), c.feeds, copt);
    std::string text = rep.ok() ? rep->render(c.built->design) : "";
    std::uint64_t t1 = now_ns();
    ctx_.spans->end(campaign_span);
    if (!rep.ok()) {
      r.fail(c.name + ": " + rep.status().to_string());
      return;
    }
    r.samples.push_back({c.name, ms_between(t0, t1), c.cycles, traced, c.sites});
    if (i < kPrefixBlocks * block()) {
      r.prefix_cycles += c.cycles;
      r.prefix_failures_decoded += c.failures_decoded;
    }
    if (text != c.reference) {
      r.fail(c.name + ": report differs from the threads=1 interpreter reference");
      return;
    }
    if (traced) record_sites(*sites, t0, t1, c, r);
  }

  void finish(Results& r) override { campaign_notes(designs_, r); }

 private:
  static constexpr unsigned kThreads = 4;

  void record_sites(const SiteSpans& sites, std::uint64_t t0, std::uint64_t t1,
                    const CampaignDesign& c, Results& r) {
    std::map<std::uint32_t, SiteSpans::Site> got = sites.sites();
    std::uint64_t first = UINT64_MAX, last_start = 0, last_end = 0;
    double busy_ns = 0.0;
    for (const auto& [id, s] : got) {
      if (s.starts != 1 || s.dones != 1 || s.begin_ns < t0 || s.end_ns > t1) {
        r.fail(c.name + ": site s" + std::to_string(id) + " span is not one start and one " +
               "done inside the campaign");
        return;
      }
      first = std::min(first, s.begin_ns);
      last_start = std::max(last_start, s.begin_ns);
      last_end = std::max(last_end, s.end_ns);
      busy_ns += static_cast<double>(s.end_ns - s.begin_ns);
      r.layer["sim.site_ms"].push_back(ms_between(s.begin_ns, s.end_ns));
    }
    if (got.size() != c.sites) {
      r.fail(c.name + ": " + std::to_string(got.size()) + " site spans for " +
             std::to_string(c.sites) + " sites");
      return;
    }
    if (got.empty()) return;
    r.layer["sim.worker_busy_ratio"].push_back(
        busy_ns / (kThreads * static_cast<double>(last_end - first)));
    r.layer["sim.drain_ms"].push_back(ms_between(last_start, t1));
    r.layer["sim.golden_in_campaign_ms"].push_back(ms_between(t0, first));
  }

  Context ctx_;
  std::vector<CampaignDesign> designs_;
};

// ----------------------------------------------------------- service --

/// The `"key": value` number of one line of trace-event JSON.
std::uint64_t json_number(const std::string& line, const std::string& key) {
  std::size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 4, nullptr, 10);
}

std::string json_string(const std::string& line, const std::string& key) {
  std::size_t at = line.find("\"" + key + "\": \"");
  if (at == std::string::npos) return "";
  at += key.size() + 5;
  return line.substr(at, line.find('"', at) - at);
}

/// One campaign per request through serve::submit_job to an `hlsavd
/// serve` this workload starts: 2 workers per job, the write-ahead
/// spool on, no idempotency key.
class Service : public Workload {
 public:
  ~Service() override { stop(); }

  void setup(const Context& ctx, int rep, Results& r) override {
    stop();
    ctx_ = ctx;
    designs_ = setup_campaigns(ctx, rep, r);
    std::string tag = std::to_string(rep);
    socket_ = ctx.dir + "/d" + tag + ".sock";
    std::string work = ctx.dir + "/daemon" + tag;
    std::string spool = ctx.dir + "/spool" + tag;
    {
      Scoped s(*ctx.spans, "serve.start");
      StatusOr<Subprocess> d = Subprocess::spawn(
          {ctx.hlsavd, "serve", "--socket=" + socket_, "--work-dir=" + work,
           "--spool-dir=" + spool, "--workers=" + std::to_string(kWorkers)},
          /*capture_stdout=*/false, /*kill_on_parent_death=*/true);
      if (!d.ok()) throw std::runtime_error("cannot start hlsavd: " + d.status().to_string());
      daemon_.emplace(std::move(*d));
      bool up = false;
      for (int k = 0; k < 2000 && !up; ++k) {
        up = ::access(socket_.c_str(), F_OK) == 0 && serve::query_status(socket_).ok();
        if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!up) throw std::runtime_error("hlsavd did not come up on " + socket_);
    }
    next_job_ = 1;
    out_path_ = ctx.dir + "/report" + tag + ".txt";
  }

  [[nodiscard]] std::size_t block() const override { return designs_.size(); }

  void request(std::uint64_t i, bool traced, Results& r) override {
    CampaignDesign& c = designs_[i % designs_.size()];
    serve::CampaignSpec spec;
    spec.design_path = c.path;
    spec.feeds = feed_spec(c.feeds);
    spec.assertions = c.assertions;
    spec.seed = c.campaign_seed;
    spec.workers = kWorkers;
    serve::SubmitOptions opt;
    opt.out_path = out_path_;
    opt.quiet = true;
    std::uint64_t job = next_job_++;
    std::uint64_t t0 = now_ns();
    int rc = 0;
    {
      Scoped s(*ctx_.spans, "serve.submit", i);
      rc = serve::submit_job(socket_, spec, opt);
    }
    std::uint64_t t1 = now_ns();
    if (rc != 0) {
      r.fail(c.name + ": submit_job exited " + std::to_string(rc));
      return;
    }
    r.samples.push_back({c.name, ms_between(t0, t1), c.cycles, traced, c.sites});
    if (i < kPrefixBlocks * block()) {
      r.prefix_cycles += c.cycles;
      r.prefix_failures_decoded += c.failures_decoded;
    }
    if (slurp(out_path_) != c.reference) {
      r.fail(c.name + ": service report differs from the threads=1 interpreter reference");
      return;
    }
    if (traced) record_trace(job, ms_between(t0, t1), c, r);
  }

  void finish(Results& r) override {
    campaign_notes(designs_, r);
    StatusOr<std::string> m = serve::query_metrics(socket_);
    if (m.ok()) {
      r.layer_value["serve.respawns"] = static_cast<double>(json_number(*m, "worker_respawns"));
      r.layer_value["serve.journal_bytes"] = static_cast<double>(json_number(*m, "journal_bytes"));
      if (json_number(*m, "worker_respawns") != 0) r.fail("hlsavd respawned a worker");
    } else {
      r.fail("hlsavd metrics: " + m.status().to_string());
    }
    stop();
  }

 private:
  static constexpr unsigned kWorkers = 2;

  void stop() {
    if (!daemon_) return;
    (void)serve::request_shutdown(socket_);
    // A daemon that does not drain within 10 s is killed; either way it
    // is reaped before the run ends.
    for (int k = 0; k < 1000 && !daemon_->poll(); ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!daemon_->poll()) {
      daemon_->kill(SIGKILL);
      (void)daemon_->wait();
    }
    daemon_.reset();
  }

  /// Layer figures from the job's span tree (serve::fetch_trace).
  void record_trace(std::uint64_t job, double submit_ms, const CampaignDesign& c, Results& r) {
    StatusOr<std::string> trace = serve::fetch_trace(socket_, job);
    if (!trace.ok()) {
      r.fail("fetch_trace: " + trace.status().to_string());
      return;
    }
    std::map<std::string, double> phase_ms;
    std::uint64_t run_end = 0, first = UINT64_MAX, last_start = 0, last_end = 0;
    double busy_us = 0.0;
    std::size_t site_spans = 0;
    bool named = false;
    std::istringstream in(*trace);
    for (std::string line; std::getline(in, line);) {
      std::string ph = json_string(line, "ph");
      if (ph == "M" && line.find("job " + std::to_string(job) + " " + c.name + ".c") !=
                           std::string::npos) {
        named = true;
      }
      if (ph != "X") continue;
      std::uint64_t tid = json_number(line, "tid");
      std::uint64_t ts = json_number(line, "ts");
      std::uint64_t dur = json_number(line, "dur");
      std::string name = json_string(line, "name");
      if (tid == 1) {
        phase_ms[name] += static_cast<double>(dur) / 1e3;
        if (name == "run") run_end = ts + dur;
      } else if (tid >= 10) {
        ++site_spans;
        first = std::min(first, ts);
        last_start = std::max(last_start, ts);
        last_end = std::max(last_end, ts + dur);
        busy_us += static_cast<double>(dur);
        r.layer["serve.site_ms"].push_back(static_cast<double>(dur) / 1e3);
      }
    }
    if (!named || site_spans != c.sites) {
      r.fail(c.name + ": job " + std::to_string(job) + " trace has " +
             std::to_string(site_spans) + " site spans for " + std::to_string(c.sites) +
             " sites");
      return;
    }
    for (const char* p : {"queued", "compile", "shard", "merge"}) {
      r.layer[std::string("serve.") + p + "_ms"].push_back(phase_ms[p]);
    }
    r.layer["serve.submit_overhead_ms"].push_back(submit_ms - phase_ms["run"]);
    if (site_spans > 0 && last_end > first) {
      r.layer["serve.worker_busy_ratio"].push_back(
          busy_us / (kWorkers * static_cast<double>(last_end - first)));
      r.layer["serve.drain_ms"].push_back(static_cast<double>(run_end - last_start) / 1e3);
    }
  }

  Context ctx_;
  std::vector<CampaignDesign> designs_;
  std::optional<Subprocess> daemon_;
  std::string socket_, out_path_;
  std::uint64_t next_job_ = 1;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stream_chain", "compute_apps", "campaign",
                                                 "service"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream_chain") return std::make_unique<StreamChain>();
  if (name == "compute_apps") return std::make_unique<ComputeApps>();
  if (name == "campaign") return std::make_unique<Campaign>();
  if (name == "service") return std::make_unique<Service>();
  return nullptr;
}

}  // namespace perfbench
