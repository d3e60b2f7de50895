// The benchmark's workloads: seeded inputs, one closed-loop client,
// every output checked against an oracle that does not share the
// simulator's code path.
//
//   stream_chain  one Simulator run per request on a loopback chain
//   compute_apps  one Simulator run per request of 3DES or edge detection
//   campaign      one in-process fault campaign per request
//   service       one campaign per request through a live hlsavd
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One timed request.
struct Sample {
  /// Requests of one group share design, input size and engine (the
  /// "/interp" or "/compiled" suffix); end-to-end figures are taken per
  /// group.
  std::string group;
  double ms = 0.0;
  std::uint64_t cycles = 0;
  bool traced = false;
  std::size_t sites = 0;  // fault sites classified (campaigns only)
};

/// What a run accumulates. Layer figures are only recorded on traced
/// requests and in traced set-ups.
struct Results {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  /// Counts over the determinism prefix (the first blocks of requests,
  /// which every run with the same seed makes identically).
  std::uint64_t prefix_cycles = 0;
  std::uint64_t prefix_failures_decoded = 0;
  std::uint64_t prefix_zero_words = 0;
  /// Per-layer samples by metric name; the reported value is the median.
  std::map<std::string, std::vector<double>> layer;
  /// Per-layer values that are computed once per run.
  std::map<std::string, double> layer_value;
  /// Lines for the human-readable report.
  std::vector<std::string> notes;

  void fail(const std::string& why);
};

struct Context {
  SpanLog* spans = nullptr;
  std::uint64_t seed = 1;
  /// This run's scratch directory (JIT caches, design files, the
  /// daemon's work dir, spool and socket). A short relative path keeps
  /// the socket path within the unix-socket limit.
  std::string dir;
  std::string hlsavd;
  bool traced_run = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed requests need from nothing: inputs,
  /// the compile pipeline, cold JIT builds into an empty cache,
  /// references, the daemon. `rep` numbers the set-up repetitions so
  /// each gets its own directories; a new set-up discards the last.
  virtual void setup(const Context& ctx, int rep, Results& r) = 0;
  /// Requests in one balanced pass over every request group.
  [[nodiscard]] virtual std::size_t block() const = 0;
  /// Runs request `i` of the seeded sequence and records it.
  virtual void request(std::uint64_t i, bool traced, Results& r) = 0;
  /// Run-wide figures (daemon metrics), then stops what set-up started.
  virtual void finish(Results& r) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// The inner-loop campaign design: each of the 8 input words is summed
/// `inner` times, so faulted loop counters make long hang-timeout runs.
[[nodiscard]] std::string inner_loop_source(unsigned inner);

}  // namespace perfbench
