// The hlsav benchmark program: one workload per invocation, a single
// closed-loop client, every output checked against an oracle.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//
// Set-up runs three times from nothing (fresh JIT cache, fresh daemon)
// and setup_s is their median. Requests then run in balanced blocks until
// S seconds have passed. The last line of stdout is one JSON object:
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
// metrics. A traced run alternates traced and untraced blocks, so the
// tracing overhead is measured on the same inputs in the same run, and
// writes its spans to DIR/trace.json as Chrome trace-event JSON.
// Exit status: 0 when every output was correct, 1 otherwise, 2 on bad
// usage.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/chrometrace.h"
#include "spans.h"
#include "support/io.h"
#include "workloads.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif

namespace {

using perfbench::Results;
using perfbench::Sample;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t beyond = 0;
};

/// The highest whole percentile (nearest rank) with at least 10 samples
/// beyond it, capped at p95: this shared host slows down for seconds at a
/// time, which moves a p99 over thousands of short requests by 40%
/// between runs. p95 still lies inside the slowest request group.
Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Tail t;
  for (int p = 95; p >= 1; --p) {
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || rank > n || n - rank < 10) continue;
    t = {v[rank - 1], p, n - rank};
    break;
  }
  if (t.percentile == 0 && n > 0) t = {v[n - 1], 100, 0};  // too few samples for a tail
  return t;
}

/// Wall time per request group (median and mean) and its mean cycle
/// count (a zero-word request aborts early, so cycles vary a little).
struct Group {
  double median_ms = 0.0;
  double mean_ms = 0.0;
  double cycles = 0.0;
  std::size_t n = 0;
};

/// Groups of untraced (traced = 0), traced (1) or all (-1) samples.
std::map<std::string, Group> group_stats(const std::vector<Sample>& samples, int traced) {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, double> cycles;
  for (const Sample& s : samples) {
    if (traced >= 0 && s.traced != (traced == 1)) continue;
    ms[s.group].push_back(s.ms);
    cycles[s.group] += static_cast<double>(s.cycles);
  }
  std::map<std::string, Group> out;
  for (auto& [g, v] : ms) {
    double sum = 0.0;
    for (double x : v) sum += x;
    auto n = static_cast<double>(v.size());
    out[g] = {median(v), sum / n, cycles[g] / n, v.size()};
  }
  return out;
}

/// Simulated cycles per host second with each group weighted once: the
/// sum of group cycle counts over the sum of group mean times. Means,
/// not medians, because the host's speed switches between states
/// within a run, and a mean blends them where a median flips.
double cycles_per_s(const std::map<std::string, Group>& groups) {
  double cycles = 0.0, ms = 0.0;
  for (const auto& [g, s] : groups) {
    cycles += s.cycles;
    ms += s.mean_ms;
  }
  return ms > 0.0 ? cycles / (ms / 1e3) : 0.0;
}

std::string fmt(double v, int digits = 4) {
  std::ostringstream os;
  os.precision(digits);
  os << std::fixed << v;
  return os.str();
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string result_json(bool correct, const Results& r, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR\n"
               "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  constexpr int kSetups = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string a = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--dir") {
      dir = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  std::unique_ptr<perfbench::Workload> w = perfbench::make_workload(workload);
  if (argc % 2 != 1 || w == nullptr || dir.empty() || seconds <= 0.0 || trace < 0) {
    return usage();
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::cerr << "perfbench: cannot create " << dir << "\n";
    return 1;
  }

  perfbench::SpanLog spans(trace == 1);
  perfbench::Context ctx{&spans, seed, dir, HLSAVD_PATH, trace == 1};
  Results r;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> stage_ms;
  try {
    for (int rep = 0; rep < kSetups; ++rep) {
      spans.clear();
      std::uint64_t t0 = perfbench::now_ns();
      w->setup(ctx, rep, r);
      setup_s.push_back(static_cast<double>(perfbench::now_ns() - t0) / 1e9);
      std::map<std::string, double> sums;
      for (const perfbench::Span& s : spans.spans()) sums[s.name] += s.ms();
      for (const auto& [name, ms] : sums) stage_ms[name].push_back(ms);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    w->finish(r);
    return 1;
  }

  // Closed loop: whole blocks, so every group is equally represented,
  // until the time is up; at least two blocks, so a traced run has one
  // traced and one untraced block.
  const std::size_t block = w->block();
  const std::uint64_t deadline = perfbench::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t i = 0;
  for (;;) {
    bool traced = trace == 1 && (i / block) % 2 == 0;
    spans.set_enabled(traced);
    try {
      w->request(i, traced, r);
    } catch (const std::exception& e) {
      r.fail(e.what());
    }
    ++i;
    if (i % block == 0 && i >= 2 * block && perfbench::now_ns() >= deadline) break;
  }
  r.attempted = i;
  spans.set_enabled(trace == 1);
  w->finish(r);
  const std::vector<double>& c_bytes = r.layer["codegen.c_bytes"];
  if (std::adjacent_find(c_bytes.begin(), c_bytes.end(), std::not_equal_to<>()) != c_bytes.end()) {
    r.fail("generated C differs in size between set-ups");
  }
  if (workload == "stream_chain" && r.prefix_failures_decoded != r.prefix_zero_words) {
    r.fail("decoded " + std::to_string(r.prefix_failures_decoded) + " failures for " +
           std::to_string(r.prefix_zero_words) + " zero-word requests");
  }

  // ---- end-to-end figures (untraced requests only) ----
  std::vector<Sample> plain;
  for (const Sample& s : r.samples) {
    if (!s.traced) plain.push_back(s);
  }
  std::map<std::string, Group> groups = group_stats(plain, 0);
  std::vector<double> group_ms, all_ms;
  for (const auto& [g, s] : groups) group_ms.push_back(s.median_ms);
  for (const Sample& s : plain) all_ms.push_back(s.ms);
  Tail tail = tail_of(all_ms);

  std::vector<Metric> e2e = {
      {"setup_s", "s", median(setup_s)},
      {"request_ms_p50", "ms", geomean(group_ms)},
      {"request_ms_tail", "ms", tail.value},
      {"cycles_per_s", "cycles/s", cycles_per_s(groups)},
      {"peak_rss_mb", "MB", peak_rss_mb(RUSAGE_SELF)},
  };

  std::cout << "workload " << workload << ", seed " << seed << ", " << r.attempted
            << " requests in blocks of " << block << ", " << kSetups << " set-ups\n";
  for (const std::string& n : r.notes) std::cout << "  " << n << "\n";
  for (const std::string& e : r.errors) std::cout << "  FAILED: " << e << "\n";

  std::vector<Metric> out;
  if (trace == 0) {
    std::cout << "\nrequest groups (untraced requests)\n";
    std::printf("  %-36s %6s %12s %12s %14s\n", "group", "n", "median ms", "mean ms", "cycles/s");
    for (const auto& [g, s] : groups) {
      std::printf("  %-36s %6zu %12.4f %12.4f %14.0f\n", g.c_str(), s.n, s.median_ms, s.mean_ms,
                  s.mean_ms > 0 ? s.cycles / (s.mean_ms / 1e3) : 0.0);
    }
    std::map<std::string, Group> interp, compiled;
    for (const auto& [g, s] : groups) {
      if (g.size() > 7 && g.compare(g.size() - 7, 7, "/interp") == 0) interp[g] = s;
      if (g.size() > 9 && g.compare(g.size() - 9, 9, "/compiled") == 0) compiled[g] = s;
    }
    std::cout << "\nend-to-end (" << workload << ")\n";
    for (const Metric& m : e2e) {
      std::printf("  %-24s %18s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
    }
    std::printf("  %-24s %18s (p%d, %zu samples beyond it, %zu requests)\n", "tail percentile",
                "", tail.percentile, tail.beyond, all_ms.size());
    if (!interp.empty()) {
      std::printf("  %-24s %18s cycles/s\n", "interp_cycles_per_s",
                  fmt(cycles_per_s(interp)).c_str());
      std::printf("  %-24s %18s cycles/s\n", "compiled_cycles_per_s",
                  fmt(cycles_per_s(compiled)).c_str());
    }
    double sites = 0.0, sites_ms = 0.0;
    for (const Sample& x : plain) {
      if (x.sites == 0) continue;
      sites += static_cast<double>(x.sites);
      sites_ms += x.ms;
    }
    if (sites_ms > 0.0) {
      std::printf("  %-24s %18s sites/s\n", "sites_per_s", fmt(sites / (sites_ms / 1e3)).c_str());
    }
    std::printf("  %-24s %18s ratio\n", "failed_ratio",
                fmt(static_cast<double>(r.failed) / static_cast<double>(r.attempted)).c_str());
    std::printf("  %-24s %18s MB (largest reaped child)\n", "children_peak_rss_mb",
                fmt(peak_rss_mb(RUSAGE_CHILDREN)).c_str());
    out = e2e;
  } else {
    // ---- per-layer figures (traced run) ----
    auto med = [&](const std::string& name) { return median(r.layer[name]); };
    auto stage = [&](const std::string& span) { return median(stage_ms[span]); };
    std::map<std::string, Group> on = group_stats(r.samples, 1), off = group_stats(r.samples, 0);
    double on_ms = 0.0, off_ms = 0.0;
    for (const auto& [g, s] : on) {
      auto it = off.find(g);
      if (it == off.end()) continue;
      on_ms += s.median_ms;
      off_ms += it->second.median_ms;
    }
    out = {
        {"lang.parse_ms", "ms", stage("lang.parse")},
        {"lang.sema_ms", "ms", stage("lang.sema")},
        {"ir.lower_ms", "ms", stage("ir.lower")},
        {"assertions.synthesize_ms", "ms", stage("assertions.synthesize")},
        {"sched.schedule_ms", "ms", stage("sched.schedule")},
        {"codegen.emit_ms", "ms", stage("codegen.emit")},
        {"codegen.jit_cold_ms", "ms", stage("codegen.jit_cold")},
        {"codegen.jit_warm_ms", "ms", stage("codegen.jit_warm")},
        {"codegen.c_bytes", "bytes", med("codegen.c_bytes")},
        {"sim.golden_ms", "ms", med("sim.golden_ms")},
        {"sim.construct_us", "us", med("sim.construct_us")},
        {"sim.run_ms", "ms", med("sim.run_ms")},
        {"sim.interp_ns_per_cycle", "ns", med("sim.interp_ns_per_cycle")},
        {"sim.compiled_ns_per_cycle", "ns", med("sim.compiled_ns_per_cycle")},
        {"sim.engine_active_ratio", "ratio", med("sim.engine_active_ratio")},
        {"sim.cycles", "count", static_cast<double>(r.prefix_cycles)},
        {"assertions.failures_decoded", "count",
         static_cast<double>(r.prefix_failures_decoded)},
        {"trace.overhead_ratio", "ratio", off_ms > 0.0 ? on_ms / off_ms : 0.0},
    };
    std::cout << "\nper-layer (" << workload << ", traced blocks; medians)\n";
    for (const Metric& m : out) {
      std::printf("  %-34s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
    }
    std::cout << "\nworkload-specific layer figures\n";
    for (const auto& [name, v] : r.layer) {
      bool listed = std::any_of(out.begin(), out.end(), [&](const Metric& m) { return m.name == name; });
      if (listed || v.empty()) continue;
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      std::printf("  %-44s p50 %12s  max %12s  (n=%zu)\n", name.c_str(), fmt(median(v)).c_str(),
                  fmt(sorted.back()).c_str(), v.size());
    }
    for (const auto& [name, v] : r.layer_value) {
      std::printf("  %-44s %16s\n", name.c_str(), fmt(v).c_str());
    }

    std::vector<perfbench::Span> all = spans.spans();
    std::cout << "\nself time by span (last set-up and traced requests)\n";
    for (const auto& [name, ms] : perfbench::self_time_ms(all)) {
      std::printf("  %-34s %14s ms\n", name.c_str(), fmt(ms).c_str());
    }
    std::string trace_path = dir + "/trace.json";
    hlsav::Status st = hlsav::write_file_atomic(trace_path, perfbench::chrome_trace_json(all));
    hlsav::metrics::ChromeTraceCheck check =
        st.ok() ? hlsav::metrics::validate_chrome_trace_file(trace_path)
                : hlsav::metrics::ChromeTraceCheck{false, st.to_string(), 0};
    if (!check.ok) r.fail("trace " + trace_path + ": " + check.error);
    std::cout << "trace: " << trace_path << " (" << check.events << " events"
              << (check.ok ? ", valid" : ", INVALID: " + check.error) << ")\n";
  }

  std::cout << result_json(r.failed == 0, r, out) << std::endl;
  return r.failed == 0 ? 0 : 1;
}
