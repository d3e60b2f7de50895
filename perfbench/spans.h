// In-memory span log for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's side of each call into
// the library; nothing inside src/ is instrumented. A span has a name
// (the layer call, e.g. "sim.run"), start and end on the steady clock,
// the thread that recorded it, the span that caused it and the request
// it belongs to. Spans stay in memory and are written once, at the end,
// as Chrome trace-event JSON that `hlsavc checktrace` accepts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
[[nodiscard]] std::uint64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::int64_t parent = -1;  // index of the causing span, -1 = none
  std::uint64_t request = 0;

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - begin_ns) / 1e6; }
};

/// Thread-safe span recorder. While disabled every call is a no-op, so
/// untraced requests pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switched between requests only, never while a span is open.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; its parent is the innermost
  /// span this thread has open. Returns the span's id (-1 if disabled).
  std::int64_t begin(std::string name, std::uint64_t request = 0);
  /// Closes a span opened by begin() on the same thread.
  void end(std::int64_t id);
  /// Records a finished span, e.g. one whose ends were seen on
  /// different callbacks.
  void add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns, std::int64_t parent,
           std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Drops every span (set-up repetitions keep only the last one's).
  void clear();

 private:
  [[nodiscard]] std::uint32_t thread_index();

  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

/// RAII span: begin() on construction, end() on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, std::uint64_t request = 0)
      : log_(log), id_(log.begin(std::move(name), request)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

/// Campaign site spans from CampaignOptions::site_start_hook and
/// site_sink. Both run on pool threads at the same time, and site_sink
/// is not serialized by the library, so every access takes this
/// object's lock.
class SiteSpans {
 public:
  SiteSpans(SpanLog& log, std::int64_t parent, std::uint64_t request)
      : log_(log), parent_(parent), request_(request) {}

  void start(std::uint32_t site);
  void done(std::uint32_t site, std::uint64_t cycles);

  struct Site {
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t cycles = 0;
    unsigned starts = 0;
    unsigned dones = 0;
  };
  /// Per-site record (by site id) once the campaign has returned.
  [[nodiscard]] std::map<std::uint32_t, Site> sites() const;

 private:
  SpanLog& log_;
  const std::int64_t parent_;
  const std::uint64_t request_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, Site> sites_;
};

/// Self time per span name: each span's duration minus the part of it
/// that its child spans cover, summed by name, in milliseconds.
[[nodiscard]] std::map<std::string, double> self_time_ms(const std::vector<Span>& spans);

/// Chrome trace-event JSON of the spans (one track per recording thread).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
