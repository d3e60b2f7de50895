#include "spans.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "metrics/chrometrace.h"

namespace perfbench {

namespace {
// Spans this thread has open, innermost last (the parent of the next).
thread_local std::vector<std::int64_t> t_open;
}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint32_t SpanLog::thread_index() {
  std::uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto [it, inserted] =
      thread_ids_.emplace(key, static_cast<std::uint32_t>(thread_ids_.size() + 1));
  return it->second;
}

std::int64_t SpanLog::begin(std::string name, std::uint64_t request) {
  if (!enabled()) return -1;
  std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{std::move(name), t, t, thread_index(), parent, request});
  t_open.push_back(id);
  return id;
}

void SpanLog::end(std::int64_t id) {
  if (id < 0) return;
  std::uint64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void SpanLog::add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
                  std::int64_t parent, std::uint64_t request) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), begin_ns, end_ns, thread_index(), parent, request});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void SiteSpans::start(std::uint32_t site) {
  std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = sites_[site];
  s.begin_ns = t;
  ++s.starts;
}

void SiteSpans::done(std::uint32_t site, std::uint64_t cycles) {
  std::uint64_t t = now_ns();
  std::uint64_t begin = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Site& s = sites_[site];
    s.end_ns = t;
    s.cycles = cycles;
    ++s.dones;
    begin = s.begin_ns;
  }
  log_.add("sim.site", begin, t, parent_, request_);
}

std::map<std::uint32_t, SiteSpans::Site> SiteSpans::sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_;
}

std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t c : children[i]) {
      std::uint64_t b = std::max(spans[c].begin_ns, spans[i].begin_ns);
      std::uint64_t e = std::min(spans[c].end_ns, spans[i].end_ns);
      if (b < e) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_b = 0, cur_e = 0;
    for (auto [b, e] : iv) {
      if (b > cur_e) {
        covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    covered += cur_e - cur_b;
    std::uint64_t dur = spans[i].end_ns - spans[i].begin_ns;
    self[spans[i].name] += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return self;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::uint64_t epoch = UINT64_MAX;
  for (const Span& s : spans) epoch = std::min(epoch, s.begin_ns);
  std::vector<hlsav::metrics::TraceEvent> events;
  hlsav::metrics::TraceEvent proc;
  proc.ph = 'M';
  proc.name = "process_name";
  proc.label = "perfbench";
  events.push_back(proc);
  for (const Span& s : spans) {
    hlsav::metrics::TraceEvent e;
    e.ph = 'X';
    e.tid = s.tid;
    e.name = s.name;
    e.ts_us = (s.begin_ns - epoch) / 1000;
    e.dur_us = (s.end_ns - s.begin_ns) / 1000;
    events.push_back(std::move(e));
  }
  std::ostringstream os;
  hlsav::metrics::write_trace_events(events, os);
  return os.str();
}

}  // namespace perfbench
