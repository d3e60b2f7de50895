// The benchmark's own tests:
//  * a threads=4 campaign yields exactly one start and one done per
//    site, each inside the campaign span, with the site spans recorded
//    under the benchmark's lock (site_sink runs on pool threads
//    concurrently);
//  * a span's self time is its duration minus what its children cover.
// Exit status 0 when every check holds.
#include <iostream>
#include <string>

#include "pipeline/compile.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "spans.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++g_failures;
  }
}

void site_spans_of_a_parallel_campaign() {
  using namespace hlsav;
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  StatusOr<pipeline::Compiled> c =
      pipeline::compile_source(sm, diags, "inner.c", perfbench::inner_loop_source(500));
  expect(c.ok(), "inner-loop design compiles");
  if (!c.ok()) return;
  std::map<std::string, std::vector<std::uint64_t>> feeds = {{"f.in", {1, 2, 3, 4, 5, 6, 7, 8}}};

  perfbench::SpanLog log(true);
  std::int64_t campaign = log.begin("sim.campaign");
  perfbench::SiteSpans sites(log, campaign, 0);
  sim::CampaignOptions opt;
  opt.threads = 4;
  opt.site_start_hook = [&sites](std::uint32_t id) { sites.start(id); };
  opt.site_sink = [&sites](const sim::FaultResult& f) { sites.done(f.site.id, f.cycles); };
  StatusOr<sim::CampaignReport> rep =
      sim::run_campaign_st(c->design, c->schedule, sim::ExternRegistry{}, feeds, opt);
  log.end(campaign);
  expect(rep.ok(), "campaign runs");
  if (!rep.ok()) return;
  expect(rep->threads == 4, "campaign used 4 threads");

  std::vector<perfbench::Span> spans = log.spans();
  const perfbench::Span& outer = spans.at(static_cast<std::size_t>(campaign));
  std::map<std::uint32_t, perfbench::SiteSpans::Site> got = sites.sites();
  expect(got.size() == rep->results.size(), "one record per site");
  for (const sim::FaultResult& f : rep->results) {
    auto it = got.find(f.site.id);
    std::string site = "site s" + std::to_string(f.site.id);
    expect(it != got.end(), site + " recorded");
    if (it == got.end()) continue;
    expect(it->second.starts == 1 && it->second.dones == 1, site + " one start and one done");
    expect(it->second.begin_ns >= outer.begin_ns && it->second.end_ns <= outer.end_ns &&
               it->second.begin_ns <= it->second.end_ns,
           site + " inside the campaign span");
    expect(it->second.cycles == f.cycles, site + " cycles match the report");
  }
  std::size_t site_spans = 0;
  for (const perfbench::Span& s : spans) {
    if (s.name != "sim.site") continue;
    ++site_spans;
    expect(s.parent == campaign, "site span's parent is the campaign span");
  }
  expect(site_spans == rep->results.size(), "one sim.site span per site");
}

void self_time_subtracts_covered_children() {
  std::vector<perfbench::Span> spans = {
      {"outer", 0, 10'000'000, 1, -1, 0},
      {"a", 2'000'000, 5'000'000, 1, 0, 0},
      {"b", 4'000'000, 7'000'000, 2, 0, 0},  // overlaps a: covered once
      {"c", 9'000'000, 12'000'000, 1, 0, 0},  // clipped at the parent's end
  };
  std::map<std::string, double> self = perfbench::self_time_ms(spans);
  expect(self["outer"] == 4.0, "outer self time is 10 - (5 + 1) ms");
  expect(self["a"] == 3.0 && self["c"] == 3.0, "leaf self time is its duration");
}

}  // namespace

int main() {
  site_spans_of_a_parallel_campaign();
  self_time_subtracts_covered_children();
  if (g_failures == 0) std::cout << "perfbench self-test: ok\n";
  return g_failures == 0 ? 0 : 1;
}
