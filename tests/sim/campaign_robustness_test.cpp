// Robustness surface of run_campaign_st: shard filters, cooperative
// cancellation, per-site hooks, and journal IO-failure containment via
// the append log's injectable write/fsync hooks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/campaign.h"
#include "sim/journal.h"
#include "support/append_log.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

struct H {
  ir::Design design;
  sched::DesignSchedule schedule;
  ExternRegistry externs;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
};

H make_clamp() {
  auto c = compile(R"(
    void clamp(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 6; i++) {
        uint32 v = stream_read(in);
        uint32 y = v;
        if (y > 255) { y = 255; }
        assert(y <= 255);
        stream_write(out, y);
      }
    }
  )");
  H h;
  h.design = c->design.clone();
  assertions::synthesize(h.design, assertions::Options::optimized());
  ir::verify(h.design);
  h.schedule = sched::schedule_design(h.design);
  h.feeds = {{"clamp.in", {1, 2, 3, 300, 5, 6}}};
  return h;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

TEST(CampaignRobustness, OnlySitesRestrictsTheSweepToTheShard) {
  H h = make_clamp();
  CampaignOptions full;
  StatusOr<CampaignReport> all =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, full);
  ASSERT_TRUE(all.ok()) << all.status().to_string();
  ASSERT_GE(all->results.size(), 3u);

  CampaignOptions shard;
  shard.only_sites = {all->results[0].site.id, all->results[2].site.id};
  StatusOr<CampaignReport> part =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, shard);
  ASSERT_TRUE(part.ok()) << part.status().to_string();
  ASSERT_EQ(part->results.size(), 2u);
  // Shard results are the same classifications the full sweep produced:
  // the shard boundary never changes an outcome.
  EXPECT_EQ(part->results[0].site.id, all->results[0].site.id);
  EXPECT_EQ(part->results[0].outcome, all->results[0].outcome);
  EXPECT_EQ(part->results[1].site.id, all->results[2].site.id);
  EXPECT_EQ(part->results[1].outcome, all->results[2].outcome);
  // sites_total stays the full campaign's count -- shard journals must
  // carry the full-campaign identity.
  EXPECT_EQ(part->sites_total, all->sites_total);
}

TEST(CampaignRobustness, OnlySitesOutsideTheSampleIsInvalid) {
  H h = make_clamp();
  CampaignOptions opt;
  opt.only_sites = {1u << 30};
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignRobustness, CancelMidSweepReturnsInterruptedPartial) {
  H h = make_clamp();
  std::atomic<bool> cancel{false};
  std::atomic<int> started{0};
  CampaignOptions opt;
  opt.cancel = &cancel;
  // Trip the flag from inside the sweep: after two sites have started,
  // no further site may start.
  opt.site_start_hook = [&](std::uint32_t) {
    if (++started == 2) cancel = true;
  };
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->interrupted);
  EXPECT_EQ(r->results.size(), 2u);
  EXPECT_GT(r->sites_total, r->results.size());
}

TEST(CampaignRobustness, SiteSinkFiresOncePerSiteAfterJournaling) {
  H h = make_clamp();
  std::string journal = temp_path("sink.jsonl");
  std::vector<std::uint32_t> started, sunk;
  CampaignOptions opt;
  opt.journal = journal;
  opt.site_start_hook = [&](std::uint32_t id) { started.push_back(id); };
  opt.site_sink = [&](const FaultResult& r) {
    sunk.push_back(r.site.id);
    // The sink contract: by the time it fires, the site is durable.
    StatusOr<JournalContents> j = load_journal(journal);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j->results.count(r.site.id), 1u);
  };
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(started.size(), r->results.size());
  EXPECT_EQ(sunk.size(), r->results.size());
  EXPECT_EQ(started, sunk);  // serial sweep: start order == journal order
}

TEST(CampaignRobustness, SiteSinkCallsNeverOverlapWithoutAJournal) {
  // No journal append to serialize on: the sweep's own lock must still
  // keep a parallel pool's sink calls from overlapping.
  H h = make_clamp();
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::atomic<std::size_t> calls{0};
  CampaignOptions opt;
  opt.threads = 4;
  opt.site_sink = [&](const FaultResult&) {
    if (inside.fetch_add(1) != 0) overlapped = true;
    // Hold the sink open long enough for other workers to finish a site.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ++calls;
    inside.fetch_sub(1);
  };
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->threads, 4u);
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(calls.load(), r->results.size());
}

TEST(CampaignRobustness, ResumedSitesDoNotRefireTheSink) {
  H h = make_clamp();
  std::string journal = temp_path("resink.jsonl");
  CampaignOptions first;
  first.journal = journal;
  StatusOr<CampaignReport> a =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, first);
  ASSERT_TRUE(a.ok());

  int sunk = 0;
  CampaignOptions again;
  again.journal = journal;
  again.resume = true;
  again.site_sink = [&](const FaultResult&) { ++sunk; };
  StatusOr<CampaignReport> b =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, again);
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  EXPECT_EQ(sunk, 0);  // everything was restored, nothing freshly run
  EXPECT_EQ(b->results.size(), a->results.size());
}

// ---------------------------------------------- journal IO fault injection --

ssize_t enospc_write(int, const void*, std::size_t) {
  errno = ENOSPC;
  return -1;
}

ssize_t short_then_eio_write(int fd, const void* buf, std::size_t count) {
  static thread_local bool first = true;
  if (first) {
    first = false;
    return ::write(fd, buf, count > 4 ? 4 : count);  // short write, then...
  }
  errno = EIO;
  return -1;
}

int failing_fsync(int) {
  errno = EIO;
  return -1;
}

using JournalIoHooks = AppendLogIoHooks;

struct HookGuard {
  explicit HookGuard(const JournalIoHooks* hooks) { set_append_log_io_hooks_for_test(hooks); }
  ~HookGuard() { set_append_log_io_hooks_for_test(nullptr); }
};

TEST(CampaignRobustness, JournalEnospcSurfacesAsStatusNamingThePath) {
  H h = make_clamp();
  std::string journal = temp_path("enospc.jsonl");
  static JournalIoHooks hooks{enospc_write, nullptr};
  HookGuard guard(&hooks);

  CampaignOptions opt;
  opt.journal = journal;
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  // The operator needs to know *which* file and *why*: path + errno text.
  EXPECT_NE(r.status().message().find(journal), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("No space left on device"), std::string::npos)
      << r.status().message();
}

TEST(CampaignRobustness, JournalShortWriteThenEioIsContained) {
  H h = make_clamp();
  std::string journal = temp_path("eio.jsonl");
  static JournalIoHooks hooks{short_then_eio_write, nullptr};
  HookGuard guard(&hooks);

  CampaignOptions opt;
  opt.journal = journal;
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("Input/output error"), std::string::npos)
      << r.status().message();
}

TEST(CampaignRobustness, JournalFsyncFailureIsAnErrorNotSilentDataLoss) {
  H h = make_clamp();
  std::string journal = temp_path("fsyncfail.jsonl");
  static JournalIoHooks hooks{nullptr, failing_fsync};
  HookGuard guard(&hooks);

  CampaignOptions opt;
  opt.journal = journal;
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find(journal), std::string::npos)
      << r.status().message();
}

TEST(CampaignRobustness, UnopenableJournalDirectoryIsATypedError) {
  H h = make_clamp();
  CampaignOptions opt;
  opt.journal = "/nonexistent-dir-zzz/campaign.jsonl";
  StatusOr<CampaignReport> r =
      run_campaign_st(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("/nonexistent-dir-zzz/campaign.jsonl"),
            std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace hlsav::sim
