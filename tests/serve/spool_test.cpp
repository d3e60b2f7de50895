// Write-ahead job spool (serve/spool.h): header/state round trips, the
// crash-shaped load edge cases -- header-only entries, torn tails,
// duplicate keys across incarnations, unreadable entries -- and
// ENOSPC/EIO/fsync failures injected through the append log's hooks.
#include "serve/spool.h"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "support/append_log.h"

namespace hlsav::serve {
namespace {

std::string fresh_dir(const std::string& name) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "spool_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

SpoolEntry entry(std::uint64_t job, const std::string& key) {
  SpoolEntry e;
  e.job = job;
  e.key = key;
  e.submit_line = "{\"type\":\"submit\",\"design\":\"d.c\",\"key\":\"" + key + "\"}";
  e.priority = 2;
  e.deadline_ms = 1500;
  e.submitted_unix_ms = 1754600000000ull;
  return e;
}

TEST(Spool, EmptyDirectoryScansToNothing) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("empty"));
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  EXPECT_TRUE(scan->entries.empty());
  EXPECT_EQ(scan->quarantined, 0u);
  EXPECT_EQ(scan->torn_tails, 0u);
}

TEST(Spool, AcceptedThenStateTransitionsRoundTrip) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("roundtrip"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(3, "key-a")).ok());
  ASSERT_TRUE(spool->record_state(3, "running").ok());
  ASSERT_TRUE(spool->record_state(3, "done").ok());

  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  const SpoolEntry& e = scan->entries[0];
  EXPECT_EQ(e.job, 3u);
  EXPECT_EQ(e.key, "key-a");
  EXPECT_EQ(e.submit_line, entry(3, "key-a").submit_line);
  EXPECT_EQ(e.priority, 2);
  EXPECT_EQ(e.deadline_ms, 1500u);
  EXPECT_EQ(e.submitted_unix_ms, 1754600000000ull);
  EXPECT_EQ(e.state, "done");
  EXPECT_TRUE(e.terminal());
}

TEST(Spool, HeaderOnlyEntryIsAQueuedJob) {
  // The daemon died between spooling and running: no state record at
  // all. Recovery must treat that as queued, not as corruption.
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("headeronly"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(1, "key-h")).ok());
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "queued");
  EXPECT_FALSE(scan->entries[0].terminal());
}

TEST(Spool, TornTailRecordIsTruncatedAwayNotFatal) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("torn"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(5, "key-t")).ok());
  ASSERT_TRUE(spool->record_state(5, "running").ok());
  StatusOr<SpoolScan> before = spool->scan();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->entries.size(), 1u);
  const std::string path = before->entries[0].path;
  const std::string intact = slurp(path);

  // A crash mid-append leaves half a record (newline present but the
  // JSON mangled): the loader must keep "running" and drop the tail.
  append_raw(path, "{\"type\":\"st\",\"sta");
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "running");
  EXPECT_EQ(scan->torn_tails, 1u);
  // Truncated back to the durable prefix, so the next append is clean.
  EXPECT_EQ(slurp(path), intact);
  ASSERT_TRUE(spool->record_state(5, "done").ok());
  StatusOr<SpoolScan> after = spool->scan();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->entries.size(), 1u);
  EXPECT_EQ(after->entries[0].state, "done");
  EXPECT_EQ(after->torn_tails, 0u);
}

TEST(Spool, DuplicateKeysAcrossIncarnationsAllLoad) {
  // Two incarnations of the daemon may have spooled different jobs
  // under the same idempotency key (e.g. a requeue after a crash).
  // The spool itself loads both, sorted by job id -- first-wins policy
  // belongs to the service layer, not the loader.
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("dupkeys"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(9, "shared-key")).ok());
  ASSERT_TRUE(spool->record_accepted(entry(2, "shared-key")).ok());
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->entries.size(), 2u);
  EXPECT_EQ(scan->entries[0].job, 2u);
  EXPECT_EQ(scan->entries[1].job, 9u);
  EXPECT_EQ(scan->entries[0].key, scan->entries[1].key);
}

TEST(Spool, CorruptEntryIsQuarantinedWithAReasonNeverABootFailure) {
  std::string dir = fresh_dir("corrupt");
  StatusOr<JobSpool> spool = JobSpool::open(dir);
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(1, "key-ok")).ok());
  {
    std::ofstream bad(dir + "/job_00000002.spool", std::ios::binary);
    bad << "this is not a spool header\n{\"type\":\"st\",\"state\":\"running\"}\n";
  }
  {
    std::ofstream headerless(dir + "/job_00000003.spool", std::ios::binary);
    headerless << "no newline at all";
  }
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].key, "key-ok");
  EXPECT_EQ(scan->quarantined, 2u);
  // Both bad entries moved aside with a reason, out of future scans.
  EXPECT_FALSE(std::filesystem::exists(dir + "/job_00000002.spool"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/job_00000002.spool"));
  std::string reason = slurp(dir + "/quarantine/job_00000002.spool.reason");
  EXPECT_NE(reason.find("header"), std::string::npos) << reason;
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/job_00000003.spool"));
  StatusOr<SpoolScan> again = spool->scan();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->quarantined, 0u);
  EXPECT_EQ(again->entries.size(), 1u);
}

TEST(Spool, TempSiblingsAndForeignFilesAreIgnored) {
  std::string dir = fresh_dir("foreign");
  StatusOr<JobSpool> spool = JobSpool::open(dir);
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(4, "key-f")).ok());
  {
    std::ofstream tmp(dir + "/job_00000005.spool.tmp123", std::ios::binary);
    tmp << "interrupted atomic write";
  }
  {
    std::ofstream notes(dir + "/README", std::ios::binary);
    notes << "hands off";
  }
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->quarantined, 0u);
}

TEST(Spool, TerminalStateVocabulary) {
  for (const char* s : {"done", "error", "aborted", "drained", "deadline-expired"}) {
    EXPECT_TRUE(JobSpool::state_terminal(s)) << s;
  }
  for (const char* s : {"queued", "running", "merging", ""}) {
    EXPECT_FALSE(JobSpool::state_terminal(s)) << s;
  }
}

// ------------------------------------------------- IO fault injection --

ssize_t enospc_write(int, const void*, std::size_t) {
  errno = ENOSPC;
  return -1;
}

int g_writes = 0;  // writes seen by short_then_eio_write

ssize_t short_then_eio_write(int fd, const void* buf, std::size_t count) {
  if (g_writes++ == 0) return ::write(fd, buf, count > 4 ? 4 : count);  // short write, then...
  errno = EIO;
  return -1;
}

int failing_fsync(int) {
  errno = EIO;
  return -1;
}

struct HookGuard {
  explicit HookGuard(const AppendLogIoHooks* hooks) { set_append_log_io_hooks_for_test(hooks); }
  ~HookGuard() { set_append_log_io_hooks_for_test(nullptr); }
};

/// A spool holding job 7 in state "running": the durable prefix every
/// failed transition below must leave loadable.
struct RunningJob {
  std::string dir;
  std::string path;
  std::string intact;  // entry bytes before the failing transition
  std::optional<JobSpool> spool;
};

RunningJob running_job(const std::string& name) {
  RunningJob j;
  j.dir = fresh_dir(name);
  StatusOr<JobSpool> spool = JobSpool::open(j.dir);
  EXPECT_TRUE(spool.ok()) << spool.status().to_string();
  if (!spool.ok()) return j;
  j.spool.emplace(*spool);
  EXPECT_TRUE(j.spool->record_accepted(entry(7, "key-io")).ok());
  EXPECT_TRUE(j.spool->record_state(7, "running").ok());
  j.path = j.dir + "/job_00000007.spool";
  j.intact = slurp(j.path);
  return j;
}

TEST(Spool, RecordStateEnospcIsAnIoErrorNamingTheEntry) {
  RunningJob j = running_job("enospc");
  ASSERT_TRUE(j.spool.has_value());
  static AppendLogIoHooks hooks{enospc_write, nullptr};
  Status st;
  {
    HookGuard guard(&hooks);
    st = j.spool->record_state(7, "done");
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(j.path), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("No space left on device"), std::string::npos) << st.message();

  // Nothing reached the file: the entry loads as it was.
  StatusOr<SpoolScan> scan = j.spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "running");
  EXPECT_EQ(scan->torn_tails, 0u);
  EXPECT_EQ(slurp(j.path), j.intact);
}

TEST(Spool, RecordStateShortWriteThenEioLeavesATailScanTruncates) {
  RunningJob j = running_job("eio");
  ASSERT_TRUE(j.spool.has_value());
  static AppendLogIoHooks hooks{short_then_eio_write, nullptr};
  g_writes = 0;
  Status st;
  {
    HookGuard guard(&hooks);
    st = j.spool->record_state(7, "done");
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(j.path), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("Input/output error"), std::string::npos) << st.message();
  EXPECT_EQ(slurp(j.path).size(), j.intact.size() + 4);  // the short write landed

  // The torn record is dropped and the file cut back to its durable
  // prefix, so the next transition appends cleanly.
  StatusOr<SpoolScan> scan = j.spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "running");
  EXPECT_EQ(scan->torn_tails, 1u);
  EXPECT_EQ(slurp(j.path), j.intact);
  ASSERT_TRUE(j.spool->record_state(7, "done").ok());
  StatusOr<SpoolScan> after = j.spool->scan();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->entries.size(), 1u);
  EXPECT_EQ(after->entries[0].state, "done");
}

TEST(Spool, RecordStateFsyncFailureIsAnIoErrorNamingTheEntry) {
  RunningJob j = running_job("fsync");
  ASSERT_TRUE(j.spool.has_value());
  static AppendLogIoHooks hooks{nullptr, failing_fsync};
  Status st;
  {
    HookGuard guard(&hooks);
    st = j.spool->record_state(7, "done");
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(j.path), std::string::npos) << st.message();

  // The whole record was written before its fsync failed, so there is
  // no torn tail: the entry loads with the complete record.
  StatusOr<SpoolScan> scan = j.spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->torn_tails, 0u);
  EXPECT_EQ(scan->entries[0].state, "done");
  EXPECT_EQ(slurp(j.path).compare(0, j.intact.size(), j.intact), 0);
}

}  // namespace
}  // namespace hlsav::serve
