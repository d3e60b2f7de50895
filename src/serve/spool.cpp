#include "serve/spool.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "support/append_log.h"
#include "support/io.h"
#include "support/jsonl.h"

namespace hlsav::serve {

namespace {

Status make_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::ok_status();
  return Status::io_error("cannot create directory '" + dir + "': " + std::strerror(errno));
}

/// Parses the spool header line into `e`. False on any malformed or
/// missing field -- the caller quarantines the whole entry.
bool parse_header(const std::string& line, SpoolEntry& e) {
  std::string type;
  if (!jsonl::parse_string(line, "type", type) || type != "spool") return false;
  if (!jsonl::parse_u64(line, "job", e.job)) return false;
  if (!jsonl::parse_string(line, "key", e.key) || e.key.empty()) return false;
  if (!jsonl::parse_string(line, "submit", e.submit_line) || e.submit_line.empty()) return false;
  double prio = 0.0;
  if (!jsonl::parse_double(line, "priority", prio)) return false;
  e.priority = static_cast<int>(prio);
  if (!jsonl::parse_u64(line, "deadline_ms", e.deadline_ms)) return false;
  if (!jsonl::parse_u64(line, "submitted_unix_ms", e.submitted_unix_ms)) return false;
  return true;
}

/// Parses one state record. False = torn/corrupt: stop and truncate.
bool parse_state_record(const std::string& line, SpoolEntry& e) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string type;
  if (!jsonl::parse_string(line, "type", type) || type != "st") return false;
  std::string state;
  if (!jsonl::parse_string(line, "state", state) || state.empty()) return false;
  e.state = std::move(state);
  e.detail.clear();
  (void)jsonl::parse_string(line, "detail", e.detail);
  return true;
}

/// Moves an unreadable entry into <dir>/quarantine/ with a sibling
/// .reason file. Best-effort by design: the scan must never fail boot.
void quarantine_entry(const std::string& dir, const std::string& path,
                      const std::string& reason) {
  std::string qdir = dir + "/quarantine";
  (void)make_dir(qdir);
  std::string name = path.substr(path.find_last_of('/') + 1);
  std::string dest = qdir + "/" + name;
  if (std::rename(path.c_str(), dest.c_str()) != 0) {
    (void)::unlink(path.c_str());  // cannot even move it: get it out of the scan
    return;
  }
  (void)write_file_atomic(dest + ".reason", reason + "\n");
}

}  // namespace

bool SpoolEntry::terminal() const { return JobSpool::state_terminal(state); }

bool JobSpool::state_terminal(const std::string& state) {
  return state == "done" || state == "error" || state == "aborted" || state == "drained" ||
         state == "deadline-expired";
}

StatusOr<JobSpool> JobSpool::open(std::string dir) {
  if (dir.empty()) return Status::invalid_argument("spool directory path is empty");
  HLSAV_RETURN_IF_ERROR(make_dir(dir));
  return JobSpool(std::move(dir));
}

std::string JobSpool::entry_path(std::uint64_t job) const {
  char name[32];
  std::snprintf(name, sizeof name, "job_%08llu.spool", static_cast<unsigned long long>(job));
  return dir_ + "/" + name;
}

Status JobSpool::record_accepted(const SpoolEntry& entry) const {
  std::string line = "{\"type\":\"spool\",\"v\":1,\"job\":" + std::to_string(entry.job);
  line += ",\"key\":";
  jsonl::append_escaped(line, entry.key);
  line += ",\"priority\":" + std::to_string(entry.priority);
  line += ",\"deadline_ms\":" + std::to_string(entry.deadline_ms);
  line += ",\"submitted_unix_ms\":" + std::to_string(entry.submitted_unix_ms);
  // The submit line nests as an escaped string: every quote inside is
  // backslash-prefixed, so flat key lookup over this line stays
  // unambiguous.
  line += ",\"submit\":";
  jsonl::append_escaped(line, entry.submit_line);
  line += '}';
  // create() returns only once the header and the directory entry are
  // both durable: the accept promise may go out.
  return AppendLog::create(entry_path(entry.job), line).status();
}

Status JobSpool::record_state(std::uint64_t job, const std::string& state,
                              const std::string& detail) const {
  std::string line = "{\"type\":\"st\",\"state\":";
  jsonl::append_escaped(line, state);
  if (!detail.empty()) {
    line += ",\"detail\":";
    jsonl::append_escaped(line, detail);
  }
  line += '}';
  // Durable before anyone acts on the transition: recovery trusts
  // every complete record.
  StatusOr<AppendLog> log = AppendLog::reopen(entry_path(job));
  if (!log.ok()) return log.status();
  return log->append(line);
}

StatusOr<SpoolScan> JobSpool::scan() const {
  SpoolScan out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return Status::io_error("cannot scan spool directory '" + dir_ + "': " + ec.message());
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file(ec)) continue;
    std::string path = dirent.path().string();
    std::string name = dirent.path().filename().string();
    // Only committed entries count: temp siblings from an interrupted
    // atomic write are leftovers, not jobs.
    if (name.size() < 7 || name.compare(name.size() - 6, 6, ".spool") != 0) continue;

    SpoolEntry entry;
    StatusOr<LogContents> log = read_log(
        path, [&entry](const std::string& record) { return parse_state_record(record, entry); });
    if (!log.ok()) {
      quarantine_entry(dir_, path, log.status().message());
      ++out.quarantined;
      continue;
    }
    if (!parse_header(log->header, entry)) {
      quarantine_entry(dir_, path, "unparseable spool header");
      ++out.quarantined;
      continue;
    }
    entry.path = path;
    if (log->torn_tail()) {
      // Drop the torn tail now so the next record_state appends cleanly.
      (void)AppendLog::reopen(path, log->valid_bytes);
      ++out.torn_tails;
    }
    out.entries.push_back(std::move(entry));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const SpoolEntry& a, const SpoolEntry& b) { return a.job < b.job; });
  return out;
}

}  // namespace hlsav::serve
