// Durable append-only line log: the one on-disk format under the
// campaign journal (sim/journal.*) and the daemon's job spool
// (serve/spool.*), which only define what their lines mean.
//
//  * One file of '\n'-terminated lines: a caller-defined header, then
//    one record per line.
//  * create() writes the header atomically (temp + fsync + rename) and
//    fsyncs the directory: a crash leaves no log or a whole header.
//  * append() writes a record with one write-all loop and fsyncs before
//    returning, so a caller may act on it as soon as it succeeds.
//  * One writer plus an fsync per record means a crash can only tear
//    the last line. read_log() stops at the first record the caller
//    rejects (or that lacks a newline) and reports the valid prefix;
//    reopen() truncates to it before appending again.
//  * Failures are kIoError Statuses naming the path and the errno.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "support/status.h"

namespace hlsav {

/// An open log, positioned for appending; the destructor closes it.
class AppendLog {
 public:
  /// Starts a fresh log at `path` holding only `header_line`.
  [[nodiscard]] static StatusOr<AppendLog> create(std::string path, std::string_view header_line);

  /// Opens an existing log for appending. With `valid_bytes` (from
  /// read_log) the file is first truncated to that length, which drops
  /// a torn tail and keeps every durable record.
  [[nodiscard]] static StatusOr<AppendLog> reopen(
      std::string path, std::optional<std::uint64_t> valid_bytes = std::nullopt);

  AppendLog(AppendLog&& other) noexcept;  // also makes it non-copyable
  ~AppendLog();

  /// Appends `record` plus a newline and fsyncs. Not thread-safe:
  /// concurrent callers hold their own lock.
  [[nodiscard]] Status append(std::string_view record);

 private:
  AppendLog(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

/// What read_log() found besides the records it handed out.
struct LogContents {
  /// The first line, without its newline.
  std::string header;
  /// Prefix of the file made of the header and accepted records.
  std::uint64_t valid_bytes = 0;
  /// Bytes on disk. valid_bytes < total_bytes means a torn tail.
  std::uint64_t total_bytes = 0;

  [[nodiscard]] bool torn_tail() const { return valid_bytes < total_bytes; }
};

/// Reads the log at `path`: returns the header line and passes each
/// complete record line (without its newline) to `on_record` in file
/// order, stopping at the first one it returns false for. kIoError when
/// the file is unreadable; kInvalidArgument when it has no complete
/// header line. Never modifies the file.
[[nodiscard]] StatusOr<LogContents> read_log(
    const std::string& path, const std::function<bool(const std::string& record)>& on_record);

// ------------------------------------------------------- fault injection --

/// Replacements for the syscalls AppendLog::append makes, so tests can
/// fail an append with a chosen errno (ENOSPC, EIO) on a healthy
/// filesystem. A null member keeps the real syscall.
struct AppendLogIoHooks {
  ssize_t (*write_fn)(int fd, const void* buf, std::size_t count);
  int (*fsync_fn)(int fd);
};

/// Installs `hooks` for every later append (nullptr restores the real
/// syscalls). Test-only; not thread-safe against in-flight appends.
void set_append_log_io_hooks_for_test(const AppendLogIoHooks* hooks);

}  // namespace hlsav
