// Crash-safe file output.
//
// Every artifact the toolchain emits (BENCH_*.json, VCDs, binary
// traces, Chrome traces, the headers of append logs) goes through these
// helpers: content is written to a call-unique temp sibling, fsync'd, and
// renamed into place, so a killed run leaves either the old file or the
// new one -- never a torn half-document. The records after an append
// log's header go through support/append_log.h, which shares the
// write-all loop below.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>

#include "support/status.h"

namespace hlsav {

/// "<path>.tmp.<pid>.<n>", with n from a process-wide counter -- unique
/// per call, so neither two processes nor two threads of one process
/// ever share a temp file; same directory (so the rename is atomic: same
/// filesystem).
[[nodiscard]] std::string temp_sibling_path(const std::string& path);

/// Writes `content` to `path` atomically: temp sibling, fsync, rename.
/// The temp file is removed on any failure.
[[nodiscard]] Status write_file_atomic(const std::string& path, std::string_view content);

/// Writes all of `data` to `fd`, continuing after short writes and
/// EINTR. False (errno set) on the first failed write. `write_fn`
/// stands in for ::write when non-null (the append log's test hooks).
[[nodiscard]] bool write_all(int fd, std::string_view data,
                             ssize_t (*write_fn)(int, const void*, std::size_t) = nullptr);

/// fsyncs the directory itself so a just-renamed entry survives a
/// power loss (rename makes the *data* durable, but the new directory
/// entry needs its own fsync to be on disk).
[[nodiscard]] Status fsync_dir(const std::string& dir);

}  // namespace hlsav
