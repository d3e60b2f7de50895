#include "support/append_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/io.h"

namespace hlsav {

namespace {

// The indirection only exists so fault-injection tests can fail an
// append with a chosen errno (set_append_log_io_hooks_for_test).
const AppendLogIoHooks* g_io_hooks = nullptr;

Status errno_status(const std::string& what, const std::string& path) {
  return Status::io_error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

void set_append_log_io_hooks_for_test(const AppendLogIoHooks* hooks) { g_io_hooks = hooks; }

StatusOr<AppendLog> AppendLog::create(std::string path, std::string_view header_line) {
  std::string header(header_line);
  header += '\n';
  HLSAV_RETURN_IF_ERROR(write_file_atomic(path, header));
  // The rename made the header durable; the directory entry needs its
  // own fsync or a power loss can forget the log existed at all.
  std::size_t slash = path.find_last_of('/');
  HLSAV_RETURN_IF_ERROR(fsync_dir(slash == std::string::npos ? "." : path.substr(0, slash)));
  return reopen(std::move(path));
}

StatusOr<AppendLog> AppendLog::reopen(std::string path,
                                      std::optional<std::uint64_t> valid_bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return errno_status("cannot open log", path);
  AppendLog log(std::move(path), fd);
  // Drop the torn tail (if any) before the first new record lands.
  if (valid_bytes.has_value() && ::ftruncate(fd, static_cast<off_t>(*valid_bytes)) != 0) {
    return errno_status("cannot truncate log", log.path_);
  }
  return log;
}

AppendLog::AppendLog(AppendLog&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendLog::append(std::string_view record) {
  std::string line;
  line.reserve(record.size() + 1);
  line.append(record);
  line += '\n';
  const AppendLogIoHooks* hooks = g_io_hooks;
  if (!write_all(fd_, line, hooks != nullptr ? hooks->write_fn : nullptr)) {
    return errno_status("write failed", path_);
  }
  // Durable before the caller acts on it: a loader trusts every
  // complete record.
  int rc = hooks != nullptr && hooks->fsync_fn != nullptr ? hooks->fsync_fn(fd_) : ::fsync(fd_);
  if (rc != 0) return errno_status("fsync failed", path_);
  return Status::ok_status();
}

StatusOr<LogContents> read_log(const std::string& path,
                               const std::function<bool(const std::string& record)>& on_record) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::io_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string data = buf.str();

  LogContents out;
  out.total_bytes = data.size();
  std::size_t eol = data.find('\n');
  if (eol == std::string::npos) {
    return Status::invalid_argument("'" + path + "' has no complete header line");
  }
  out.header = data.substr(0, eol);
  out.valid_bytes = eol + 1;

  // Records: stop at the first torn or rejected one. Only the last line
  // can be torn, so everything before the stop point is real.
  std::size_t pos = eol + 1;
  while (pos < data.size()) {
    std::size_t next = data.find('\n', pos);
    if (next == std::string::npos) break;  // no newline: torn tail
    if (!on_record(data.substr(pos, next - pos))) break;
    pos = next + 1;
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace hlsav
