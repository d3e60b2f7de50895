#include "support/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace hlsav {

std::string temp_sibling_path(const std::string& path) {
  static std::atomic<std::uint64_t> calls{0};
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(calls.fetch_add(1, std::memory_order_relaxed));
}

bool write_all(int fd, std::string_view data,
               ssize_t (*write_fn)(int, const void*, std::size_t)) {
  if (write_fn == nullptr) write_fn = ::write;
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = write_fn(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

Status write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = temp_sibling_path(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::io_error("cannot open '" + tmp + "' for writing: " + std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::io_error(what + " '" + tmp + "': " + std::strerror(saved));
  };
  if (!write_all(fd, content)) return fail("write to");
  if (::fsync(fd) != 0) return fail("fsync of");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::io_error("close of '" + tmp + "': " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    return Status::io_error("rename '" + tmp + "' -> '" + path +
                            "': " + std::strerror(saved));
  }
  return Status::ok_status();
}

Status fsync_dir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::io_error("cannot open directory '" + dir + "': " + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    int saved = errno;
    ::close(fd);
    return Status::io_error("fsync of directory '" + dir + "': " + std::strerror(saved));
  }
  ::close(fd);
  return Status::ok_status();
}

}  // namespace hlsav
