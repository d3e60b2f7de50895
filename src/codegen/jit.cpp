#include "codegen/jit.h"

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/compiled.h"
#include "support/io.h"

#ifndef HLSAV_GIT_SHA
#define HLSAV_GIT_SHA "unknown"
#endif

namespace hlsav::codegen {

namespace {

bool executable_at(const std::string& path) { return ::access(path.c_str(), X_OK) == 0; }

std::string path_lookup(const std::string& name) {
  const char* path = std::getenv("PATH");
  if (path == nullptr) return {};
  std::stringstream ss(path);
  std::string dir;
  while (std::getline(ss, dir, ':')) {
    if (dir.empty()) continue;
    std::string cand = dir + "/" + name;
    if (executable_at(cand)) return cand;
  }
  return {};
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string read_log_tail(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // First few lines carry the actual error; the rest is usually notes.
  std::size_t cut = 0;
  for (int lines = 0; cut < all.size() && lines < 6; ++cut) {
    if (all[cut] == '\n') ++lines;
  }
  return all.substr(0, cut);
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('\'');
  return out;
}

/// Opens `path` and validates the module's ABI stamp and design key.
/// Returns the handle or an explanation of why the file is unusable.
StatusOr<void*> open_and_check(const std::string& path, const std::string& key) {
  void* dl = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (dl == nullptr) {
    const char* err = ::dlerror();
    return Status::io_error("dlopen failed: " + std::string(err != nullptr ? err : "?"));
  }
  auto* abi = static_cast<const std::uint32_t*>(::dlsym(dl, "hlsav_abi"));
  auto* dkey = static_cast<const char*>(::dlsym(dl, "hlsav_design_key"));
  if (abi == nullptr || dkey == nullptr) {
    ::dlclose(dl);
    return Status::io_error("module lacks hlsav_abi/hlsav_design_key symbols");
  }
  if (*abi != sim::kCompiledAbiVersion) {
    ::dlclose(dl);
    return Status::io_error("module ABI " + std::to_string(*abi) + " != expected " +
                            std::to_string(sim::kCompiledAbiVersion));
  }
  if (key != dkey) {
    ::dlclose(dl);
    return Status::io_error("module design key mismatch");
  }
  return dl;
}

}  // namespace

LoadedModule& LoadedModule::operator=(LoadedModule&& o) noexcept {
  if (this != &o) {
    if (dl != nullptr) ::dlclose(dl);
    dl = std::exchange(o.dl, nullptr);
    path = std::move(o.path);
    key = std::move(o.key);
    from_cache = o.from_cache;
  }
  return *this;
}

LoadedModule::~LoadedModule() {
  if (dl != nullptr) ::dlclose(dl);
}

std::string find_compiler() {
  const char* env = std::getenv("HLSAV_CC");
  if (env != nullptr && env[0] != '\0') return env;
  for (const char* cand : {"cc", "gcc", "clang", "c++", "g++"}) {
    std::string found = path_lookup(cand);
    if (!found.empty()) return found;
  }
  return {};
}

std::string default_cache_dir() {
  const char* env = std::getenv("HLSAV_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  const char* xdg = std::getenv("XDG_CACHE_HOME");
  if (xdg != nullptr && xdg[0] != '\0') return std::string(xdg) + "/hlsav";
  const char* home = std::getenv("HOME");
  if (home != nullptr && home[0] != '\0') return std::string(home) + "/.cache/hlsav";
  return "/tmp/hlsav-cache";
}

std::string content_key(const std::string& source, const std::string& compiler) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, source);
  h = fnv1a(h, compiler);
  h = fnv1a(h, HLSAV_GIT_SHA);
  h = fnv1a(h, std::to_string(sim::kCompiledAbiVersion));
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

StatusOr<LoadedModule> compile_module(const std::string& source, const CompileOptions& opt) {
  std::string compiler = opt.compiler.empty() ? find_compiler() : opt.compiler;
  if (compiler.empty()) {
    return Status::error(StatusCode::kSimError,
                         "no C compiler found (set HLSAV_CC or install cc/gcc/clang)");
  }
  const std::string key = content_key(source, compiler);
  const std::string dir = opt.cache_dir.empty() ? default_cache_dir() : opt.cache_dir;
  const std::string base = dir + "/hlsav-" + key;
  const std::string so_path = base + ".so";

  // Cache probe: a readable .so under this key was built from byte-for-
  // byte identical source by an identical toolchain.
  if (::access(so_path.c_str(), R_OK) == 0) {
    StatusOr<void*> dl = open_and_check(so_path, key);
    if (dl.ok()) {
      LoadedModule m;
      m.dl = *dl;
      m.path = so_path;
      m.key = key;
      m.from_cache = true;
      return StatusOr<LoadedModule>(std::move(m));
    }
    // Corrupt or stale entry: drop it and rebuild below.
    std::error_code ec;
    std::filesystem::remove(so_path, ec);
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::io_error("cannot create cache directory '" + dir + "': " + ec.message());
  }

  // Temp names unique per call (pid plus a process-wide counter) so
  // concurrent builds of the same design -- from other processes or from
  // other threads of this one -- race benignly: last rename wins, and
  // every result is identical.
  const std::string tmp = temp_sibling_path(base);
  const std::string c_path = tmp + ".c";
  const std::string tmp_so = tmp + ".so";
  const std::string log_path = tmp + ".log";

  std::string full = source;
  full += "const char hlsav_design_key[] = \"" + key + "\";\n";
  HLSAV_RETURN_IF_ERROR(write_file_atomic(c_path, full));

  std::string cmd = shell_quote(compiler) + " -O2 -fPIC -shared -xc " + shell_quote(c_path) +
                    " -o " + shell_quote(tmp_so) + " 2> " + shell_quote(log_path);
  int rc = std::system(cmd.c_str());
  if (rc > 0xff) rc = WEXITSTATUS(rc);  // decode the shell's wait status
  std::string log = read_log_tail(log_path);
  std::filesystem::remove(log_path, ec);
  if (opt.keep_source) {
    std::filesystem::rename(c_path, base + ".c", ec);
  } else {
    std::filesystem::remove(c_path, ec);
  }
  if (rc != 0) {
    std::filesystem::remove(tmp_so, ec);
    return Status::error(StatusCode::kSimError,
                         "compiler exited with status " + std::to_string(rc) +
                             (log.empty() ? std::string() : ":\n" + log));
  }
  std::filesystem::rename(tmp_so, so_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_so, ec);
    return Status::io_error("cannot publish compiled module to '" + so_path + "'");
  }

  StatusOr<void*> dl = open_and_check(so_path, key);
  if (!dl.ok()) return dl.status();
  LoadedModule m;
  m.dl = *dl;
  m.path = so_path;
  m.key = key;
  m.from_cache = false;
  return StatusOr<LoadedModule>(std::move(m));
}

void* module_symbol(const LoadedModule& m, const char* symbol) {
  return m.dl != nullptr ? ::dlsym(m.dl, symbol) : nullptr;
}

}  // namespace hlsav::codegen
