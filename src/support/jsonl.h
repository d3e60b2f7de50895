// Hand-rolled single-line JSON ("JSONL") helpers.
//
// Several subsystems speak the same flat one-object-per-line dialect:
// the records of the campaign journal (sim/journal.*) and the job spool
// (serve/spool.*), the hlsavd socket protocol (serve/protocol.*), and
// worker heartbeat lines. Every value any of them stores is an integer,
// a double, a short string, or a list of integers -- a general JSON
// library would be a dependency for no expressive gain, but the
// emit/parse primitives must not be re-implemented per subsystem, so
// they live here. How those lines reach the disk is
// support/append_log.h's business, not this file's.
//
// Parsing is by key lookup over the whole line (`"key":`), which is
// exactly right for flat objects with distinct key names and wrong for
// arbitrary nesting -- none of the callers nest more than one level,
// and nested keys are kept globally unique.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hlsav::jsonl {

/// Appends `s` as a double-quoted JSON string (escaping `"`, `\` and
/// control bytes).
void append_escaped(std::string& out, std::string_view s);

/// %.17g -- round-trips every finite double through strtod, so values
/// (and fingerprints built from them) survive a disk round trip exactly.
[[nodiscard]] std::string format_double(double v);

/// Locates `"key":` and returns the position just past the colon.
[[nodiscard]] bool find_value(const std::string& line, const char* key, std::size_t& pos);

[[nodiscard]] bool parse_u64(const std::string& line, const char* key, std::uint64_t& out);
[[nodiscard]] bool parse_double(const std::string& line, const char* key, double& out);
[[nodiscard]] bool parse_string(const std::string& line, const char* key, std::string& out);
[[nodiscard]] bool parse_bool(const std::string& line, const char* key, bool& out);
[[nodiscard]] bool parse_u64_list(const std::string& line, const char* key,
                                  std::vector<std::uint64_t>& out);
[[nodiscard]] bool parse_u32_list(const std::string& line, const char* key,
                                  std::vector<std::uint32_t>& out);

/// Emits `[1,2,3]`.
void append_u64_list(std::string& out, const std::vector<std::uint64_t>& values);
void append_u32_list(std::string& out, const std::vector<std::uint32_t>& values);

}  // namespace hlsav::jsonl
