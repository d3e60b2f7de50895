// Crash-safe campaign journal: the schema of a campaign's write-ahead
// log. The on-disk format (atomic header, fsync'd records, torn-tail
// stop and truncation) is support/append_log.h's, so a crash, OOM kill
// or pre-empted CI job never throws completed sites away.
//
//  * The header line describes the campaign (design, seed, sampling,
//    resolved cycle backstop) -- its canonical `fingerprint()` is what
//    --resume matches against, so a journal can never be replayed into
//    a *different* campaign.
//  * One record per classified site, in completion order; the report
//    is rebuilt in site order, so an interrupted-then-resumed campaign
//    renders byte-identically to an uninterrupted one at any thread
//    count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "support/status.h"

namespace hlsav::sim {

/// Campaign identity, logged as the journal's first line. Two campaigns
/// with equal fingerprints enumerate the same sites with the same
/// backstops, so their per-site outcomes are interchangeable.
struct JournalHeader {
  std::string design;
  std::uint64_t seed = 0;
  std::uint64_t sites_total = 0;
  std::uint64_t max_faults = 0;
  std::uint64_t max_cycles = 0;  // resolved livelock backstop
  std::uint64_t golden_cycles = 0;
  double site_wall_ms = 0.0;
  bool profile = false;

  /// Canonical one-line identity (also the serialized header payload).
  [[nodiscard]] std::string fingerprint() const;
};

/// Everything load_journal() recovers from disk. Restored FaultResults
/// carry only the site *id* in `site` -- the caller re-attaches the
/// full FaultSpec from its own deterministic enumeration.
struct JournalContents {
  JournalHeader header;
  std::map<std::uint32_t, FaultResult> results;
  /// Prefix of the file that parsed cleanly; anything past it is a torn
  /// trailing write and must be truncated before appending resumes.
  std::uint64_t valid_bytes = 0;
  /// Bytes actually on disk. valid_bytes < total_bytes means the file
  /// ends in a torn line (crash mid-append).
  std::uint64_t total_bytes = 0;

  [[nodiscard]] bool torn_tail() const { return valid_bytes < total_bytes; }
};

/// Parses a journal file. kIoError when unreadable; kInvalidArgument
/// when even the header line is unusable.
[[nodiscard]] StatusOr<JournalContents> load_journal(const std::string& path);

/// Serialized JSONL form of one site outcome: the record a campaign
/// appends to its journal.
[[nodiscard]] std::string journal_line(const FaultResult& r);

/// Parses one journal_line() back into `r` (site carries only the id).
/// False on any malformed field: a loader treats the line -- and
/// everything after it -- as a torn tail.
[[nodiscard]] bool parse_result_line(const std::string& line, FaultResult& r);

// ----------------------------------------------------------- shard merge --

/// What merge_journal_shards() recovers from a set of worker shard
/// journals. Same contract as JournalContents: restored results carry
/// only the site id, and the caller re-attaches FaultSpecs.
struct ShardMergeResult {
  JournalHeader header;
  std::map<std::uint32_t, FaultResult> results;
  std::size_t shards_loaded = 0;
  /// Shards whose files ended in a torn line (crashed workers).
  std::size_t torn_shards = 0;
};

/// Merges K worker shard journals into one result map. Every shard must
/// carry the same header fingerprint (kInvalidArgument otherwise --
/// shards of different campaigns can never be mixed); an unreadable
/// shard is kIoError. A site id appearing in several shards is fine iff
/// every copy serializes to identical bytes (a worker died after the
/// append landed but before the supervisor saw it, then the site was
/// reassigned); disagreeing duplicates are an error, because they mean
/// the determinism contract broke.
///
/// Two degenerate inputs are typed errors, never an empty-merge
/// success: an empty `paths` list (kInvalidArgument -- the caller lost
/// track of its shards), and a merge where *every* shard ends in a torn
/// tail and not a single classified site survived (kIoError -- all
/// workers crashed mid-append and reporting "0 sites, ok" would
/// silently discard the campaign). Header-only shards without torn
/// tails still merge to an ok empty result: a drained-before-first-site
/// campaign is a real, resumable state.
[[nodiscard]] StatusOr<ShardMergeResult> merge_journal_shards(
    const std::vector<std::string>& paths);

}  // namespace hlsav::sim
