#include "serve/shard.h"

#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "pipeline/compile.h"
#include "sim/fault.h"
#include "sim/journal.h"
#include "support/jsonl.h"
#include "support/str.h"
#include "support/subprocess.h"

namespace hlsav::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Worker exit code for "SIGTERM received, journal flushed, exiting
/// cleanly mid-shard" (tools/hlsavd.cpp worker mode).
constexpr int kWorkerDrainedExit = 21;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

struct WorkerState {
  int index = 0;
  std::vector<std::uint32_t> assigned;  // site ids, ascending
  std::string journal_path;
  std::optional<Subprocess> proc;
  std::string stdout_buf;
  Clock::time_point last_heartbeat;
  Clock::time_point respawn_at;
  unsigned attempts = 0;  // consecutive crash respawns (backoff exponent)
  bool pending_respawn = false;
  bool complete = false;
  /// Site the worker last announced "starting" and has not journaled;
  /// -1 when idle. The blame target when the worker dies.
  std::int64_t inflight = -1;
};

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

StatusOr<SupervisedResult> run_sharded_campaign(const CampaignSpec& spec,
                                                const SupervisorOptions& opt) {
  if (opt.worker_binary.empty()) {
    return Status::invalid_argument("supervisor needs a worker binary path");
  }
  if (opt.job_dir.empty()) return Status::invalid_argument("supervisor needs a job directory");

  auto emit = [&](const SupervisorEvent& e) {
    if (opt.event_sink) opt.event_sink(e);
  };
  auto emit_phase = [&](SupervisorEvent::Kind kind, const char* name) {
    SupervisorEvent e;
    e.kind = kind;
    e.detail = name;
    emit(e);
  };

  emit_phase(SupervisorEvent::Kind::kPhaseBegin, "compile");
  // Compile and golden-run exactly as the worker will: the supervisor's
  // sampled selection and golden cycle count must match the workers'
  // byte for byte, or the shard fingerprints would disagree.
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  pipeline::CompileOptions copts;
  std::optional<assertions::Options> aopts = assertions::Options::from_name(spec.assertions);
  if (!aopts.has_value()) {
    return Status::invalid_argument("unknown assertions mode '" + spec.assertions + "'");
  }
  copts.assert_opts = *aopts;
  StatusOr<pipeline::Compiled> compiled = pipeline::compile_file(sm, diags, spec.design_path, copts);
  if (!compiled.ok()) {
    return Status::error(compiled.status().code(), "cannot compile '" + spec.design_path +
                                                       "': " + compiled.status().message() +
                                                       "\n" + diags.render());
  }
  const ir::Design& design = compiled->design;
  const sched::DesignSchedule& schedule = compiled->schedule;

  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      parse_feed_spec(spec.feeds);
  if (!feeds.ok()) return feeds.status();

  sim::ExternRegistry externs;
  sim::GoldenRef golden;
  try {
    golden = sim::golden_run(design, schedule, externs, *feeds, sim::SimOptions{});
  } catch (const InternalError& e) {
    return Status::error(StatusCode::kSimError, e.what());
  }
  std::uint64_t max_cycles = sim::resolve_max_cycles(spec.max_cycles, golden.cycles);

  // The same sampling function the workers' run_campaign_st calls: the
  // supervisor and every worker agree on which sites the campaign
  // contains.
  std::vector<sim::FaultSpec> sites = sim::enumerate_fault_sites(design, schedule);
  std::vector<std::uint32_t> selected;
  std::map<std::uint32_t, const sim::FaultSpec*> spec_by_id;
  for (std::size_t idx : sim::sample_sites(sites.size(), spec.seed, spec.max_faults)) {
    selected.push_back(sites[idx].id);
    spec_by_id[sites[idx].id] = &sites[idx];
  }
  if (selected.empty()) return Status::invalid_argument("campaign selects no fault sites");
  emit_phase(SupervisorEvent::Kind::kPhaseEnd, "compile");

  unsigned workers = std::max(1u, opt.workers);
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, selected.size()));

  // Round-robin deal. Sites stay ascending within a shard, so "first
  // assigned-but-not-journaled" is a meaningful fallback blame target.
  std::vector<WorkerState> pool(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool[w].index = static_cast<int>(w);
    pool[w].journal_path = opt.job_dir + "/shard_" + std::to_string(w) + ".jsonl";
  }
  for (std::size_t i = 0; i < selected.size(); ++i) {
    pool[i % workers].assigned.push_back(selected[i]);
  }

  SupervisedResult result;
  std::set<std::uint32_t> quarantined;
  std::map<std::uint32_t, unsigned> crash_counts;
  std::set<std::uint32_t> done_sites;  // journaled (from heartbeats) + quarantined
  std::uint64_t last_reported_done = ~0ull;
  bool draining = false;

  auto emit_progress = [&] {
    std::uint64_t done = done_sites.size();
    if (done == last_reported_done) return;
    last_reported_done = done;
    SupervisorEvent e;
    e.kind = SupervisorEvent::Kind::kProgress;
    e.done = done;
    e.total = selected.size();
    emit(e);
  };

  auto remaining_sites = [&](const WorkerState& w,
                             const std::set<std::uint32_t>& journaled) {
    std::vector<std::uint32_t> rem;
    for (std::uint32_t id : w.assigned) {
      if (journaled.count(id) == 0 && quarantined.count(id) == 0) rem.push_back(id);
    }
    return rem;
  };

  /// Authoritative journaled set for one worker: reload its shard from
  /// disk (heartbeat lines can be lost with the pipe; fsync'd journal
  /// lines cannot).
  auto journaled_on_disk = [&](const WorkerState& w) {
    std::set<std::uint32_t> ids;
    if (!file_exists(w.journal_path)) return ids;
    StatusOr<sim::JournalContents> loaded = sim::load_journal(w.journal_path);
    if (!loaded.ok()) return ids;
    for (const auto& [id, r] : loaded->results) {
      if (std::binary_search(w.assigned.begin(), w.assigned.end(), id)) ids.insert(id);
    }
    return ids;
  };

  auto spawn_worker = [&](WorkerState& w, const std::vector<std::uint32_t>& site_ids) -> Status {
    std::vector<std::string> argv = {
        opt.worker_binary,
        "worker",
        "--design=" + spec.design_path,
        "--journal=" + w.journal_path,
        "--sites=" + [&] {
          std::string s;
          for (std::uint32_t id : site_ids) {
            if (!s.empty()) s += ',';
            s += std::to_string(id);
          }
          return s;
        }(),
        "--seed=" + std::to_string(spec.seed),
        "--max-faults=" + std::to_string(spec.max_faults),
        "--max-cycles=" + std::to_string(max_cycles),
        "--golden-cycles=" + std::to_string(golden.cycles),
        "--assertions=" + spec.assertions,
    };
    if (spec.site_wall_ms > 0.0) {
      argv.push_back("--site-wall-ms=" + std::to_string(spec.site_wall_ms));
    }
    if (!spec.feeds.empty()) argv.push_back("--feed=" + spec.feeds);
    if (!spec.crash_at.empty() || !spec.stall_at.empty()) {
      argv.push_back("--fault-token-dir=" + opt.job_dir);
      argv.push_back("--crash-limit=" + std::to_string(spec.crash_limit));
      for (std::uint32_t id : spec.crash_at) {
        argv.push_back("--crash-at-site=" + std::to_string(id));
      }
      for (std::uint32_t id : spec.stall_at) {
        argv.push_back("--stall-at-site=" + std::to_string(id));
      }
    }
    // kill_on_parent_death: if the daemon itself dies (kill -9), its
    // workers must not keep appending to journal shards that a
    // restarted daemon is about to re-adopt.
    StatusOr<Subprocess> proc =
        Subprocess::spawn(argv, /*capture_stdout=*/true, /*kill_on_parent_death=*/true);
    HLSAV_RETURN_IF_ERROR(proc.status());
    w.proc.emplace(std::move(*proc));
    w.stdout_buf.clear();
    w.inflight = -1;
    w.last_heartbeat = Clock::now();
    w.pending_respawn = false;
    return Status::ok_status();
  };

  /// One worker death (or clean-but-incomplete exit): blame the
  /// in-flight site, maybe quarantine it, schedule a respawn.
  auto contain_death = [&](WorkerState& w, const ExitInfo& info) {
    std::set<std::uint32_t> journaled = journaled_on_disk(w);
    for (std::uint32_t id : journaled) done_sites.insert(id);
    std::vector<std::uint32_t> rem = remaining_sites(w, journaled);
    if (rem.empty()) {
      w.complete = true;
      return;
    }
    // Blame: the announced in-flight site if it is still owed;
    // otherwise the first remaining one (a worker that died before its
    // first "starting" line -- exec failure, early OOM -- still blames
    // *something*, so crash loops always converge on quarantine).
    std::uint32_t blamed = rem.front();
    if (w.inflight >= 0) {
      auto id = static_cast<std::uint32_t>(w.inflight);
      if (std::find(rem.begin(), rem.end(), id) != rem.end()) blamed = id;
    }
    w.inflight = -1;
    result.respawns++;
    unsigned& crashes = crash_counts[blamed];
    crashes++;
    {
      SupervisorEvent e;
      e.kind = SupervisorEvent::Kind::kWorkerCrashed;
      e.site = blamed;
      e.worker = w.index;
      e.detail = info.describe();
      e.done = done_sites.size();
      e.total = selected.size();
      emit(e);
    }
    if (crashes >= opt.quarantine_cap) {
      quarantined.insert(blamed);
      done_sites.insert(blamed);
      result.quarantined.push_back(blamed);
      SupervisorEvent e;
      e.kind = SupervisorEvent::Kind::kQuarantined;
      e.site = blamed;
      e.worker = w.index;
      emit(e);
      rem = remaining_sites(w, journaled);
      if (rem.empty()) {
        w.complete = true;
        return;
      }
    }
    std::uint64_t backoff = opt.backoff_base_ms << std::min(w.attempts, 20u);
    backoff = std::min(backoff, opt.backoff_cap_ms);
    w.attempts++;
    w.pending_respawn = true;
    w.respawn_at = Clock::now() + std::chrono::milliseconds(backoff);
  };

  auto parse_heartbeats = [&](WorkerState& w) {
    for (;;) {
      std::size_t eol = w.stdout_buf.find('\n');
      if (eol == std::string::npos) return;
      std::string line = w.stdout_buf.substr(0, eol);
      w.stdout_buf.erase(0, eol + 1);
      std::string type;
      if (!jsonl::parse_string(line, "type", type)) continue;
      std::uint64_t site = 0;
      if (!jsonl::parse_u64(line, "site", site)) continue;
      w.last_heartbeat = Clock::now();
      if (type == "starting") {
        w.inflight = static_cast<std::int64_t>(site);
        SupervisorEvent e;
        e.kind = SupervisorEvent::Kind::kSiteStarted;
        e.site = static_cast<std::uint32_t>(site);
        e.worker = w.index;
        emit(e);
      } else if (type == "site") {
        done_sites.insert(static_cast<std::uint32_t>(site));
        if (w.inflight == static_cast<std::int64_t>(site)) w.inflight = -1;
        SupervisorEvent e;
        e.kind = SupervisorEvent::Kind::kSiteDone;
        e.site = static_cast<std::uint32_t>(site);
        e.worker = w.index;
        (void)jsonl::parse_string(line, "outcome", e.detail);
        emit(e);
      }
    }
  };

  emit_progress();
  emit_phase(SupervisorEvent::Kind::kPhaseBegin, "shard");
  for (WorkerState& w : pool) {
    HLSAV_RETURN_IF_ERROR(spawn_worker(w, w.assigned));
  }

  for (;;) {
    if (!draining && opt.drain != nullptr && opt.drain->load(std::memory_order_relaxed)) {
      draining = true;
      result.drained = true;
      for (WorkerState& w : pool) {
        if (w.proc.has_value() && !w.complete) w.proc->kill(SIGTERM);
      }
    }
    bool all_complete = true;
    for (WorkerState& w : pool) {
      if (w.complete) continue;
      if (w.pending_respawn) {
        if (draining) {
          w.complete = true;  // degrade: keep what's journaled, stop retrying
          continue;
        }
        if (Clock::now() >= w.respawn_at) {
          std::vector<std::uint32_t> rem = remaining_sites(w, journaled_on_disk(w));
          if (rem.empty()) {
            w.complete = true;
            continue;
          }
          HLSAV_RETURN_IF_ERROR(spawn_worker(w, rem));
        }
        all_complete = false;
        continue;
      }
      if (!w.proc.has_value()) {
        w.complete = true;  // defensive: no process and nothing pending
        continue;
      }
      (void)w.proc->read_stdout(w.stdout_buf);
      parse_heartbeats(w);
      std::optional<ExitInfo> ended = w.proc->poll();
      if (!ended.has_value()) {
        // Heartbeat watchdog: a silent worker (stalled site, livelock
        // the in-process backstops missed) dies by SIGKILL and takes
        // the normal contained-crash path on the next poll.
        if (opt.heartbeat_timeout_ms > 0.0 &&
            ms_since(w.last_heartbeat) > opt.heartbeat_timeout_ms) {
          w.proc->kill(SIGKILL);
          w.last_heartbeat = Clock::now();  // one kill per overrun
        }
        all_complete = false;
        continue;
      }
      (void)w.proc->read_stdout(w.stdout_buf);  // the pipe outlives the child
      parse_heartbeats(w);
      if (ended->clean() || (!ended->signaled && ended->value == kWorkerDrainedExit)) {
        std::set<std::uint32_t> journaled = journaled_on_disk(w);
        for (std::uint32_t id : journaled) done_sites.insert(id);
        if (remaining_sites(w, journaled).empty() || draining) {
          w.complete = true;
        } else {
          // Clean exit with sites still owed is a broken worker; the
          // contained-crash path bounds it via quarantine like any
          // other repeated failure.
          contain_death(w, *ended);
          all_complete = false;
        }
        continue;
      }
      contain_death(w, *ended);
      if (!w.complete) all_complete = false;
    }
    emit_progress();
    if (all_complete) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  emit_phase(SupervisorEvent::Kind::kPhaseEnd, "shard");

  // ---- merge: shard journals -> one site-ordered report ----
  emit_phase(SupervisorEvent::Kind::kPhaseBegin, "merge");
  std::vector<std::string> shard_paths;
  for (const WorkerState& w : pool) {
    if (!file_exists(w.journal_path)) continue;
    shard_paths.push_back(w.journal_path);
    struct stat st{};
    if (::stat(w.journal_path.c_str(), &st) == 0) {
      result.journal_bytes += static_cast<std::uint64_t>(st.st_size);
    }
  }
  if (shard_paths.empty()) {
    if (result.drained) {
      result.report.seed = spec.seed;
      result.report.sites_total = sites.size();
      result.report.golden_cycles = golden.cycles;
      result.report.interrupted = true;
      emit_phase(SupervisorEvent::Kind::kPhaseEnd, "merge");
      return result;
    }
    return Status::internal("no shard journal was ever written");
  }
  StatusOr<sim::ShardMergeResult> merged = sim::merge_journal_shards(shard_paths);
  HLSAV_RETURN_IF_ERROR(merged.status());
  for (std::uint32_t id : quarantined) {
    sim::FaultResult r;
    r.site = *spec_by_id.at(id);
    r.outcome = sim::FaultOutcome::kWorkerCrashed;
    merged->results.insert_or_assign(id, std::move(r));
  }

  sim::CampaignReport& report = result.report;
  report.seed = spec.seed;
  report.sites_total = sites.size();
  report.golden_cycles = golden.cycles;
  report.threads = 1;
  report.interrupted = result.drained;
  for (std::uint32_t id : selected) {
    auto it = merged->results.find(id);
    if (it == merged->results.end()) {
      if (result.drained) continue;  // degraded: only journaled sites survive
      return Status::internal("site " + std::to_string(id) +
                              " missing after shard merge -- supervisor bug");
    }
    sim::FaultResult r = std::move(it->second);
    r.site = *spec_by_id.at(id);  // journals only carry the id
    report.results.push_back(std::move(r));
  }
  result.rendered = report.render(design);
  emit_phase(SupervisorEvent::Kind::kPhaseEnd, "merge");
  return result;
}

}  // namespace hlsav::serve
