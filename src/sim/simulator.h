// Design simulator.
//
// Two modes sharing one interpreter core:
//
//  * kSoftware -- the paper's "software simulation": source semantics,
//    C models for external HDL functions, no translation faults, assert
//    statements evaluated directly. Run it on the design *before*
//    assertion synthesis.
//
//  * kHardware -- in-circuit execution: the synthesized design (after
//    assertions::synthesize), HDL behaviours for external functions,
//    translation-fault injection active, and cycle accounting driven by
//    the schedule (sequential blocks charge their FSM states; pipelined
//    loops charge latency + (n-1) * rate; blocking stream handshakes
//    stall with timestamped FIFO entries).
//
// Processes run cooperatively: each has a local clock; a blocked stream
// op suspends the process until the peer makes progress. If no process
// can make progress and the application has not completed, the run is
// reported as a hang together with each stuck process's source position
// -- this is what the paper's §5.1 assert(0)/NABORT tracing example
// diagnoses.
//
// Failure streams are drained into the assertions::NotificationFunction,
// which renders the ANSI-C message and halts the run unless NABORT.
// Checker processes are evaluated reactively when the application
// executes their kAssertTap (their latency only delays notification,
// exactly as the paper argues), and collector processes forward packed
// failure words.
//
// Hot-path design: every linear lookup the execute loop would otherwise
// perform (assertion records, checker processes, stream names) is
// resolved once in init_state() into O(1) caches; checker evaluations
// reuse a preallocated register scratch buffer; CPU-bound stream
// draining is event-driven off a dirty list instead of scanning every
// stream after every process step.
#pragma once

#include <array>
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "assertions/notify.h"
#include "ir/ir.h"
#include "sched/schedule.h"
#include "sim/compiled.h"
#include "sim/extern_registry.h"
#include "sim/fault.h"
#include "support/status.h"

namespace hlsav::trace {
class TraceEngine;
}

namespace hlsav::metrics {
class Profiler;
}

namespace hlsav::sim {

enum class SimMode { kSoftware, kHardware };

/// Wall-clock watchdog budget. The simulator polls it cooperatively
/// (counter-masked, so the hot loop pays an increment-and-mask, not a
/// clock read, per poll site) and stops with RunStatus::kDeadline once
/// it expires. An already-expired deadline stops the run before the
/// first cycle -- that determinism is what the watchdog tests key on.
struct Deadline {
  std::chrono::steady_clock::time_point at{};

  [[nodiscard]] bool expired() const { return std::chrono::steady_clock::now() >= at; }

  /// A deadline `ms` milliseconds from now (non-positive: already expired).
  [[nodiscard]] static Deadline in_ms(double ms) {
    auto delta = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
    return Deadline{std::chrono::steady_clock::now() + delta};
  }
};

struct SimOptions {
  SimMode mode = SimMode::kHardware;
  /// Stop and report a hang after this many cycles on any local clock.
  std::uint64_t max_cycles = 50'000'000;
  /// Model the paper's single time-multiplexed physical CPU channel:
  /// words bound for the CPU deliver one per cycle, in arrival order,
  /// so a failure notification can be delayed behind data traffic (the
  /// paper argues this never stalls the application -- and it doesn't:
  /// only CPU-side delivery stamps shift).
  bool model_channel_mux = true;
  /// Record an execution trace (per-op events, capped at trace_limit).
  bool trace = false;
  std::size_t trace_limit = 100'000;
  /// Armed ELA capture engine (borrowed; may be null). When set, the
  /// simulator feeds per-cycle events -- FSM transitions, register
  /// writes, stream handshakes, BRAM ports, assertion verdicts -- into
  /// its ring buffers. Disabled costs one pointer test per block run.
  trace::TraceEngine* ela = nullptr;
  /// Armed cycle-attribution profiler (borrowed; may be null). Fed at
  /// block/pipeline retire, stream stalls and assertion evaluations --
  /// never per op, so the fast path stays on. Disabled costs one
  /// pointer test per hook site.
  metrics::Profiler* profile = nullptr;
  /// Wall-clock watchdog (borrowed; may be null). Polled at block-step
  /// and pipeline-iteration boundaries behind the same one-pointer-test
  /// pattern as `ela`/`profile`: disabled costs one branch per site.
  const Deadline* deadline = nullptr;
  FaultEngine faults;
  /// Execution engine. kCompiled/kAuto use the functions in `compiled`
  /// for the processes they cover and interpret the rest; the simulator
  /// itself falls back to full interpretation (and says why in
  /// engine_note()) when no handle is attached, when an armed
  /// observability feature -- trace, ELA, profiler -- needs the
  /// interpreter's per-op hooks, or when a fault targets what compiled
  /// code executes natively (narrow-compare and BRAM faults, control
  /// faults inside a pipelined loop, more than one control fault in a
  /// process). Other faults run compiled. Cycle counts, RunResults and
  /// received words are bit-identical across engines; the differential
  /// suite (tests/codegen) enforces that.
  SimEngine engine = SimEngine::kInterpreter;
  /// Borrowed compiled design (see codegen::compile_design). Must
  /// outlive the simulator. Ignored when engine == kInterpreter.
  const CompiledDesignHandle* compiled = nullptr;
};

/// One traced op execution (trace mode). The closest thing the flow has
/// to a waveform: which process executed what, when, and from which
/// source line.
struct TraceEvent {
  std::uint64_t cycle = 0;
  std::string process;
  ir::OpKind kind = ir::OpKind::kCopy;
  SourceLoc loc;
};

enum class RunStatus : std::uint8_t {
  kCompleted,  // every application process returned
  kAborted,    // halted by an assertion failure (NABORT off)
  kHung,       // deadlock or cycle limit: some process never finished
  kDeadline,   // SimOptions::deadline expired (wall-clock watchdog)
};

/// Why a process is suspended. The scheduler loop branches on this (a
/// cycle-limited process is never re-stepped); the human-readable text
/// is rendered lazily, only for hang reports.
enum class BlockReason : std::uint8_t {
  kNone,
  kStreamEmpty,          // stream_read on an empty FIFO
  kStreamFull,           // stream_write on a full FIFO
  kCycleLimit,           // local clock passed SimOptions::max_cycles
  kCycleLimitPipelined,  // ditto, inside a pipelined loop
};

/// How a hang was diagnosed. A deadlock cycle and starvation are both
/// *proven* the moment no process can step (O(cycles-to-block)); the
/// cycle limit is only the livelock backstop for processes that never
/// stop making local progress.
enum class HangKind : std::uint8_t {
  kDeadlockCycle,  // circular wait over stream empty/full edges
  kStarvation,     // blocked on a peer that finished / CPU data that never came
  kCycleLimit,     // SimOptions::max_cycles backstop (livelock)
};

/// One stuck process in a hang diagnosis.
struct HangWaiter {
  std::string process;
  BlockReason reason = BlockReason::kNone;
  std::string stream;  // blocked stream's name (kStream* reasons only)
  SourceLoc loc;
  std::uint64_t cycle = 0;
  /// The process this one waits on (the blocked stream's peer endpoint);
  /// empty when the peer is the CPU or already finished.
  std::string waits_on;
};

/// Structured hang diagnosis: every stuck process, plus -- when a
/// circular wait exists -- the proven cycle. This is what the paper's
/// §5.1 assert(0)/NABORT tracing had to reconstruct by hand.
struct HangInfo {
  HangKind kind = HangKind::kStarvation;
  std::vector<HangWaiter> waiters;
  /// Indices into `waiters` forming the deadlock cycle in wait order
  /// (cycle[i] waits on cycle[i+1], the last waits on the first). Empty
  /// unless kind == kDeadlockCycle.
  std::vector<std::size_t> cycle;

  /// Renders the report (the RunResult::hang_report text).
  [[nodiscard]] std::string render() const;
};

struct RunResult {
  RunStatus status = RunStatus::kCompleted;
  std::uint64_t cycles = 0;  // max local clock over application processes
  std::vector<assertions::Failure> failures;
  std::string hang_report;  // rendered from `hang` when kHung
  std::optional<HangInfo> hang;
  /// Trace mode hit SimOptions::trace_limit: `trace()` holds a prefix
  /// of the run, not the whole run. Explicit so consumers never mistake
  /// a capped capture for a short one.
  bool trace_truncated = false;

  [[nodiscard]] bool completed() const { return status == RunStatus::kCompleted; }
};

class Simulator {
 public:
  Simulator(const ir::Design& design, const sched::DesignSchedule& schedule,
            const ExternRegistry& externs, SimOptions options = {});

  /// Feeds CPU-producer data into the named stream. Values must fit the
  /// stream width: a harness bug that silently truncated its input would
  /// masquerade as a hardware fault, so it throws InternalError instead.
  void feed(std::string_view stream_name, const std::vector<std::uint64_t>& values);
  void feed(ir::StreamId stream, const std::vector<std::uint64_t>& values);

  /// Status-returning feed for callers driving untrusted input (the
  /// fuzz harness, the CLI): unknown stream / over-wide value comes
  /// back as kInvalidArgument instead of a thrown InternalError.
  [[nodiscard]] Status try_feed(std::string_view stream_name,
                                const std::vector<std::uint64_t>& values);

  /// Runs to completion / abort / hang.
  [[nodiscard]] RunResult run();

  /// Values received by the CPU on the named data stream (valid after run).
  [[nodiscard]] std::vector<std::uint64_t> received(std::string_view stream_name) const;

  /// Sink invoked on each assertion failure as it is decoded.
  void set_failure_sink(assertions::NotificationFunction::Sink sink) {
    notify_.set_sink(std::move(sink));
  }

  /// Execution trace (only populated with SimOptions::trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const { return trace_; }
  /// Renders the trace, one event per line.
  [[nodiscard]] std::string render_trace(const SourceManager* sm = nullptr) const;

  /// True when at least one process runs through a compiled function.
  [[nodiscard]] bool engine_active() const { return engine_active_; }
  /// Why a requested compiled engine fell back to the interpreter
  /// (empty when active or when the interpreter was requested). The
  /// fallback contract: a compiled request never fails the run -- it
  /// interprets and reports the reason here for the driver to log.
  [[nodiscard]] const std::string& engine_note() const { return engine_note_; }

 private:
  struct FifoEntry {
    BitVector value;
    std::uint64_t time = 0;
  };

  struct StreamState {
    std::deque<FifoEntry> fifo;
    std::vector<BitVector> cpu_received;
    unsigned depth = 0;  // cached ir::Stream::depth (writer backpressure)
    bool cpu_producer = false;
    bool cpu_consumer = false;
    bool dirty = false;  // on the dirty-drain list (cpu_consumer only)
  };

  struct PipeCtx {
    const ir::LoopInfo* loop = nullptr;
    std::uint64_t iter = 0;
    std::uint64_t start_cycle = 0;
    // Resolved once on loop entry (advance_to_block).
    const ir::BasicBlock* header = nullptr;
    const ir::BasicBlock* body = nullptr;
    const sched::BlockSchedule* bs = nullptr;
  };

  struct ProcState {
    const ir::Process* proc = nullptr;
    const sched::ProcessSchedule* sched = nullptr;
    ir::BlockId cur = ir::kNoBlock;
    // Current block and its schedule, resolved at each block transition
    // so the execute loop never re-fetches them per retry.
    const ir::BasicBlock* cur_block = nullptr;
    const sched::BlockSchedule* cur_sched = nullptr;
    std::size_t op_idx = 0;
    std::uint64_t cycle = 0;             // local clock
    std::uint64_t block_entry_cycle = 0; // local clock at block entry
    std::vector<BitVector> regs;
    std::optional<PipeCtx> pipe;
    /// Compiled engine (when non-null the interpreter never runs this
    /// process): the AOT function, its u64 register file, its memory
    /// table (mem64_ rows numbered by ir::Process::memories_accessed),
    /// and the state words it communicates through (sim/compiled.h).
    CompiledProcFn cfn = nullptr;
    std::vector<std::uint64_t> regs64;
    std::vector<std::uint64_t*> mems64;
    std::array<std::uint64_t, kStWords> st{};
    /// The skip-block or stuck-branch fault naming this compiled process
    /// (null when none does); compiled_poll applies it at block entries.
    const FaultSpec* ctl_fault = nullptr;
    /// Local time of the last assert_cycles marker (timing assertions).
    std::uint64_t cycle_marker = 0;
    /// Profiler slot (metrics::Profiler::index_of), 0 when unarmed.
    std::size_t prof_idx = 0;
    bool done = false;
    bool blocked = false;
    /// Stuck-branch: the faulted block was entered, so the next block
    /// entry is its successor and gets redirected.
    bool ctl_branch_pending = false;
    /// The last compiled call returned kRetBlocked: the next poll resumes
    /// the blocked block and is not a block entry.
    bool ctl_resuming = false;
    SourceLoc blocked_at;
    BlockReason block_reason = BlockReason::kNone;
    ir::StreamId blocked_stream = ir::kNoStream;  // for the kStream* reasons

    [[nodiscard]] bool cycle_limited() const {
      return blocked && (block_reason == BlockReason::kCycleLimit ||
                         block_reason == BlockReason::kCycleLimitPipelined);
    }
  };

  /// Per-checker evaluation cache: the resolved process/block and a
  /// preallocated register file. `fresh` holds the zero values at the
  /// declared widths; `scratch` is the live file, equal to `fresh`
  /// everywhere except the `touched` registers (inputs and block
  /// destinations), which each evaluation restores -- no per-tap heap
  /// allocation and no full-file copy.
  struct CheckerCache {
    const ir::Process* proc = nullptr;
    const ir::BasicBlock* block = nullptr;
    std::vector<BitVector> fresh;
    std::vector<BitVector> scratch;
    std::vector<ir::RegId> touched;
  };

  /// What an assertion-carrying op resolves to: its record, plus (for
  /// kAssertTap) the checker evaluation cache, so a tap costs a single
  /// hash lookup. Checker pointers stay valid across rehashing because
  /// unordered_map is node-based.
  struct OpAssertInfo {
    const ir::AssertionRecord* rec = nullptr;
    CheckerCache* checker = nullptr;
  };

  struct TransparentStringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const ir::Design& design_;
  const sched::DesignSchedule& schedule_;
  const ExternRegistry& externs_;
  SimOptions opt_;
  assertions::NotificationFunction notify_;

  std::vector<StreamState> streams_;
  std::vector<std::vector<BitVector>> memories_;
  std::vector<ProcState> procs_;
  bool halt_ = false;
  /// Last delivery slot used on the multiplexed physical CPU channel.
  std::uint64_t channel_busy_until_ = 0;
  /// Per-stream count of process-issued writes (fault injection only;
  /// left empty when the FaultEngine is, so no-fault runs pay nothing).
  std::vector<std::uint64_t> stream_write_seq_;
  /// Count of words delivered over the CPU channel (fault injection only).
  std::uint64_t channel_word_seq_ = 0;
  std::vector<TraceEvent> trace_;

  // ---- init_state() resolution caches (the design is immutable while
  // ---- the simulator lives, so raw pointers into it are stable).
  std::unordered_map<std::string, ir::StreamId, TransparentStringHash, std::equal_to<>>
      stream_ids_;
  std::unordered_map<const ir::Op*, OpAssertInfo> op_assertions_;
  std::unordered_map<const ir::AssertionRecord*, CheckerCache> checkers_;
  /// CPU-consumer streams with undelivered words, drained in id order.
  std::vector<ir::StreamId> dirty_cpu_streams_;
  /// Reusable argument buffer (externs cannot nest).
  std::vector<BitVector> extern_args_;
  bool tracing_ = false;        // flips off once trace_limit is reached
  bool inject_faults_ = false;  // kHardware with a non-empty fault list
  trace::TraceEngine* ela_ = nullptr;  // cached opt_.ela
  metrics::Profiler* prof_ = nullptr;  // cached opt_.profile
  const Deadline* deadline_ = nullptr;  // cached opt_.deadline
  std::uint32_t deadline_poll_ = 0;     // counter-masked clock-read throttle
  bool deadline_hit_ = false;

  // ---- compiled engine (sim/compiled.h ABI) ----
  bool engine_active_ = false;
  std::string engine_note_;  // fallback reason when a compiled run interprets
  /// u64 memory images: when the engine is active *all* memories live
  /// here (compiled code indexes them directly; interpreted processes
  /// and checker evaluations branch to them) so both engines see one
  /// coherent memory. memories_ is the BitVector image used otherwise.
  std::vector<std::vector<std::uint64_t>> mem64_;
  std::array<const void*, kCbCount> cb_table_{};
  /// The process step_process_compiled is running (the poll callback
  /// carries no process index).
  ProcState* compiled_cur_ = nullptr;
  /// Set by compiled_poll when a control fault moved the resume point:
  /// step_process_compiled calls the function again in the same step.
  bool compiled_reenter_ = false;

  /// Throttled deadline poll: reads the clock once per 256 calls.
  /// Sets deadline_hit_ + halt_ and returns true when expired.
  bool poll_deadline() {
    if ((++deadline_poll_ & 255u) != 0 || !deadline_->expired()) return false;
    deadline_hit_ = true;
    halt_ = true;
    return true;
  }

  [[nodiscard]] ir::StreamId stream_by_name(std::string_view name) const;
  void init_state();

  /// Cached design_.find_assertion(op.assert_id) for assertion-carrying ops.
  [[nodiscard]] const ir::AssertionRecord* assertion_of(const ir::Op& op) const;
  /// Builds the structured hang diagnosis: every stuck process, the
  /// wait-for edges over BlockReason::kStreamEmpty/kStreamFull, and the
  /// proven deadlock cycle if one exists.
  [[nodiscard]] HangInfo diagnose_hang() const;

  /// Runs one process until it blocks, finishes or the design halts.
  /// Returns true if it made progress.
  bool step_process(ProcState& ps);
  /// Compiled-engine variant: one call into ps.cfn, then maps the
  /// returned action onto the interpreter's blocked/done bookkeeping.
  bool step_process_compiled(ProcState& ps);
  /// Attaches SimOptions::compiled if the engine can run this
  /// configuration; records the fallback reason otherwise.
  void init_engine();
  /// Callback surface for compiled code (cb_table_ slots). The generated
  /// function has already evaluated the op's predicate and timestamp.
  std::uint32_t compiled_exec_op(std::uint32_t pidx, std::uint32_t block, std::uint32_t op_idx,
                                 std::uint64_t at);
  static std::uint32_t cb_exec_trampoline(void* sim, std::uint32_t pidx, std::uint32_t block,
                                          std::uint32_t op, std::uint64_t at);
  static std::uint32_t cb_poll_trampoline(void* sim);
  /// Block-entry poll of compiled_cur_ (slot kCbPoll): the deadline
  /// first, then its control fault. True stops the function, which
  /// returns kRetHalted.
  bool compiled_poll();
  /// Applies ps.ctl_fault at a fresh block entry (see compiled_poll);
  /// true when it retired a block or redirected control.
  bool apply_control_fault(ProcState& ps);
  /// Operand value for a compiled process (regs64 at declared width).
  [[nodiscard]] BitVector value64_of(const ProcState& ps, const ir::Operand& o) const;
  [[nodiscard]] bool value64_any(const ProcState& ps, const ir::Operand& o) const;
  /// Executes ops of a sequential block starting at ps.op_idx; returns
  /// false if blocked.
  bool run_sequential_block(ProcState& ps);
  bool run_pipelined_loop(ProcState& ps);
  void advance_to_block(ProcState& ps, ir::BlockId next);

  /// Executes one op functionally at local time `at`. Returns false if
  /// blocked on a stream (state untouched).
  bool exec_op(ProcState& ps, const ir::Op& op, std::uint64_t at);
  void record_trace(const ProcState& ps, const ir::Op& op, std::uint64_t at);

  /// Operand value as a reference into the register file (kReg) or the
  /// op's stored immediate (kImm) -- no BitVector copy on the hot path.
  [[nodiscard]] const BitVector& value_of(const ProcState& ps, const ir::Operand& o) const;
  [[nodiscard]] bool pred_active(const ProcState& ps, const ir::Op& op) const;
  [[nodiscard]] BitVector eval_bin_op(const ProcState& ps, const ir::Op& op) const;

  bool try_stream_read(ProcState& ps, const ir::Op& op, std::uint64_t at);
  bool try_stream_write(ProcState& ps, const ir::Op& op, std::uint64_t at);
  void push_stream(ir::StreamId id, BitVector value, std::uint64_t at);
  /// A process-issued write with stream faults armed (both engines):
  /// counts the write, applies the fault to `value` and queues what the
  /// FIFO sees -- nothing for a dropped word, two for a duplicated one.
  void push_faulted_write(ir::StreamId id, BitVector& value, std::uint64_t at);
  /// Flags a CPU-bound stream for the next drain_cpu_streams() pass.
  void mark_cpu_dirty(ir::StreamId id);

  void direct_assert_failure(std::uint32_t id, std::uint64_t at);
  /// Evaluates rec's checker block in `cc`, wiring the tap op's operand
  /// values (read from `ps`) into the checker input registers.
  void eval_checker(const ir::AssertionRecord& rec, CheckerCache& cc, const ProcState& ps,
                    const ir::Op& tap, std::uint64_t at);
  void fail_wire(const ir::AssertionRecord* rec, std::uint64_t at);
  void drain_cpu_streams();

  [[nodiscard]] const ExternRegistry::Fn* extern_fn(const std::string& name) const;
};

/// Convenience: schedule + simulate in one call.
[[nodiscard]] RunResult simulate(const ir::Design& design, const ExternRegistry& externs,
                                 const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                                 SimOptions options = {});

}  // namespace hlsav::sim
