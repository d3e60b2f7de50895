// Compiled-simulation ABI: the contract between the Simulator and
// AOT-compiled process functions produced by hlsav_codegen.
//
// A compiled process body is one C function driving a whole FSMD:
// straight-line native uint64_t arithmetic for every scheduled op,
// direct gotos between blocks, and callbacks into the Simulator for the
// ops that touch shared state (stream handshakes, extern calls,
// assertion machinery) or the block-entry poll (deadline, control
// faults). All mutable per-process state lives in buffers the Simulator
// owns and passes in, so a compiled function is reentrant and never
// blocks: when a stream op cannot complete it records its resume
// position in the state words and returns kRetBlocked; the next call
// re-enters at exactly that op.
//
// Nothing process-specific is baked into the function text: the
// process index a callback names is read from st[kStPidx], and memories
// are addressed through a per-process pointer table numbered by
// ir::Process::memories_accessed(). Processes whose FSMDs are identical
// (every stage of a loopback chain) therefore share one function.
//
// The simulator side of the contract lives here (sim must not depend on
// codegen); the generated-code side is a prelude hlsav_codegen emits
// from these same constants, so the numeric surface cannot drift. The
// only hand-synchronized text is the two typedefs below -- bump
// kCompiledAbiVersion whenever anything in this file changes shape, and
// stale cached .so files are rejected by their embedded version symbol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hlsav::sim {

/// Bump on any ABI change (state-word layout, callback table, return
/// encoding, exported symbol set). Part of the on-disk cache key and
/// embedded in every generated object.
inline constexpr std::uint32_t kCompiledAbiVersion = 2;

/// Execution engine selection (SimOptions::engine).
enum class SimEngine : std::uint8_t {
  kInterpreter,  // always interpret (the default)
  kCompiled,     // use attached compiled functions; interpret what they decline
  kAuto,         // same as kCompiled when a handle is attached, else interpret
};

// ---- per-process state words (the `st` argument) -----------------------
// All simulator<->compiled communication besides registers and memories
// goes through this fixed array of uint64 slots.
inline constexpr std::uint32_t kStCycle = 0;        // local clock
inline constexpr std::uint32_t kStBlockEntry = 1;   // local clock at block entry
inline constexpr std::uint32_t kStPipeStart = 2;    // pipelined loop start cycle
inline constexpr std::uint32_t kStPipeIter = 3;     // pipelined loop iteration
inline constexpr std::uint32_t kStMaxCycles = 4;    // SimOptions::max_cycles
inline constexpr std::uint32_t kStResumeBlock = 5;  // BlockId to resume in
inline constexpr std::uint32_t kStResumeOp = 6;     // op index to resume at
inline constexpr std::uint32_t kStProgress = 7;     // any op/retire progressed
inline constexpr std::uint32_t kStHalt = 8;         // design halted (finish block, then return)
inline constexpr std::uint32_t kStInPipe = 9;       // resume position is inside a pipelined loop
inline constexpr std::uint32_t kStFlags = 10;       // bit 0: call the block-entry poll
inline constexpr std::uint32_t kStPidx = 11;        // process index callbacks report
inline constexpr std::uint32_t kStWords = 12;

/// Set in the processes that need the kCbPoll callback at every block
/// entry and pipelined-iteration end: all of them when a deadline is
/// armed, and the one a skip-block or stuck-branch fault names, whose
/// fault the simulator applies from that poll (generated code never
/// sees a fault).
inline constexpr std::uint64_t kStFlagPoll = 1;

// ---- callback table (the `cb` argument) --------------------------------
inline constexpr std::uint32_t kCbStreamRead = 0;
inline constexpr std::uint32_t kCbStreamWrite = 1;
inline constexpr std::uint32_t kCbExtern = 2;
inline constexpr std::uint32_t kCbAssert = 3;
inline constexpr std::uint32_t kCbPoll = 4;
inline constexpr std::uint32_t kCbCount = 5;

/// Callback results.
inline constexpr std::uint32_t kCbOk = 0;
inline constexpr std::uint32_t kCbBlocked = 1;  // stream op cannot complete; resume here
inline constexpr std::uint32_t kCbHalt = 2;     // op completed and halted the design

/// Op callback: executes op `op` of block `block` of process `pidx` at
/// local time `at`. Slots kCbStreamRead..kCbAssert. Mirrored verbatim
/// in the generated prelude -- keep in sync with codegen::emit.
using OpCallbackFn = std::uint32_t (*)(void* sim, std::uint32_t pidx, std::uint32_t block,
                                       std::uint32_t op, std::uint64_t at);
/// Poll callback (slot kCbPoll): returns nonzero when the function must
/// return kRetHalted -- the wall-clock watchdog expired (the simulator
/// has already halted), or a control fault moved the resume position in
/// `st` and the simulator calls the function again.
using PollCallbackFn = std::uint32_t (*)(void* sim);

// ---- compiled process entry point --------------------------------------
/// Runs the process until it finishes, blocks, halts or trips a cycle
/// limit. Returns (tag << 32) | payload. `mems[k]` is the k-th memory
/// of ir::Process::memories_accessed() for the process being run.
using CompiledProcFn = std::uint64_t (*)(std::uint64_t* regs, std::uint64_t* st,
                                         std::uint64_t* const* mems, void* sim,
                                         const void* const* cb);

inline constexpr std::uint32_t kRetDone = 0;
inline constexpr std::uint32_t kRetBlocked = 1;  // resume position saved in st
inline constexpr std::uint32_t kRetHalted = 2;
inline constexpr std::uint32_t kRetCycleLimit = 3;
inline constexpr std::uint32_t kRetCycleLimitPipe = 4;  // payload: LoopInfo index

[[nodiscard]] inline std::uint32_t ret_tag(std::uint64_t r) {
  return static_cast<std::uint32_t>(r >> 32);
}
[[nodiscard]] inline std::uint32_t ret_payload(std::uint64_t r) {
  return static_cast<std::uint32_t>(r);
}

// ---- what the simulator consumes ---------------------------------------
/// One compiled application process, matched to the design by name.
/// Processes with identical bodies carry the same `fn`.
struct CompiledProc {
  std::string process;
  CompiledProcFn fn = nullptr;
};

/// The compiled design as the Simulator sees it: a borrowed view into a
/// loaded shared object. codegen::CompiledDesign owns the dlopen handle
/// and must outlive every Simulator its handle is attached to.
struct CompiledDesignHandle {
  /// Compiled processes (a subset of the application processes when
  /// codegen declined some), in declaration order. Matched by name in
  /// one walk alongside the design's processes; unmatched processes
  /// interpret as usual.
  std::vector<CompiledProc> procs;
  /// Content-address of the generated source (cache key component);
  /// informational.
  std::string key;
};

}  // namespace hlsav::sim
