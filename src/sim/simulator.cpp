#include "sim/simulator.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "metrics/profile.h"
#include "trace/trace.h"

namespace hlsav::sim {

using ir::BasicBlock;
using ir::Op;
using ir::OpKind;
using ir::Operand;

namespace {

bool is_control_fault(const FaultSpec& f) {
  return f.kind == FaultKind::kFsmSkipBlock || f.kind == FaultKind::kFsmStuckBranch;
}

bool in_pipelined_loop(const ir::Process& p, ir::BlockId b) {
  return std::any_of(p.loops.begin(), p.loops.end(), [b](const ir::LoopInfo& l) {
    return l.pipelined && (l.header == b || l.body == b);
  });
}

/// Why the compiled engine cannot apply `faults`, or empty when it can.
/// Stream, extern and channel faults apply in the callbacks both engines
/// share, and control faults from the compiled block-entry poll
/// (Simulator::compiled_poll). What compiled code executes natively --
/// compares, BRAM ports, a pipelined loop's iterations -- cannot be
/// faulted without emitted code.
std::string compiled_fault_decline(const ir::Design& design, const FaultEngine& faults) {
  std::map<std::string_view, unsigned> control_faults_of;
  for (const FaultSpec& f : faults.faults()) {
    if (f.kind == FaultKind::kNarrowCompare || f.kind == FaultKind::kBramBitFlip ||
        f.kind == FaultKind::kBramStuckAt) {
      return std::string(fault_kind_name(f.kind)) + " fault armed";
    }
    if (!is_control_fault(f)) continue;
    const ir::Process* p = design.find_process(f.process);
    if (p != nullptr && in_pipelined_loop(*p, f.block)) {
      return std::string(fault_kind_name(f.kind)) + " fault inside a pipelined loop";
    }
    if (++control_faults_of[f.process] > 1) {
      return "more than one control fault in process '" + f.process + "'";
    }
  }
  return {};
}

/// The control fault that changes `p`'s control flow, or null. A stuck
/// branch on a block that does not end in a branch is inert in the
/// interpreter, so it arms nothing here either.
const FaultSpec* control_fault_of(const FaultEngine& faults, const ir::Process& p) {
  for (const FaultSpec& f : faults.faults()) {
    if (!is_control_fault(f) || f.process != p.name || f.block >= p.blocks.size()) continue;
    if (f.kind == FaultKind::kFsmStuckBranch &&
        p.block(f.block).term.kind != ir::TermKind::kBranch) {
      continue;
    }
    return &f;
  }
  return nullptr;
}

}  // namespace

Simulator::Simulator(const ir::Design& design, const sched::DesignSchedule& schedule,
                     const ExternRegistry& externs, SimOptions options)
    : design_(design), schedule_(schedule), externs_(externs), opt_(options), notify_(design) {
  init_state();
}

void Simulator::init_state() {
  tracing_ = opt_.trace;
  ela_ = opt_.ela;
  prof_ = opt_.profile;
  deadline_ = opt_.deadline;
  inject_faults_ = opt_.mode == SimMode::kHardware && !opt_.faults.empty();
  if (inject_faults_) stream_write_seq_.assign(design_.streams.size(), 0);

  streams_.resize(design_.streams.size());
  stream_ids_.reserve(design_.streams.size());
  for (const ir::Stream& s : design_.streams) {
    streams_[s.id].depth = s.depth;
    streams_[s.id].cpu_producer = s.producer.kind == ir::StreamEndpoint::Kind::kCpu;
    streams_[s.id].cpu_consumer = s.consumer.kind == ir::StreamEndpoint::Kind::kCpu;
    stream_ids_.emplace(s.name, s.id);  // first name wins, as in a linear scan
  }
  dirty_cpu_streams_.reserve(streams_.size());

  memories_.resize(design_.memories.size());
  for (const ir::Memory& m : design_.memories) {
    auto& mem = memories_[m.id];
    mem.assign(m.size, BitVector(m.width));
    for (std::size_t i = 0; i < m.init.size(); ++i) mem[i] = m.init[i];
  }

  // Resolve every per-op linear lookup once: assertion-carrying ops map
  // to their records, checker processes to a preallocated register file.
  // Both indices below keep the first match, like the linear scans in
  // Design::find_assertion / find_process.
  std::unordered_map<std::uint32_t, const ir::AssertionRecord*> records_by_id;
  records_by_id.reserve(design_.assertions.size());
  for (const ir::AssertionRecord& rec : design_.assertions) {
    records_by_id.emplace(rec.id, &rec);
  }
  std::unordered_map<std::string_view, const ir::Process*> procs_by_name;
  procs_by_name.reserve(design_.processes.size());
  for (const auto& p : design_.processes) procs_by_name.emplace(p->name, p.get());
  std::unordered_map<std::string_view, const sched::ProcessSchedule*> scheds_by_name;
  scheds_by_name.reserve(schedule_.processes.size());
  for (const sched::ProcessSchedule& s : schedule_.processes) {
    scheds_by_name.emplace(s.process, &s);
  }

  checkers_.reserve(design_.assertions.size());
  for (const ir::AssertionRecord& rec : design_.assertions) {
    if (rec.checker_process.empty()) continue;
    auto pit = procs_by_name.find(rec.checker_process);
    const ir::Process* chk = pit == procs_by_name.end() ? nullptr : pit->second;
    if (chk == nullptr) continue;  // exec_op reports this if ever tapped
    CheckerCache cc;
    cc.proc = chk;
    cc.block = &chk->block(rec.checker_block != ir::kNoBlock ? rec.checker_block : chk->entry);
    cc.fresh.reserve(chk->regs.size());
    for (const ir::Register& r : chk->regs) cc.fresh.emplace_back(r.width);
    cc.scratch = cc.fresh;
    cc.touched.assign(rec.checker_inputs.begin(), rec.checker_inputs.end());
    for (const Op& op : cc.block->ops) {
      switch (op.kind) {
        case OpKind::kBin:
        case OpKind::kUn:
        case OpKind::kCopy:
        case OpKind::kResize:
        case OpKind::kLoad:
        case OpKind::kCallExtern:
          cc.touched.push_back(op.dest);
          break;
        default:
          break;
      }
    }
    std::sort(cc.touched.begin(), cc.touched.end());
    cc.touched.erase(std::unique(cc.touched.begin(), cc.touched.end()), cc.touched.end());
    checkers_.emplace(&rec, std::move(cc));
  }
  op_assertions_.reserve(design_.assertions.size() * 2);
  for (const auto& p : design_.processes) {
    for (const BasicBlock& b : p->blocks) {
      for (const Op& op : b.ops) {
        switch (op.kind) {
          case OpKind::kAssertTap:
          case OpKind::kAssertFailWire:
          case OpKind::kAssertCycles: {
            auto it = records_by_id.find(op.assert_id);
            OpAssertInfo info;
            info.rec = it == records_by_id.end() ? nullptr : it->second;
            if (info.rec != nullptr) {
              auto cit = checkers_.find(info.rec);
              if (cit != checkers_.end()) info.checker = &cit->second;
            }
            op_assertions_.emplace(&op, info);
            break;
          }
          default:
            break;
        }
      }
    }
  }

  procs_.reserve(design_.processes.size());
  for (const auto& p : design_.processes) {
    if (p->role != ir::ProcessRole::kApplication) continue;
    ProcState ps;
    ps.proc = p.get();
    auto sit = scheds_by_name.find(p->name);
    ps.sched = sit == scheds_by_name.end() ? nullptr : sit->second;
    HLSAV_CHECK(ps.sched != nullptr, "no schedule for process " + p->name);
    ps.cur = p->entry;
    ps.cur_block = &p->block(p->entry);
    ps.cur_sched = &ps.sched->of(p->entry);
    ps.regs.reserve(p->regs.size());
    for (const ir::Register& r : p->regs) ps.regs.emplace_back(r.width);
    if (prof_ != nullptr) ps.prof_idx = prof_->index_of(p.get());
    procs_.push_back(std::move(ps));
  }

  init_engine();
}

void Simulator::init_engine() {
  if (opt_.engine == SimEngine::kInterpreter) return;
  // Fallback contract: a compiled request downgrades to interpretation
  // (never an error) whenever the configuration needs interpreter-only
  // machinery; the reason is reported through engine_note().
  if (opt_.compiled == nullptr || opt_.compiled->procs.empty()) {
    engine_note_ = "no compiled design attached";
    return;
  }
  if (opt_.trace) {
    engine_note_ = "trace capture armed; compiled engine declines, interpreting";
    return;
  }
  if (opt_.ela != nullptr) {
    engine_note_ = "ELA capture armed; compiled engine declines, interpreting";
    return;
  }
  if (opt_.profile != nullptr) {
    engine_note_ = "profiler armed; compiled engine declines, interpreting";
    return;
  }
  if (inject_faults_) {
    std::string why = compiled_fault_decline(design_, opt_.faults);
    if (!why.empty()) {
      engine_note_ = why + "; compiled engine declines, interpreting";
      return;
    }
  }
  for (const ir::Memory& m : design_.memories) {
    if (m.width > 64) {
      engine_note_ = "memory '" + m.name + "' wider than 64 bits; interpreting";
      return;
    }
  }

  // Both lists are in declaration order (codegen skips only the
  // processes it declined), so one walk matches them.
  std::size_t attached = 0;
  const std::vector<CompiledProc>& cprocs = opt_.compiled->procs;
  std::size_t next = 0;
  for (std::size_t i = 0; i < procs_.size() && next < cprocs.size(); ++i) {
    ProcState& ps = procs_[i];
    const CompiledProc& cp = cprocs[next];
    if (cp.process != ps.proc->name) continue;
    ++next;
    if (cp.fn == nullptr) continue;
    ps.cfn = cp.fn;
    ps.regs64.assign(ps.proc->regs.size(), 0);
    ps.st.fill(0);
    ps.st[kStMaxCycles] = opt_.max_cycles;
    ps.st[kStResumeBlock] = ps.proc->entry;
    ps.st[kStPidx] = i;
    if (inject_faults_) ps.ctl_fault = control_fault_of(opt_.faults, *ps.proc);
    if (deadline_ != nullptr || ps.ctl_fault != nullptr) ps.st[kStFlags] |= kStFlagPoll;
    ++attached;
  }
  if (attached == 0) {
    engine_note_ = "compiled design covers no process of this design; interpreting";
    return;
  }
  engine_active_ = true;

  // One coherent memory image for both engines: compiled code indexes
  // raw u64 arrays, interpreted processes and checkers branch to them.
  mem64_.resize(design_.memories.size());
  for (const ir::Memory& m : design_.memories) {
    auto& mem = mem64_[m.id];
    mem.assign(m.size, 0);
    for (std::size_t i = 0; i < m.init.size() && i < mem.size(); ++i) {
      mem[i] = m.init[i].to_u64();
    }
  }
  for (ProcState& ps : procs_) {
    if (ps.cfn == nullptr) continue;
    for (ir::MemId id : ps.proc->memories_accessed()) ps.mems64.push_back(mem64_[id].data());
  }
  cb_table_[kCbStreamRead] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbStreamWrite] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbExtern] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbAssert] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbPoll] = reinterpret_cast<const void*>(&Simulator::cb_poll_trampoline);
}

ir::StreamId Simulator::stream_by_name(std::string_view name) const {
  auto it = stream_ids_.find(name);
  if (it == stream_ids_.end()) {
    internal_error("sim", 0, "unknown stream '" + std::string(name) + "'");
  }
  return it->second;
}

const ir::AssertionRecord* Simulator::assertion_of(const Op& op) const {
  auto it = op_assertions_.find(&op);
  return it == op_assertions_.end() ? design_.find_assertion(op.assert_id) : it->second.rec;
}

void Simulator::feed(std::string_view stream_name, const std::vector<std::uint64_t>& values) {
  feed(stream_by_name(stream_name), values);
}

void Simulator::feed(ir::StreamId stream, const std::vector<std::uint64_t>& values) {
  const ir::Stream& s = design_.stream(stream);
  HLSAV_CHECK(streams_[stream].cpu_producer, "feed into a non-CPU-fed stream");
  for (std::uint64_t v : values) {
    // Silent truncation here would make a bad harness input look exactly
    // like an injected hardware fault; reject it loudly instead.
    HLSAV_CHECK(s.width >= 64 || (v >> s.width) == 0,
                "feed value " + std::to_string(v) + " does not fit stream '" + s.name + "' (" +
                    std::to_string(s.width) + " bits)");
    streams_[stream].fifo.push_back(FifoEntry{BitVector::from_u64(s.width, v), 0});
  }
  mark_cpu_dirty(stream);  // a CPU->CPU stream delivers on the next drain
}

Status Simulator::try_feed(std::string_view stream_name,
                           const std::vector<std::uint64_t>& values) {
  auto it = stream_ids_.find(stream_name);
  if (it == stream_ids_.end()) {
    return Status::invalid_argument("unknown stream '" + std::string(stream_name) + "'");
  }
  const ir::Stream& s = design_.stream(it->second);
  if (!streams_[it->second].cpu_producer) {
    return Status::invalid_argument("stream '" + s.name + "' is not CPU-fed");
  }
  for (std::uint64_t v : values) {
    if (s.width < 64 && (v >> s.width) != 0) {
      return Status::invalid_argument("feed value " + std::to_string(v) +
                                      " does not fit stream '" + s.name + "' (" +
                                      std::to_string(s.width) + " bits)");
    }
  }
  feed(it->second, values);
  return Status::ok_status();
}

std::vector<std::uint64_t> Simulator::received(std::string_view stream_name) const {
  ir::StreamId id = stream_by_name(stream_name);
  std::vector<std::uint64_t> out;
  for (const BitVector& v : streams_[id].cpu_received) out.push_back(v.to_u64());
  return out;
}

// ----------------------------------------------------------- operands --

const BitVector& Simulator::value_of(const ProcState& ps, const Operand& o) const {
  switch (o.kind) {
    case ir::OperandKind::kReg:
      return ps.regs[o.reg];
    case ir::OperandKind::kImm:
      return o.imm;
    case ir::OperandKind::kNone:
      break;
  }
  HLSAV_UNREACHABLE("value_of on empty operand");
}

bool Simulator::pred_active(const ProcState& ps, const Op& op) const {
  if (op.pred.is_none()) return true;
  bool v = value_of(ps, op.pred).any();
  return op.pred_negated ? !v : v;
}

BitVector Simulator::eval_bin_op(const ProcState& ps, const Op& op) const {
  const BitVector& a = value_of(ps, op.args[0]);
  const BitVector& b = value_of(ps, op.args[1]);
  if (inject_faults_) {
    // Translation-fault injection: erroneously narrowed comparison
    // (unsigned, as in the Impulse-C bug the paper reports).
    unsigned w = opt_.faults.narrow_width(ps.proc->name, op);
    if (w != 0 && w < a.width()) {
      BitVector na = a.trunc(w);
      BitVector nb = b.trunc(w);
      ir::BinKind k = op.bin;
      switch (k) {  // signed compares degrade to unsigned at the narrow width
        case ir::BinKind::kCmpLtS: k = ir::BinKind::kCmpLtU; break;
        case ir::BinKind::kCmpLeS: k = ir::BinKind::kCmpLeU; break;
        default: break;
      }
      return ir::eval_bin(k, na, nb);
    }
  }
  return ir::eval_bin(op.bin, a, b);
}

// ------------------------------------------------------------ streams --

bool Simulator::try_stream_read(ProcState& ps, const Op& op, std::uint64_t at) {
  StreamState& st = streams_[op.stream];
  if (st.fifo.empty()) {
    ps.blocked = true;
    ps.blocked_at = op.loc;
    ps.block_reason = BlockReason::kStreamEmpty;
    ps.blocked_stream = op.stream;
    if (prof_ != nullptr) prof_->blocked_poll(ps.prof_idx, op.stream, /*write=*/false);
    return false;
  }
  FifoEntry e = std::move(st.fifo.front());
  st.fifo.pop_front();
  if (e.time > at) {
    // The producer delivered later than this process's clock: stall.
    std::uint64_t stall = e.time - at;
    if (prof_ != nullptr) {
      // Charge the stall to the FSM state issuing the read (its offset
      // from the block/iteration entry, pre-bump).
      ir::BlockId pb = ps.pipe ? ps.pipe->loop->body : ps.cur;
      std::uint64_t base = ps.pipe ? ps.pipe->start_cycle + ps.pipe->iter * ps.pipe->bs->ii
                                   : ps.block_entry_cycle;
      prof_->read_stall(ps.prof_idx, pb, static_cast<unsigned>(at - base), op.stream, at,
                        stall);
    }
    ps.block_entry_cycle += stall;
    if (ps.pipe) ps.pipe->start_cycle += stall;
  }
  ps.regs[op.dest] = std::move(e.value);
  if (ela_ != nullptr) ela_->stream_pop(ps.proc, op.stream, ps.regs[op.dest], at, op.loc);
  return true;
}

bool Simulator::try_stream_write(ProcState& ps, const Op& op, std::uint64_t at) {
  StreamState& st = streams_[op.stream];
  if (!st.cpu_consumer && st.fifo.size() >= st.depth) {
    ps.blocked = true;
    ps.blocked_at = op.loc;
    ps.block_reason = BlockReason::kStreamFull;
    ps.blocked_stream = op.stream;
    if (prof_ != nullptr) prof_->blocked_poll(ps.prof_idx, op.stream, /*write=*/true);
    return false;
  }
  if (inject_faults_) {
    BitVector v = value_of(ps, op.args[0]);
    push_faulted_write(op.stream, v, at);
    // The process-side handshake happens even for a dropped word; the
    // trace records the (possibly corrupted) value the FIFO saw.
    if (ela_ != nullptr) ela_->stream_push(ps.proc, op.stream, v, at, op.loc);
    return true;
  }
  // Data crosses the channel one cycle after the send issues.
  st.fifo.push_back(FifoEntry{value_of(ps, op.args[0]), at + 1});
  if (ela_ != nullptr) ela_->stream_push(ps.proc, op.stream, st.fifo.back().value, at, op.loc);
  mark_cpu_dirty(op.stream);
  return true;
}

void Simulator::push_faulted_write(ir::StreamId id, BitVector& value, std::uint64_t at) {
  // Handshake faults: the word is counted as sent by the process even
  // when the FIFO drops it (that is the fault being modelled).
  FaultEngine::StreamAction act = opt_.faults.on_stream_write(id, stream_write_seq_[id]++, value);
  if (act == FaultEngine::StreamAction::kDrop) return;
  StreamState& st = streams_[id];
  st.fifo.push_back(FifoEntry{value, at + 1});
  if (act == FaultEngine::StreamAction::kDup) st.fifo.push_back(FifoEntry{value, at + 1});
  mark_cpu_dirty(id);
}

void Simulator::push_stream(ir::StreamId id, BitVector value, std::uint64_t at) {
  streams_[id].fifo.push_back(FifoEntry{std::move(value), at});
  mark_cpu_dirty(id);
}

void Simulator::mark_cpu_dirty(ir::StreamId id) {
  StreamState& st = streams_[id];
  if (!st.cpu_consumer || st.dirty) return;
  st.dirty = true;
  dirty_cpu_streams_.push_back(id);
}

// --------------------------------------------------------- assertions --

void Simulator::direct_assert_failure(std::uint32_t id, std::uint64_t at) {
  if (notify_.on_direct(id, at)) halt_ = true;
}

void Simulator::fail_wire(const ir::AssertionRecord* rec, std::uint64_t at) {
  HLSAV_CHECK(rec != nullptr && rec->fail_stream != ir::kNoStream,
              "fail wire without a collector stream");
  std::uint64_t word = std::uint64_t{1} << rec->fail_bit;
  const ir::Stream& s = design_.stream(rec->fail_stream);
  push_stream(rec->fail_stream, BitVector::from_u64(s.width, word), at);
}

void Simulator::eval_checker(const ir::AssertionRecord& rec, CheckerCache& cc,
                             const ProcState& ps, const Op& tap, std::uint64_t at) {
  const ir::Process* chk = cc.proc;

  // Fresh register file per evaluation: scratch only ever diverges from
  // the template at the touched registers, so restore just those, then
  // wire in the tapped values straight from the application's registers.
  std::vector<BitVector>& regs = cc.scratch;
  for (ir::RegId r : cc.touched) regs[r] = cc.fresh[r];
  HLSAV_CHECK(tap.args.size() == rec.checker_inputs.size(), "tap arity mismatch");
  for (std::size_t i = 0; i < tap.args.size(); ++i) {
    regs[rec.checker_inputs[i]] = value_of(ps, tap.args[i]);
  }

  auto val = [&regs](const Operand& o) -> const BitVector& {
    return o.is_reg() ? regs[o.reg] : o.imm;
  };

  // Grouped checkers evaluate only this assertion's sub-block.
  bool failed = false;
  const BasicBlock& b = *cc.block;
  for (const Op& op : b.ops) {
    switch (op.kind) {
      case OpKind::kBin:
        regs[op.dest] = ir::eval_bin(op.bin, val(op.args[0]), val(op.args[1]));
        break;
      case OpKind::kUn:
        regs[op.dest] = ir::eval_un(op.un, val(op.args[0]));
        break;
      case OpKind::kCopy:
        regs[op.dest] = val(op.args[0]);
        break;
      case OpKind::kResize: {
        bool sgn = op.resize == ir::ResizeKind::kSext;
        regs[op.dest] = val(op.args[0]).resize(chk->reg(op.dest).width, sgn);
        break;
      }
      case OpKind::kLoad: {
        std::uint64_t idx = val(op.args[0]).to_u64();
        const unsigned w = design_.memory(op.mem).width;
        if (engine_active_) {
          // Checker loads see the same u64 image the compiled engine does.
          const auto& mem = mem64_[op.mem];
          regs[op.dest] = idx < mem.size() ? BitVector::from_u64(w, mem[idx]) : BitVector(w);
        } else {
          const auto& mem = memories_[op.mem];
          regs[op.dest] = idx < mem.size() ? mem[idx] : BitVector(w);
        }
        break;
      }
      case OpKind::kCallExtern: {
        const ExternRegistry::Fn* fn = extern_fn(op.callee);
        HLSAV_CHECK(fn != nullptr, "unbound extern function '" + op.callee + "'");
        extern_args_.clear();
        for (const Operand& a : op.args) extern_args_.push_back(val(a));
        regs[op.dest] = (*fn)(extern_args_).resize(chk->reg(op.dest).width, false);
        break;
      }
      case OpKind::kStreamWrite: {
        // The checker's failure send: predicated on the (negated)
        // condition. The +1 models the checker's notification latency,
        // which never stalls the application (paper §3.3).
        bool active = true;
        if (!op.pred.is_none()) {
          bool v = val(op.pred).any();
          active = op.pred_negated ? !v : v;
        }
        if (active) {
          push_stream(op.stream, val(op.args[0]), at + 1);
          failed = true;
        }
        break;
      }
      case OpKind::kAssertFailWire: {
        if (!val(op.args[0]).any()) {
          fail_wire(assertion_of(op), at + 1);
          failed = true;
        }
        break;
      }
      default:
        internal_error("sim", 0, "unexpected op in checker process");
    }
  }
  // The checker's verdict, attributed to the checker process (it owns
  // the failure wire) at the tap's source position.
  if (ela_ != nullptr) ela_->assert_verdict(chk, rec.id, failed, at, tap.loc);
  if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, rec.id, failed, at);
}

// ------------------------------------------------------------ op exec --

void Simulator::record_trace(const ProcState& ps, const Op& op, std::uint64_t at) {
  if (trace_.size() >= opt_.trace_limit) {
    tracing_ = false;
    return;
  }
  trace_.push_back(TraceEvent{at, ps.proc->name, op.kind, op.loc});
}

bool Simulator::exec_op(ProcState& ps, const Op& op, std::uint64_t at) {
  if (!pred_active(ps, op)) return true;
  if (tracing_) record_trace(ps, op, at);
  switch (op.kind) {
    case OpKind::kBin:
      ps.regs[op.dest] = eval_bin_op(ps, op);
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      return true;
    case OpKind::kUn:
      ps.regs[op.dest] = ir::eval_un(op.un, value_of(ps, op.args[0]));
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      return true;
    case OpKind::kCopy:
      ps.regs[op.dest] = value_of(ps, op.args[0]);
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      return true;
    case OpKind::kResize: {
      bool sgn = op.resize == ir::ResizeKind::kSext;
      ps.regs[op.dest] = value_of(ps, op.args[0]).resize(ps.proc->reg(op.dest).width, sgn);
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      return true;
    }
    case OpKind::kLoad: {
      std::uint64_t idx = value_of(ps, op.args[0]).to_u64();
      const unsigned w = design_.memory(op.mem).width;
      if (engine_active_) {
        // Engine-active runs keep memories as u64 images shared with
        // compiled processes (see init_engine).
        const auto& mem = mem64_[op.mem];
        ps.regs[op.dest] = idx < mem.size() ? BitVector::from_u64(w, mem[idx]) : BitVector(w);
        return true;
      }
      const auto& mem = memories_[op.mem];
      // Out-of-range addresses read X in hardware; model as zero.
      ps.regs[op.dest] = idx < mem.size() ? mem[idx] : BitVector(w);
      if (ela_ != nullptr) {
        ela_->bram_read(ps.proc, op.mem, idx, ps.regs[op.dest], at, op.loc);
        ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      }
      return true;
    }
    case OpKind::kStore: {
      std::uint64_t idx = value_of(ps, op.args[0]).to_u64();
      if (engine_active_) {
        auto& mem = mem64_[op.mem];
        if (idx < mem.size()) mem[idx] = value_of(ps, op.args[1]).to_u64();
        return true;
      }
      auto& mem = memories_[op.mem];
      if (idx < mem.size()) {
        if (inject_faults_) {
          BitVector v = value_of(ps, op.args[1]);
          opt_.faults.on_bram_write(op.mem, idx, v);
          mem[idx] = std::move(v);
        } else {
          mem[idx] = value_of(ps, op.args[1]);
        }
        // mem[idx] holds what the port actually wrote, faults included.
        if (ela_ != nullptr) ela_->bram_write(ps.proc, op.mem, idx, mem[idx], at, op.loc);
      }
      return true;
    }
    case OpKind::kStreamRead:
      return try_stream_read(ps, op, at);
    case OpKind::kStreamWrite:
      return try_stream_write(ps, op, at);
    case OpKind::kCallExtern: {
      const ExternRegistry::Fn* fn = extern_fn(op.callee);
      HLSAV_CHECK(fn != nullptr, "unbound extern function '" + op.callee + "'");
      extern_args_.clear();
      for (const Operand& a : op.args) extern_args_.push_back(value_of(ps, a));
      ps.regs[op.dest] = (*fn)(extern_args_).resize(ps.proc->reg(op.dest).width, false);
      if (inject_faults_) opt_.faults.on_extern_result(op.callee, ps.regs[op.dest]);
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, ps.regs[op.dest], at, op.loc);
      return true;
    }
    case OpKind::kAssert: {
      // Direct evaluation: software simulation / pre-synthesis designs.
      bool failed = !value_of(ps, op.args[0]).any();
      if (ela_ != nullptr) ela_->assert_verdict(ps.proc, op.assert_id, failed, at, op.loc);
      if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, op.assert_id, failed, at);
      if (failed) direct_assert_failure(op.assert_id, at);
      return true;
    }
    case OpKind::kAssertTap: {
      auto it = op_assertions_.find(&op);
      const ir::AssertionRecord* rec =
          it != op_assertions_.end() ? it->second.rec : design_.find_assertion(op.assert_id);
      HLSAV_CHECK(rec != nullptr, "tap without assertion record");
      CheckerCache* cc = it != op_assertions_.end() ? it->second.checker : nullptr;
      HLSAV_CHECK(cc != nullptr, "missing checker process " + rec->checker_process);
      eval_checker(*rec, *cc, ps, op, at);
      return true;
    }
    case OpKind::kAssertFailWire: {
      bool failed = !value_of(ps, op.args[0]).any();
      if (ela_ != nullptr) ela_->assert_verdict(ps.proc, op.assert_id, failed, at, op.loc);
      if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, op.assert_id, failed, at);
      if (failed) fail_wire(assertion_of(op), at + 1);
      return true;
    }
    case OpKind::kAssertCycles: {
      // Timing assertion: cycles elapsed since the previous marker in
      // this process (or process start) must not exceed the budget.
      std::uint64_t elapsed = at >= ps.cycle_marker ? at - ps.cycle_marker : 0;
      ps.cycle_marker = at;
      if (ela_ != nullptr) {
        ela_->assert_verdict(ps.proc, op.assert_id, elapsed > op.cycle_bound, at, op.loc);
      }
      if (prof_ != nullptr) {
        prof_->assert_eval(ps.prof_idx, op.assert_id, elapsed > op.cycle_bound, at);
      }
      if (elapsed > op.cycle_bound) {
        const ir::AssertionRecord* rec = assertion_of(op);
        if (rec != nullptr && rec->fail_stream != ir::kNoStream &&
            design_.stream(rec->fail_stream).role == ir::StreamRole::kAssertPacked) {
          fail_wire(rec, at + 1);
        } else if (rec != nullptr && rec->fail_stream != ir::kNoStream) {
          push_stream(rec->fail_stream,
                      BitVector::from_u64(design_.stream(rec->fail_stream).width,
                                          rec->fail_code),
                      at + 1);
        } else {
          direct_assert_failure(op.assert_id, at);
        }
      }
      return true;
    }
  }
  HLSAV_UNREACHABLE("bad op kind");
}

// -------------------------------------------------------- block stepping --

void Simulator::advance_to_block(ProcState& ps, ir::BlockId next) {
  if (ela_ != nullptr) ela_->fsm_state(ps.proc, next, ps.cycle);
  ps.cur = next;
  ps.op_idx = 0;
  ps.block_entry_cycle = ps.cycle;
  ps.cur_block = &ps.proc->block(next);
  ps.cur_sched = &ps.sched->of(next);
  // Entering the header of a pipelined loop switches to pipeline mode.
  for (const ir::LoopInfo& l : ps.proc->loops) {
    if (l.pipelined && l.header == next) {
      ps.pipe = PipeCtx{&l,
                        0,
                        ps.cycle,
                        &ps.proc->block(l.header),
                        &ps.proc->block(l.body),
                        &ps.sched->of(l.body)};
      return;
    }
  }
  ps.pipe.reset();
}

bool Simulator::run_sequential_block(ProcState& ps) {
  const BasicBlock& b = *ps.cur_block;
  const sched::BlockSchedule& bs = *ps.cur_sched;
  // FSM skip fault: the block's datapath ops never execute; control
  // falls straight through to the terminator on stale register values.
  if (inject_faults_ && ps.op_idx == 0 && opt_.faults.skip_block(ps.proc->name, ps.cur)) {
    ps.op_idx = b.ops.size();
  }
  // Pure register ops with no predicate need neither a timestamp nor the
  // full dispatch; folding them here inlines the small-width BitVector
  // fast paths into the loop. Tracing or fault injection disables the
  // shortcut (both need the exec_op path); tracing_ can only flip *off*
  // mid-run, so a stale false just keeps the slow-but-equivalent path.
  // An armed ELA needs every register write, so it too takes exec_op.
  const bool fast = !tracing_ && !inject_faults_ && ela_ == nullptr;
  bool progress = false;
  while (ps.op_idx < b.ops.size()) {
    const Op& op = b.ops[ps.op_idx];
    if (fast && op.pred.is_none()) {
      bool took_fast = true;
      switch (op.kind) {
        case OpKind::kBin:
          ps.regs[op.dest] = ir::eval_bin(op.bin, value_of(ps, op.args[0]),
                                          value_of(ps, op.args[1]));
          break;
        case OpKind::kUn:
          ps.regs[op.dest] = ir::eval_un(op.un, value_of(ps, op.args[0]));
          break;
        case OpKind::kCopy:
          ps.regs[op.dest] = value_of(ps, op.args[0]);
          break;
        case OpKind::kResize:
          ps.regs[op.dest] = value_of(ps, op.args[0])
                                 .resize(ps.proc->reg(op.dest).width,
                                         op.resize == ir::ResizeKind::kSext);
          break;
        default:
          took_fast = false;
          break;
      }
      if (took_fast) {
        ++ps.op_idx;
        progress = true;
        continue;
      }
    }
    std::uint64_t at = ps.block_entry_cycle +
                       (ps.op_idx < bs.op_state.size() ? bs.op_state[ps.op_idx] : 0);
    if (!exec_op(ps, op, at)) return progress;
    ++ps.op_idx;
    progress = true;
  }
  ps.cycle = ps.block_entry_cycle + bs.num_states;
  // Retire hook before the terminator switch: advance_to_block rewrites
  // ps.cur, and the profiler's timing check wants the block that ran.
  if (prof_ != nullptr) prof_->block_retired(ps.prof_idx, ps.cur, ps.cycle);
  switch (b.term.kind) {
    case ir::TermKind::kJump:
      advance_to_block(ps, b.term.on_true);
      break;
    case ir::TermKind::kBranch: {
      bool taken = value_of(ps, b.term.cond).any();
      if (inject_faults_) {
        // FSM stuck-branch fault: a corrupted next-state register always
        // selects one successor, regardless of the condition.
        const bool* forced = opt_.faults.forced_branch(ps.proc->name, ps.cur);
        if (forced != nullptr) taken = *forced;
      }
      advance_to_block(ps, taken ? b.term.on_true : b.term.on_false);
      break;
    }
    case ir::TermKind::kReturn:
      ps.done = true;
      break;
  }
  return true;
}

bool Simulator::run_pipelined_loop(ProcState& ps) {
  PipeCtx& pc = *ps.pipe;
  const ir::LoopInfo& loop = *pc.loop;
  const BasicBlock& header = *pc.header;
  const BasicBlock& body = *pc.body;
  const sched::BlockSchedule& bs = *pc.bs;
  const std::size_t h = header.ops.size();
  const bool fast =
      !tracing_ && !inject_faults_ && ela_ == nullptr;  // see run_sequential_block
  bool progress = false;

  while (true) {
    std::uint64_t iter_base = pc.start_cycle + pc.iter * bs.ii;
    if (iter_base > opt_.max_cycles) {
      ps.blocked = true;
      ps.blocked_at = loop.loc;
      ps.block_reason = BlockReason::kCycleLimitPipelined;
      return progress;
    }
    // Header ops, then the loop test.
    while (ps.op_idx < h) {
      std::uint64_t at = iter_base + (ps.op_idx < bs.header_op_state.size()
                                          ? bs.header_op_state[ps.op_idx]
                                          : 0);
      if (!exec_op(ps, header.ops[ps.op_idx], at)) return progress;
      ++ps.op_idx;
      progress = true;
    }
    if (ps.op_idx == h) {
      bool taken = value_of(ps, header.term.cond).any();
      if (inject_faults_) {
        const bool* forced = opt_.faults.forced_branch(ps.proc->name, loop.header);
        if (forced != nullptr) taken = *forced;
      }
      if (!taken) {
        std::uint64_t n = pc.iter;
        ps.cycle = n == 0 ? pc.start_cycle + 1 : pc.start_cycle + bs.latency + (n - 1) * bs.ii;
        if (prof_ != nullptr) prof_->pipe_retired(ps.prof_idx, loop.body, ps.cycle, n);
        ps.pipe.reset();
        advance_to_block(ps, loop.exit);
        return true;
      }
      ++ps.op_idx;  // proceed into the body
      progress = true;
    }
    while (ps.op_idx - h - 1 < body.ops.size()) {
      std::size_t j = ps.op_idx - h - 1;
      const Op& op = body.ops[j];
      if (fast && op.pred.is_none() &&
          (op.kind == OpKind::kBin || op.kind == OpKind::kCopy)) {
        ps.regs[op.dest] = op.kind == OpKind::kBin
                               ? ir::eval_bin(op.bin, value_of(ps, op.args[0]),
                                              value_of(ps, op.args[1]))
                               : value_of(ps, op.args[0]);
        ++ps.op_idx;
        progress = true;
        continue;
      }
      std::uint64_t at = iter_base + (j < bs.op_state.size() ? bs.op_state[j] : 0);
      if (!exec_op(ps, op, at)) return progress;
      ++ps.op_idx;
      progress = true;
    }
    ++pc.iter;
    ps.op_idx = 0;
    if (halt_) return true;
    if (deadline_ != nullptr && poll_deadline()) return true;
  }
}

bool Simulator::step_process(ProcState& ps) {
  bool progress = false;
  while (!ps.done && !ps.blocked && !halt_) {
    if (deadline_ != nullptr && poll_deadline()) return progress;
    if (ps.cycle > opt_.max_cycles) {
      ps.blocked = true;
      ps.blocked_at = {};
      ps.block_reason = BlockReason::kCycleLimit;
      return progress;
    }
    bool p = ps.pipe ? run_pipelined_loop(ps) : run_sequential_block(ps);
    progress |= p;
    if (!p) break;
  }
  return progress;
}

// ------------------------------------------------- compiled engine --

bool Simulator::step_process_compiled(ProcState& ps) {
  ps.st[kStProgress] = 0;
  ps.st[kStHalt] = halt_ ? 1 : 0;
  compiled_cur_ = &ps;
  std::uint64_t r = ps.cfn(ps.regs64.data(), ps.st.data(), ps.mems64.data(), this,
                           cb_table_.data());
  while (compiled_reenter_) {
    // A control fault moved the resume point (compiled_poll): call again
    // in the same step, as the interpreter's block loop continues;
    // returning to the round-robin would reorder the processes.
    compiled_reenter_ = false;
    r = ps.cfn(ps.regs64.data(), ps.st.data(), ps.mems64.data(), this, cb_table_.data());
  }
  ps.cycle = ps.st[kStCycle];
  switch (ret_tag(r)) {
    case kRetDone:
      ps.done = true;
      break;
    case kRetBlocked:
      ps.ctl_resuming = true;  // the next call's first poll is no block entry
      break;                   // blocked fields were set by the callback
    case kRetHalted:
      break;  // halt_ is up, or a skipped block returned (ps.done is set)
    case kRetCycleLimit:
      ps.blocked = true;
      ps.blocked_at = {};
      ps.block_reason = BlockReason::kCycleLimit;
      break;
    case kRetCycleLimitPipe:
      ps.blocked = true;
      ps.blocked_at = ps.proc->loops.at(ret_payload(r)).loc;
      ps.block_reason = BlockReason::kCycleLimitPipelined;
      break;
    default:
      internal_error("sim", 0, "compiled process returned unknown action");
  }
  return ps.st[kStProgress] != 0;
}

std::uint32_t Simulator::cb_exec_trampoline(void* sim, std::uint32_t pidx, std::uint32_t block,
                                            std::uint32_t op, std::uint64_t at) {
  return static_cast<Simulator*>(sim)->compiled_exec_op(pidx, block, op, at);
}

std::uint32_t Simulator::cb_poll_trampoline(void* sim) {
  return static_cast<Simulator*>(sim)->compiled_poll() ? 1u : 0u;
}

bool Simulator::compiled_poll() {
  if (deadline_ != nullptr && poll_deadline()) return true;
  ProcState& ps = *compiled_cur_;
  return ps.ctl_fault != nullptr && apply_control_fault(ps);
}

bool Simulator::apply_control_fault(ProcState& ps) {
  auto& st = ps.st;
  // Only a fresh block entry counts: its _f prologue just ran. A resume
  // after kRetBlocked also polls at op 0 of its block, and a pipelined
  // loop polls again at each iteration end (PipeIter > 0).
  const bool resuming = std::exchange(ps.ctl_resuming, false);
  if (resuming || st[kStResumeOp] != 0 || (st[kStInPipe] != 0 && st[kStPipeIter] != 0)) {
    return false;
  }
  const auto entered = static_cast<ir::BlockId>(st[kStResumeBlock]);
  const FaultSpec& f = *ps.ctl_fault;
  const BasicBlock& fb = ps.proc->block(f.block);
  ir::BlockId next = ir::kNoBlock;
  if (f.kind == FaultKind::kFsmStuckBranch) {
    // The faulted block's native branch already ran; a corrupted
    // next-state register sends control to the forced successor instead.
    if (std::exchange(ps.ctl_branch_pending, false)) {
      ir::BlockId forced = f.branch_taken ? fb.term.on_true : fb.term.on_false;
      if (entered != forced) next = forced;
    }
    if (next == ir::kNoBlock) {
      ps.ctl_branch_pending = entered == f.block;
      return false;
    }
  } else {
    // Skip-block, in the interpreter's order: the cycle-limit guard runs
    // first, then the block retires without its datapath ops and takes
    // its terminator on the stale registers.
    if (entered != f.block || st[kStCycle] > st[kStMaxCycles]) return false;
    st[kStCycle] = st[kStBlockEntry] + ps.sched->of(f.block).num_states;
    st[kStProgress] = 1;
    switch (fb.term.kind) {
      case ir::TermKind::kJump:
        next = fb.term.on_true;
        break;
      case ir::TermKind::kBranch:
        next = value64_any(ps, fb.term.cond) ? fb.term.on_true : fb.term.on_false;
        break;
      case ir::TermKind::kReturn:
        ps.done = true;
        return true;
    }
  }
  // Enter `next` the way its _f prologue would; with InPipe clear, a
  // pipelined header's dispatch runs that prologue itself.
  st[kStResumeBlock] = next;
  st[kStResumeOp] = 0;
  st[kStBlockEntry] = st[kStCycle];
  st[kStInPipe] = 0;
  compiled_reenter_ = true;
  return true;
}

BitVector Simulator::value64_of(const ProcState& ps, const Operand& o) const {
  if (o.is_reg()) return BitVector::from_u64(ps.proc->reg(o.reg).width, ps.regs64[o.reg]);
  return o.imm;
}

bool Simulator::value64_any(const ProcState& ps, const Operand& o) const {
  if (o.is_reg()) return ps.regs64[o.reg] != 0;
  return o.imm.any();
}

std::uint32_t Simulator::compiled_exec_op(std::uint32_t pidx, std::uint32_t block,
                                          std::uint32_t op_idx, std::uint64_t at) {
  ProcState& ps = procs_[pidx];
  const BasicBlock& b = ps.proc->blocks[block];
  const Op& op = b.ops[op_idx];
  // The generated code already evaluated the op's predicate and
  // timestamp; this executes the shared-state side exactly as exec_op
  // would with trace/ELA/profiler unarmed (the engine declines those
  // configurations), stream and extern faults included.
  switch (op.kind) {
    case OpKind::kStreamRead: {
      StreamState& st = streams_[op.stream];
      if (st.fifo.empty()) {
        ps.blocked = true;
        ps.blocked_at = op.loc;
        ps.block_reason = BlockReason::kStreamEmpty;
        ps.blocked_stream = op.stream;
        return kCbBlocked;
      }
      FifoEntry e = std::move(st.fifo.front());
      st.fifo.pop_front();
      if (e.time > at) {
        // Producer delivered later than this clock: stall the block (and
        // a pipelined loop's start cycle) exactly like try_stream_read.
        std::uint64_t stall = e.time - at;
        ps.st[kStBlockEntry] += stall;
        ps.st[kStPipeStart] += stall;
      }
      ps.regs64[op.dest] = e.value.to_u64();
      break;
    }
    case OpKind::kStreamWrite: {
      StreamState& st = streams_[op.stream];
      if (!st.cpu_consumer && st.fifo.size() >= st.depth) {
        ps.blocked = true;
        ps.blocked_at = op.loc;
        ps.block_reason = BlockReason::kStreamFull;
        ps.blocked_stream = op.stream;
        return kCbBlocked;
      }
      if (inject_faults_) {
        BitVector v = value64_of(ps, op.args[0]);
        push_faulted_write(op.stream, v, at);
        break;
      }
      st.fifo.push_back(FifoEntry{value64_of(ps, op.args[0]), at + 1});
      mark_cpu_dirty(op.stream);
      break;
    }
    case OpKind::kCallExtern: {
      const ExternRegistry::Fn* fn = extern_fn(op.callee);
      HLSAV_CHECK(fn != nullptr, "unbound extern function '" + op.callee + "'");
      extern_args_.clear();
      for (const Operand& a : op.args) extern_args_.push_back(value64_of(ps, a));
      BitVector res = (*fn)(extern_args_).resize(ps.proc->reg(op.dest).width, false);
      if (inject_faults_) opt_.faults.on_extern_result(op.callee, res);
      ps.regs64[op.dest] = res.to_u64();
      break;
    }
    case OpKind::kAssert: {
      if (!value64_any(ps, op.args[0])) direct_assert_failure(op.assert_id, at);
      break;
    }
    case OpKind::kAssertTap: {
      auto it = op_assertions_.find(&op);
      const ir::AssertionRecord* rec =
          it != op_assertions_.end() ? it->second.rec : design_.find_assertion(op.assert_id);
      HLSAV_CHECK(rec != nullptr, "tap without assertion record");
      CheckerCache* cc = it != op_assertions_.end() ? it->second.checker : nullptr;
      HLSAV_CHECK(cc != nullptr, "missing checker process " + rec->checker_process);
      // eval_checker reads tap operands through ps.regs; materialize the
      // tapped registers from the u64 file first (a tap has few args).
      for (const Operand& a : op.args) {
        if (a.is_reg()) {
          ps.regs[a.reg] = BitVector::from_u64(ps.proc->reg(a.reg).width, ps.regs64[a.reg]);
        }
      }
      eval_checker(*rec, *cc, ps, op, at);
      break;
    }
    case OpKind::kAssertFailWire: {
      if (!value64_any(ps, op.args[0])) fail_wire(assertion_of(op), at + 1);
      break;
    }
    case OpKind::kAssertCycles: {
      std::uint64_t elapsed = at >= ps.cycle_marker ? at - ps.cycle_marker : 0;
      ps.cycle_marker = at;
      if (elapsed > op.cycle_bound) {
        const ir::AssertionRecord* rec = assertion_of(op);
        if (rec != nullptr && rec->fail_stream != ir::kNoStream &&
            design_.stream(rec->fail_stream).role == ir::StreamRole::kAssertPacked) {
          fail_wire(rec, at + 1);
        } else if (rec != nullptr && rec->fail_stream != ir::kNoStream) {
          push_stream(rec->fail_stream,
                      BitVector::from_u64(design_.stream(rec->fail_stream).width,
                                          rec->fail_code),
                      at + 1);
        } else {
          direct_assert_failure(op.assert_id, at);
        }
      }
      break;
    }
    default:
      internal_error("sim", 0, "compiled callback on a pure op");
  }
  ps.st[kStProgress] = 1;
  return halt_ ? kCbHalt : kCbOk;
}

namespace {

std::string reason_text(BlockReason reason, const std::string& stream) {
  switch (reason) {
    case BlockReason::kNone:
      return {};
    case BlockReason::kStreamEmpty:
      return "stream_read on '" + stream + "' (empty)";
    case BlockReason::kStreamFull:
      return "stream_write on '" + stream + "' (full)";
    case BlockReason::kCycleLimit:
      return "cycle limit exceeded";
    case BlockReason::kCycleLimitPipelined:
      return "cycle limit exceeded in pipelined loop";
  }
  return {};
}

}  // namespace

std::string HangInfo::render() const {
  std::ostringstream os;
  os << "application hang: no process can make progress\n";
  for (const HangWaiter& w : waiters) {
    os << "  process '" << w.process << "' stuck";
    if (w.loc.valid()) os << " at line " << w.loc.line;
    std::string why = reason_text(w.reason, w.stream);
    if (!why.empty()) os << ": " << why;
    os << " (cycle " << w.cycle << ")\n";
  }
  if (kind == HangKind::kDeadlockCycle && !cycle.empty()) {
    os << "  deadlock cycle: ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const HangWaiter& w = waiters[cycle[i]];
      if (i != 0) os << " <- ";
      os << w.process << " waits "
         << (w.reason == BlockReason::kStreamEmpty ? "read" : "write") << "('" << w.stream
         << "')";
    }
    os << " <- " << waiters[cycle.front()].process << "\n";
  }
  return os.str();
}

HangInfo Simulator::diagnose_hang() const {
  HangInfo info;
  // Waiter list in process order (matches the scheduler's step order).
  std::vector<std::size_t> proc_to_waiter(procs_.size(), SIZE_MAX);
  std::unordered_map<std::string_view, std::size_t> waiter_by_name;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const ProcState& ps = procs_[i];
    if (ps.done) continue;
    HangWaiter w;
    w.process = ps.proc->name;
    w.reason = ps.block_reason;
    if (ps.blocked_stream != ir::kNoStream &&
        (w.reason == BlockReason::kStreamEmpty || w.reason == BlockReason::kStreamFull)) {
      w.stream = design_.stream(ps.blocked_stream).name;
    }
    w.loc = ps.blocked_at;
    w.cycle = ps.cycle;
    proc_to_waiter[i] = info.waiters.size();
    waiter_by_name.emplace(ps.proc->name, info.waiters.size());
    info.waiters.push_back(std::move(w));
  }

  // Wait-for edges: a reader waits on the blocked stream's producer, a
  // writer on its consumer. Edges only exist between stuck hardware
  // processes -- a finished peer or the CPU means starvation, not
  // deadlock.
  bool any_cycle_limited = false;
  std::vector<std::size_t> succ(info.waiters.size(), SIZE_MAX);
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const ProcState& ps = procs_[i];
    if (ps.done) continue;
    std::size_t wi = proc_to_waiter[i];
    if (ps.cycle_limited()) {
      any_cycle_limited = true;
      continue;
    }
    if (ps.blocked_stream == ir::kNoStream) continue;
    const ir::Stream& s = design_.stream(ps.blocked_stream);
    const ir::StreamEndpoint& peer =
        ps.block_reason == BlockReason::kStreamEmpty ? s.producer : s.consumer;
    if (peer.kind != ir::StreamEndpoint::Kind::kProcess) continue;
    auto it = waiter_by_name.find(peer.process);
    if (it == waiter_by_name.end()) continue;  // peer finished (or is not stepped)
    succ[wi] = it->second;
    info.waiters[wi].waits_on = peer.process;
  }

  // Cycle detection in the functional wait-for graph (each node has at
  // most one outgoing edge): walk successors until a repeat.
  std::vector<std::uint8_t> color(info.waiters.size(), 0);  // 0 white, 1 on path, 2 done
  for (std::size_t start = 0; start < succ.size() && info.cycle.empty(); ++start) {
    std::vector<std::size_t> path;
    std::size_t v = start;
    while (v != SIZE_MAX && color[v] == 0) {
      color[v] = 1;
      path.push_back(v);
      v = succ[v];
    }
    if (v != SIZE_MAX && color[v] == 1) {
      auto cyc_start = std::find(path.begin(), path.end(), v);
      info.cycle.assign(cyc_start, path.end());
    }
    for (std::size_t n : path) color[n] = 2;
  }

  if (any_cycle_limited) {
    info.kind = HangKind::kCycleLimit;
  } else if (!info.cycle.empty()) {
    info.kind = HangKind::kDeadlockCycle;
  } else {
    info.kind = HangKind::kStarvation;
  }
  return info;
}

RunResult Simulator::run() {
  if (ela_ != nullptr) {
    // Initial FSM states: every process sits in its entry block at t=0
    // (advance_to_block only fires on transitions).
    for (const ProcState& ps : procs_) ela_->fsm_state(ps.proc, ps.cur, 0);
  }
  // An already-expired budget stops the run before the first cycle --
  // unconditionally, so an elapsed deadline is deterministic for tests
  // regardless of where the masked polls would have landed.
  if (deadline_ != nullptr && deadline_->expired()) {
    deadline_hit_ = true;
    halt_ = true;
  }
  bool progress = true;
  while (progress && !halt_) {
    progress = false;
    for (ProcState& ps : procs_) {
      if (ps.done) continue;
      if (ps.cycle_limited()) continue;  // never re-step a limited process
      ps.blocked = false;
      progress |= ps.cfn != nullptr ? step_process_compiled(ps) : step_process(ps);
      drain_cpu_streams();
      if (halt_) break;
    }
  }
  drain_cpu_streams();

  RunResult result;
  result.failures = notify_.failures();
  for (const ProcState& ps : procs_) result.cycles = std::max(result.cycles, ps.cycle);
  bool all_done = std::all_of(procs_.begin(), procs_.end(),
                              [](const ProcState& p) { return p.done; });
  if (deadline_hit_) {
    result.status = RunStatus::kDeadline;
  } else if (halt_) {
    result.status = RunStatus::kAborted;
  } else if (all_done) {
    result.status = RunStatus::kCompleted;
  } else {
    result.status = RunStatus::kHung;
    result.hang = diagnose_hang();
    result.hang_report = result.hang->render();
  }
  result.trace_truncated = opt_.trace && !tracing_;

  if (prof_ != nullptr) {
    for (const ProcState& ps : procs_) {
      metrics::EndKind ek = metrics::EndKind::kHalted;
      if (ps.done) {
        ek = metrics::EndKind::kFinished;
      } else if (ps.blocked && ps.block_reason == BlockReason::kStreamEmpty) {
        ek = metrics::EndKind::kBlockedRead;
      } else if (ps.blocked && ps.block_reason == BlockReason::kStreamFull) {
        ek = metrics::EndKind::kBlockedWrite;
      } else if (ps.cycle_limited()) {
        ek = metrics::EndKind::kCycleLimit;
      }
      ir::StreamId blocked = ek == metrics::EndKind::kBlockedRead ||
                                     ek == metrics::EndKind::kBlockedWrite
                                 ? ps.blocked_stream
                                 : ir::kNoStream;
      prof_->process_end(ps.prof_idx, ps.cycle, ek, blocked);
    }
    prof_->run_end(result.cycles, result.status == RunStatus::kCompleted);
  }
  return result;
}

void Simulator::drain_cpu_streams() {
  if (dirty_cpu_streams_.empty()) return;
  // Deliver in stream-id order so the multiplexed-channel slots match a
  // full scan over design_.streams exactly.
  std::sort(dirty_cpu_streams_.begin(), dirty_cpu_streams_.end());
  for (std::size_t i = 0; i < dirty_cpu_streams_.size(); ++i) {
    ir::StreamId id = dirty_cpu_streams_[i];
    StreamState& st = streams_[id];
    const ir::Stream& s = design_.stream(id);
    while (!st.fifo.empty()) {
      if (halt_) {
        // The abort stops the channel; later words stay queued (and the
        // streams stay dirty) but are never delivered.
        dirty_cpu_streams_.erase(dirty_cpu_streams_.begin(),
                                 dirty_cpu_streams_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
      FifoEntry e = std::move(st.fifo.front());
      st.fifo.pop_front();
      // Channel corruption faults hit the word in flight, whatever it
      // carries -- data or an assertion failure notification.
      if (inject_faults_) opt_.faults.on_channel_word(channel_word_seq_++, e.value);
      // All CPU-bound words share one physical channel (paper §3):
      // serialize delivery slots.
      std::uint64_t delivered = e.time;
      if (opt_.model_channel_mux) {
        delivered = std::max(e.time, channel_busy_until_ + 1);
        channel_busy_until_ = delivered;
      }
      bool is_assert_stream = s.role == ir::StreamRole::kAssertFail ||
                              s.role == ir::StreamRole::kAssertPacked;
      if (is_assert_stream) {
        if (notify_.on_word(s.id, e.value.to_u64(), delivered)) halt_ = true;
      } else {
        st.cpu_received.push_back(std::move(e.value));
      }
    }
    st.dirty = false;
  }
  dirty_cpu_streams_.clear();
}

std::string Simulator::render_trace(const SourceManager* sm) const {
  std::ostringstream os;
  for (const TraceEvent& e : trace_) {
    os << "[" << e.cycle << "] " << e.process << ": " << ir::op_kind_name(e.kind);
    if (e.loc.valid()) {
      os << " @ ";
      if (sm != nullptr) os << sm->name(e.loc.file) << ":";
      os << "line " << e.loc.line;
    }
    os << '\n';
  }
  return os.str();
}

const ExternRegistry::Fn* Simulator::extern_fn(const std::string& name) const {
  return opt_.mode == SimMode::kSoftware ? externs_.c_model(name) : externs_.hdl_model(name);
}

RunResult simulate(const ir::Design& design, const ExternRegistry& externs,
                   const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                   SimOptions options) {
  sched::DesignSchedule schedule = sched::schedule_design(design);
  Simulator sim(design, schedule, externs, options);
  for (const auto& [name, values] : feeds) sim.feed(name, values);
  return sim.run();
}

}  // namespace hlsav::sim
