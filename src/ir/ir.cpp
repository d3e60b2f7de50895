#include "ir/ir.h"

#include <algorithm>
#include <array>

namespace hlsav::ir {

// ------------------------------------------------------------ Process --

RegId Process::add_reg(std::string reg_name, unsigned width, bool is_signed) {
  Register r;
  r.id = static_cast<RegId>(regs.size());
  r.name = std::move(reg_name);
  r.width = width;
  r.is_signed = is_signed;
  regs.push_back(std::move(r));
  return regs.back().id;
}

BlockId Process::add_block(std::string block_name) {
  BasicBlock b;
  b.id = static_cast<BlockId>(blocks.size());
  b.name = std::move(block_name);
  blocks.push_back(std::move(b));
  return blocks.back().id;
}

BasicBlock& Process::block(BlockId id) {
  HLSAV_CHECK(id < blocks.size(), "bad block id");
  return blocks[id];
}

const BasicBlock& Process::block(BlockId id) const {
  HLSAV_CHECK(id < blocks.size(), "bad block id");
  return blocks[id];
}

Register& Process::reg(RegId id) {
  HLSAV_CHECK(id < regs.size(), "bad register id");
  return regs[id];
}

const Register& Process::reg(RegId id) const {
  HLSAV_CHECK(id < regs.size(), "bad register id");
  return regs[id];
}

const StreamPort* Process::find_port(std::string_view port_name) const {
  for (const StreamPort& p : ports) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

StreamPort* Process::find_port(std::string_view port_name) {
  for (StreamPort& p : ports) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

unsigned Process::operand_width(const Operand& o) const {
  switch (o.kind) {
    case OperandKind::kReg: return reg(o.reg).width;
    case OperandKind::kImm: return o.imm.width();
    case OperandKind::kNone: return 0;
  }
  return 0;
}

const LoopInfo* Process::loop_with_body(BlockId b) const {
  for (const LoopInfo& l : loops) {
    if (l.body == b) return &l;
  }
  return nullptr;
}

std::vector<MemId> Process::memories_accessed() const {
  std::vector<MemId> out;
  for (const BasicBlock& b : blocks) {
    for (const Op& op : b.ops) {
      if (op.is_memory_access() && std::find(out.begin(), out.end(), op.mem) == out.end()) {
        out.push_back(op.mem);
      }
    }
  }
  return out;
}

// ------------------------------------------------------------- Design --

Process& Design::add_process(std::string proc_name) {
  auto p = std::make_unique<Process>();
  p->name = std::move(proc_name);
  processes.push_back(std::move(p));
  return *processes.back();
}

StreamId Design::add_stream(std::string stream_name, unsigned width, unsigned depth,
                            StreamRole role) {
  Stream s;
  s.id = static_cast<StreamId>(streams.size());
  s.name = std::move(stream_name);
  s.width = width;
  s.depth = depth;
  s.role = role;
  streams.push_back(std::move(s));
  return streams.back().id;
}

MemId Design::add_memory(std::string mem_name, std::string owner, unsigned width, bool is_signed,
                         std::uint64_t size) {
  Memory m;
  m.id = static_cast<MemId>(memories.size());
  m.name = std::move(mem_name);
  m.owner_process = std::move(owner);
  m.width = width;
  m.is_signed = is_signed;
  m.size = size;
  memories.push_back(std::move(m));
  return memories.back().id;
}

Process* Design::find_process(std::string_view proc_name) {
  for (auto& p : processes) {
    if (p->name == proc_name) return p.get();
  }
  return nullptr;
}

const Process* Design::find_process(std::string_view proc_name) const {
  for (const auto& p : processes) {
    if (p->name == proc_name) return p.get();
  }
  return nullptr;
}

Stream& Design::stream(StreamId id) {
  HLSAV_CHECK(id < streams.size(), "bad stream id");
  return streams[id];
}

const Stream& Design::stream(StreamId id) const {
  HLSAV_CHECK(id < streams.size(), "bad stream id");
  return streams[id];
}

Memory& Design::memory(MemId id) {
  HLSAV_CHECK(id < memories.size(), "bad memory id");
  return memories[id];
}

const Memory& Design::memory(MemId id) const {
  HLSAV_CHECK(id < memories.size(), "bad memory id");
  return memories[id];
}

const ExternFunc* Design::find_extern(std::string_view fn_name) const {
  for (const ExternFunc& f : extern_funcs) {
    if (f.name == fn_name) return &f;
  }
  return nullptr;
}

const AssertionRecord* Design::find_assertion(std::uint32_t id) const {
  for (const AssertionRecord& a : assertions) {
    if (a.id == id) return &a;
  }
  return nullptr;
}

std::vector<StreamId> Design::live_stream_ids() const {
  std::vector<StreamId> ids;
  ids.reserve(streams.size());
  for (const Stream& s : streams) {
    if (!s.dead) ids.push_back(s.id);
  }
  return ids;
}

std::vector<const Process*> Design::application_processes() const {
  std::vector<const Process*> out;
  out.reserve(processes.size());
  for (const auto& p : processes) {
    if (p->role == ProcessRole::kApplication) out.push_back(p.get());
  }
  return out;
}

namespace {
// Detaches the stream previously bound to the port: the auto-created
// placeholder dies; ops referencing it are retargeted to the new stream.
void rebind_port(Design& d, Process& p, StreamPort& sp, StreamId s) {
  if (sp.stream != kNoStream && sp.stream != s) {
    Stream& old = d.stream(sp.stream);
    old.dead = true;
    old.producer = StreamEndpoint{};
    old.consumer = StreamEndpoint{};
    for (BasicBlock& b : p.blocks) {
      for (Op& op : b.ops) {
        if (op.is_stream_access() && op.stream == sp.stream) op.stream = s;
      }
    }
  }
  sp.stream = s;
}
}  // namespace

void Design::connect_producer(StreamId s, std::string_view proc_name, std::string_view port) {
  Process* p = find_process(proc_name);
  HLSAV_CHECK(p != nullptr, "connect_producer: unknown process");
  StreamPort* sp = p->find_port(port);
  HLSAV_CHECK(sp != nullptr, "connect_producer: unknown port");
  HLSAV_CHECK(!sp->is_input, "connect_producer: port is an input");
  rebind_port(*this, *p, *sp, s);
  stream(s).producer = StreamEndpoint{StreamEndpoint::Kind::kProcess, std::string(proc_name),
                                      std::string(port)};
}

void Design::connect_consumer(StreamId s, std::string_view proc_name, std::string_view port) {
  Process* p = find_process(proc_name);
  HLSAV_CHECK(p != nullptr, "connect_consumer: unknown process");
  StreamPort* sp = p->find_port(port);
  HLSAV_CHECK(sp != nullptr, "connect_consumer: unknown port");
  HLSAV_CHECK(sp->is_input, "connect_consumer: port is an output");
  rebind_port(*this, *p, *sp, s);
  stream(s).consumer = StreamEndpoint{StreamEndpoint::Kind::kProcess, std::string(proc_name),
                                      std::string(port)};
}

void Design::connect_cpu_producer(StreamId s) {
  stream(s).producer = StreamEndpoint{StreamEndpoint::Kind::kCpu, "", ""};
}

void Design::connect_cpu_consumer(StreamId s) {
  stream(s).consumer = StreamEndpoint{StreamEndpoint::Kind::kCpu, "", ""};
}

Design Design::clone() const {
  Design d;
  d.name = name;
  d.streams = streams;
  d.memories = memories;
  d.extern_funcs = extern_funcs;
  d.assertions = assertions;
  d.continue_on_failure = continue_on_failure;
  d.processes.reserve(processes.size());
  for (const auto& p : processes) {
    d.processes.push_back(std::make_unique<Process>(*p));
  }
  return d;
}

// ---------------------------------------------------------- Assertions --

std::string AssertionRecord::failure_message() const {
  return file + ":" + std::to_string(line) + ": " + function + ": Assertion `" +
         condition_text + "' failed.";
}

// ------------------------------------------------------------ Utilities --

const char* bin_kind_name(BinKind k) {
  switch (k) {
    case BinKind::kAdd: return "add";
    case BinKind::kSub: return "sub";
    case BinKind::kMul: return "mul";
    case BinKind::kDivU: return "divu";
    case BinKind::kDivS: return "divs";
    case BinKind::kRemU: return "remu";
    case BinKind::kRemS: return "rems";
    case BinKind::kAnd: return "and";
    case BinKind::kOr: return "or";
    case BinKind::kXor: return "xor";
    case BinKind::kShl: return "shl";
    case BinKind::kShrL: return "shrl";
    case BinKind::kShrA: return "shra";
    case BinKind::kCmpEq: return "cmpeq";
    case BinKind::kCmpNe: return "cmpne";
    case BinKind::kCmpLtU: return "cmpltu";
    case BinKind::kCmpLtS: return "cmplts";
    case BinKind::kCmpLeU: return "cmpleu";
    case BinKind::kCmpLeS: return "cmples";
  }
  return "?";
}

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kBin: return "bin";
    case OpKind::kUn: return "un";
    case OpKind::kResize: return "resize";
    case OpKind::kCopy: return "copy";
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kStreamRead: return "stream_read";
    case OpKind::kStreamWrite: return "stream_write";
    case OpKind::kCallExtern: return "call";
    case OpKind::kAssert: return "assert";
    case OpKind::kAssertTap: return "assert_tap";
    case OpKind::kAssertFailWire: return "assert_fail_wire";
    case OpKind::kAssertCycles: return "assert_cycles";
  }
  return "?";
}

bool bin_is_comparison(BinKind k) {
  switch (k) {
    case BinKind::kCmpEq:
    case BinKind::kCmpNe:
    case BinKind::kCmpLtU:
    case BinKind::kCmpLtS:
    case BinKind::kCmpLeU:
    case BinKind::kCmpLeS:
      return true;
    default:
      return false;
  }
}

unsigned bin_result_width(BinKind k, unsigned w) { return bin_is_comparison(k) ? 1 : w; }

namespace {
// Flat evaluator table indexed by BinKind: a stable function pointer
// hot loops can cache per op (inline eval_bin covers the common path).
constexpr std::size_t kNumBinKinds = static_cast<std::size_t>(BinKind::kCmpLeS) + 1;

template <BinKind K>
BitVector eval_one(const BitVector& a, const BitVector& b) {
  return eval_bin(K, a, b);
}

const std::array<BinEvalFn, kNumBinKinds> kBinEvalTable = {
    eval_one<BinKind::kAdd>,    eval_one<BinKind::kSub>,    eval_one<BinKind::kMul>,
    eval_one<BinKind::kDivU>,   eval_one<BinKind::kDivS>,   eval_one<BinKind::kRemU>,
    eval_one<BinKind::kRemS>,   eval_one<BinKind::kAnd>,    eval_one<BinKind::kOr>,
    eval_one<BinKind::kXor>,    eval_one<BinKind::kShl>,    eval_one<BinKind::kShrL>,
    eval_one<BinKind::kShrA>,   eval_one<BinKind::kCmpEq>,  eval_one<BinKind::kCmpNe>,
    eval_one<BinKind::kCmpLtU>, eval_one<BinKind::kCmpLtS>, eval_one<BinKind::kCmpLeU>,
    eval_one<BinKind::kCmpLeS>,
};
}  // namespace

BinEvalFn bin_eval_fn(BinKind k) {
  std::size_t i = static_cast<std::size_t>(k);
  HLSAV_CHECK(i < kNumBinKinds, "bad BinKind");
  return kBinEvalTable[i];
}

}  // namespace hlsav::ir
