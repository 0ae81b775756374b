#include "fuzz/generator.h"

#include <algorithm>
#include <sstream>

#include "base/rng.h"
#include "base/types.h"
#include "isa/rv32_isa.h"
#include "isa/thumb_encoding.h"

namespace pdat::fuzz {
namespace {

// Registers with machine roles are never written by sampled instructions:
// x2/sp holds the c.swsp window, x10 the load/store base. x0 is excluded
// because several compressed formats reserve it.
constexpr unsigned kRvWritePool[] = {1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15};
constexpr unsigned kRvC3WritePool[] = {8, 9, 11, 12, 13, 14, 15};  // x8'..x15' minus x10

template <std::size_t N>
unsigned pick(Rng& rng, const unsigned (&pool)[N]) {
  return pool[rng.below(N)];
}

bool name_in(std::string_view n, std::initializer_list<std::string_view> set) {
  for (const auto s : set)
    if (n == s) return true;
  return false;
}

void put16(std::vector<std::uint8_t>& bytes, std::uint32_t h) {
  bytes.push_back(static_cast<std::uint8_t>(h));
  bytes.push_back(static_cast<std::uint8_t>(h >> 8));
}

void put32(std::vector<std::uint8_t>& bytes, std::uint32_t w) {
  put16(bytes, w & 0xffff);
  put16(bytes, w >> 16);
}

std::string hex_list(const std::vector<std::uint32_t>& units, unsigned digits,
                     const char* indent) {
  std::ostringstream os;
  os << std::hex;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (i % 6 == 0) os << (i == 0 ? "" : "\n") << indent;
    os << "0x";
    for (int d = static_cast<int>(digits) - 1; d >= 0; --d) os << ((units[i] >> (4 * d)) & 0xf);
    os << "u,";
    if (i % 6 != 5 && i + 1 != units.size()) os << ' ';
  }
  return os.str();
}

// Shared generation-loop helper: weighted hazard-class choice.
enum class Haz { Plain, Raw, Mem, Branch, Illegal };

Haz pick_class(Rng& rng, const GenOptions& o, bool raw_ok, bool mem_ok, bool branch_ok) {
  const unsigned wr = raw_ok ? o.w_raw : 0;
  const unsigned wm = mem_ok ? o.w_mem : 0;
  const unsigned wb = branch_ok ? o.w_branch : 0;
  const unsigned total = o.w_plain + wr + wm + wb + o.w_illegal;
  std::uint64_t r = rng.below(total == 0 ? 1 : total);
  if (r < o.w_plain) return Haz::Plain;
  r -= o.w_plain;
  if (r < wr) return Haz::Raw;
  r -= wr;
  if (r < wm) return Haz::Mem;
  r -= wm;
  if (r < wb) return Haz::Branch;
  return Haz::Illegal;
}

int pool_pick(Rng& rng, const std::vector<int>& pool) {
  return pool[rng.below(pool.size())];
}

}  // namespace

// --- RV32 --------------------------------------------------------------------

Rv32Generator::Rv32Generator(isa::RvSubset subset, GenOptions opt)
    : subset_(std::move(subset)), opt_(opt) {
  for (const char* t : {"ebreak", "ecall", "c.ebreak"}) {
    if (subset_.contains(t)) {
      terminator_ = isa::rv32_instr_index(t);
      break;
    }
  }
  if (terminator_ < 0)
    throw PdatError("fuzz: subset '" + subset_.name +
                    "' has no halting terminator (ebreak/ecall/c.ebreak)");

  have_lui_ = subset_.contains("lui");
  have_clui_ = subset_.contains("c.lui");
  have_addi_ = subset_.contains("addi");
  if (have_lui_) {
    data_base_ = 0x1000;
    mem_imm_max_ = 1020;
    sp_set_ = true;  // prologue also points sp at a second window
  } else if (have_clui_) {
    data_base_ = 0x1000;
    mem_imm_max_ = 1020;
  } else if (have_addi_) {
    data_base_ = 0x700;
    mem_imm_max_ = 252;
  }

  const auto& table = isa::rv32_instructions();
  for (const int idx : subset_.instrs) {
    const auto& s = table[static_cast<std::size_t>(idx)];
    const std::string_view n = s.name;
    // c.jr/c.jalr jump through an arbitrary register value; c.addi16sp
    // rewrites the stack pointer the c.swsp policy depends on.
    if (name_in(n, {"c.jr", "c.jalr", "c.addi16sp"})) continue;
    if (name_in(n, {"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "c.lw", "c.sw"})) {
      if (data_base_ != 0) mem_.push_back(idx);
      continue;
    }
    if (name_in(n, {"c.lwsp", "c.swsp"})) {
      if (sp_set_) mem_.push_back(idx);
      continue;
    }
    if (s.fmt == isa::RvFormat::B || s.fmt == isa::RvFormat::CB ||
        name_in(n, {"jal", "jalr", "c.j", "c.jal"})) {
      branch_.push_back(idx);
      plain_.push_back(idx);  // branches are ordinary ops outside storms too
      continue;
    }
    plain_.push_back(idx);
    if (s.fmt == isa::RvFormat::R || s.fmt == isa::RvFormat::Shamt ||
        s.fmt == isa::RvFormat::CA ||
        name_in(n, {"addi", "slti", "sltiu", "xori", "ori", "andi", "c.andi"})) {
      raw_.push_back(idx);
    }
  }
  if (plain_.empty() && mem_.empty() && branch_.empty())
    throw PdatError("fuzz: subset '" + subset_.name + "' has no generatable instruction");
  if (plain_.empty()) plain_ = branch_.empty() ? mem_ : branch_;
}

unsigned Rv32Generator::op_bytes(const AbsOp& op) const {
  if (op.spec < 0) return 4;
  return isa::rv32_instructions()[static_cast<std::size_t>(op.spec)].compressed ? 2 : 4;
}

std::uint32_t Rv32Generator::encode_op(const AbsOp& op, std::uint32_t at,
                                       std::uint32_t target_off) const {
  using isa::RvFormat;
  if (op.spec < 0) return static_cast<std::uint32_t>(op.opseed);
  const auto& spec = isa::rv32_instructions()[static_cast<std::size_t>(op.spec)];
  const std::string_view n = spec.name;
  Rng rng(op.opseed);
  // First draw doubles as the shared register of a RAW pair: both halves see
  // the same opseed, hence the same register. Drawn from the 3-bit pool so
  // it is valid in compressed formats too.
  const unsigned shared = pick(rng, kRvC3WritePool);
  auto wreg = [&] { return pick(rng, kRvWritePool); };
  auto w3 = [&] { return pick(rng, kRvC3WritePool); };
  auto rreg = [&] { return static_cast<unsigned>(rng.below(16)); };
  auto r3 = [&] { return static_cast<unsigned>(8 + rng.below(8)); };
  auto mem_imm = [&](unsigned size, std::int32_t max) {
    auto v = static_cast<std::int32_t>(4 * rng.below(static_cast<std::uint64_t>(max / 4) + 1));
    if (subset_.aligned_mem) return v;
    if (op.cls == OpClass::MisMem) return v + 1 + static_cast<std::int32_t>(rng.below(3));
    if (size == 1) return v + static_cast<std::int32_t>(rng.below(4));
    if (size == 2) return v + 2 * static_cast<std::int32_t>(rng.below(2));
    return v;
  };
  const auto rel = static_cast<std::int32_t>(target_off) - static_cast<std::int32_t>(at);

  isa::RvFields f;
  switch (spec.fmt) {
    case RvFormat::R:
      f.rd = wreg();
      f.rs1 = rreg();
      f.rs2 = rreg();
      break;
    case RvFormat::I:
      if (n == "jalr") {
        f.rd = wreg();
        f.rs1 = 0;  // absolute forward jump: target address as the immediate
        f.imm = static_cast<std::int32_t>(target_off);
        return isa::rv32_encode(spec, f);
      }
      if (name_in(n, {"lb", "lbu"})) {
        f.rd = wreg();
        f.rs1 = 10;
        f.imm = mem_imm(1, mem_imm_max_);
        return isa::rv32_encode(spec, f);
      }
      if (name_in(n, {"lh", "lhu"})) {
        f.rd = wreg();
        f.rs1 = 10;
        f.imm = mem_imm(2, mem_imm_max_);
        return isa::rv32_encode(spec, f);
      }
      if (n == "lw") {
        f.rd = wreg();
        f.rs1 = 10;
        f.imm = mem_imm(4, mem_imm_max_);
        return isa::rv32_encode(spec, f);
      }
      f.rd = wreg();
      f.rs1 = rreg();
      f.imm = static_cast<std::int32_t>(rng.below(4096)) - 2048;
      break;
    case RvFormat::Shamt:
      f.rd = wreg();
      f.rs1 = rreg();
      f.shamt = static_cast<unsigned>(rng.below(32));
      break;
    case RvFormat::S:
      f.rs1 = 10;
      f.rs2 = rreg();
      f.imm = mem_imm(n == "sb" ? 1 : n == "sh" ? 2 : 4, mem_imm_max_);
      break;
    case RvFormat::B:
      f.rs1 = rreg();
      f.rs2 = rreg();
      f.imm = rel;
      break;
    case RvFormat::U:
      f.rd = wreg();
      f.imm = static_cast<std::int32_t>(rng.next() & 0xfffff000u);
      break;
    case RvFormat::J:
      f.rd = wreg();
      f.imm = rel;
      break;
    case RvFormat::Csr:
      f.rd = wreg();
      f.rs1 = rreg();
      f.csr = 0x340;  // mscratch: implemented by both the ISS and the core
      break;
    case RvFormat::CsrI:
      f.rd = wreg();
      f.zimm = static_cast<unsigned>(rng.below(32));
      f.csr = 0x340;
      break;
    case RvFormat::Fixed:
    case RvFormat::Fence:
      break;
    case RvFormat::CIW:  // c.addi4spn
      f.rd = w3();
      f.imm = static_cast<std::int32_t>(4 * rng.range(1, 255));
      break;
    case RvFormat::CL:  // c.lw
      f.rd = w3();
      f.rs1 = 10;
      f.imm = mem_imm(4, std::min(mem_imm_max_, 124));
      break;
    case RvFormat::CS:  // c.sw
      f.rs2 = r3();
      f.rs1 = 10;
      f.imm = mem_imm(4, std::min(mem_imm_max_, 124));
      break;
    case RvFormat::CI:  // c.addi (imm != 0), c.li
      f.rd = wreg();
      f.imm = static_cast<std::int32_t>(rng.range(1, 31)) * (rng.chance(128) ? 1 : -1);
      if (n == "c.li" && rng.chance(16)) f.imm = 0;
      break;
    case RvFormat::CI16:  // c.addi16sp — excluded from every pool
      f.imm = 16;
      break;
    case RvFormat::CLUI:
      f.rd = wreg();
      f.imm = static_cast<std::int32_t>(rng.range(1, 31)) << 12;
      break;
    case RvFormat::CShamt:
      f.rd = (n == "c.slli") ? wreg() : w3();
      f.shamt = static_cast<unsigned>(rng.range(1, 31));
      break;
    case RvFormat::CAnd:
      f.rd = w3();
      f.imm = static_cast<std::int32_t>(rng.below(32)) - 16;
      break;
    case RvFormat::CA:
      f.rd = w3();
      f.rs2 = r3();
      break;
    case RvFormat::CJ:
      f.imm = rel;
      break;
    case RvFormat::CB:
      f.rs1 = r3();
      f.imm = rel;
      break;
    case RvFormat::CR:  // c.mv, c.add (c.jr/c.jalr are excluded)
      f.rd = wreg();
      f.rs2 = static_cast<unsigned>(rng.range(1, 15));
      break;
    case RvFormat::CSS:  // c.swsp
      f.rs2 = rreg();
      f.imm = static_cast<std::int32_t>(4 * rng.below(64));
      break;
    case RvFormat::CLSP:  // c.lwsp
      f.rd = wreg();
      f.imm = static_cast<std::int32_t>(4 * rng.below(64));
      break;
  }
  // RAW pairing: the writer's destination is the reader's source. For the
  // read-modify compressed formats (CA/CAnd/CShamt) rd *is* the source.
  if (op.cls == OpClass::RawWrite) f.rd = shared;
  if (op.cls == OpClass::RawRead) {
    if (spec.fmt == RvFormat::CA || spec.fmt == RvFormat::CAnd ||
        spec.fmt == RvFormat::CShamt) {
      f.rd = shared;
    } else {
      f.rs1 = shared;
    }
  }
  return isa::rv32_encode(spec, f);
}

void Rv32Generator::sample_into(AbsProgram& p, Rng& rng) const {
  switch (pick_class(rng, opt_, !raw_.empty(), !mem_.empty(), !branch_.empty())) {
    case Haz::Plain:
      p.push_back({pool_pick(rng, plain_), OpClass::Plain, rng.next(),
                   static_cast<std::uint8_t>(1 + rng.below(6))});
      break;
    case Haz::Raw: {
      const std::uint64_t s = rng.next();
      p.push_back({pool_pick(rng, raw_), OpClass::RawWrite, s, 1});
      p.push_back({pool_pick(rng, raw_), OpClass::RawRead, s, 1});
      break;
    }
    case Haz::Mem:
      p.push_back({pool_pick(rng, mem_), OpClass::MisMem, rng.next(), 1});
      break;
    case Haz::Branch:
      p.push_back({pool_pick(rng, branch_), OpClass::Branch, rng.next(),
                   static_cast<std::uint8_t>(1 + rng.below(3))});
      break;
    case Haz::Illegal: {
      std::uint32_t w = 0xffffffffu;  // architecturally guaranteed illegal
      for (int tries = 0; tries < 100; ++tries) {
        const auto cand = static_cast<std::uint32_t>(rng.next()) | 3u;  // 32-bit length
        if (isa::rv32_decode_spec(cand) == nullptr) {
          w = cand;
          break;
        }
      }
      p.push_back({-1, OpClass::Illegal, w, 1});
      break;
    }
  }
}

AbsProgram Rv32Generator::generate(std::uint64_t seed) const {
  Rng rng(seed);
  const std::size_t len = opt_.min_ops + rng.below(opt_.max_ops - opt_.min_ops + 1);
  AbsProgram p;
  while (p.size() < len) sample_into(p, rng);
  if (p.size() > opt_.max_ops) p.resize(opt_.max_ops);
  return p;
}

AbsProgram Rv32Generator::mutate(const AbsProgram& in, std::uint64_t seed) const {
  Rng rng(seed);
  AbsProgram p = in;
  if (p.empty()) {
    sample_into(p, rng);
    return p;
  }
  switch (rng.below(5)) {
    case 0:
      p[rng.below(p.size())].opseed = rng.next();
      break;
    case 1:
      if (p.size() > 1) p.erase(p.begin() + static_cast<std::ptrdiff_t>(rng.below(p.size())));
      break;
    case 2: {
      const AbsOp dup = p[rng.below(p.size())];
      p.insert(p.begin() + static_cast<std::ptrdiff_t>(rng.below(p.size() + 1)), dup);
      break;
    }
    case 3:
      sample_into(p, rng);
      break;
    default:
      p[rng.below(p.size())].skip = static_cast<std::uint8_t>(1 + rng.below(6));
      break;
  }
  if (p.size() > 2 * opt_.max_ops) p.resize(2 * opt_.max_ops);
  return p;
}

std::vector<std::uint32_t> Rv32Generator::encode_units(const AbsProgram& p) const {
  std::vector<std::uint8_t> bytes;
  if (!mem_.empty()) {
    isa::RvFields f;
    if (have_lui_) {
      f.rd = 10;
      f.imm = static_cast<std::int32_t>(data_base_);
      put32(bytes, isa::rv32_encode(isa::rv32_instr("lui"), f));
      f.rd = 2;
      f.imm = 0x2000;  // c.swsp/c.lwsp window
      put32(bytes, isa::rv32_encode(isa::rv32_instr("lui"), f));
    } else if (have_clui_) {
      f.rd = 10;
      f.imm = static_cast<std::int32_t>(data_base_);
      put16(bytes, isa::rv32_encode(isa::rv32_instr("c.lui"), f));
    } else {
      f.rd = 10;
      f.rs1 = 0;
      f.imm = static_cast<std::int32_t>(data_base_);
      put32(bytes, isa::rv32_encode(isa::rv32_instr("addi"), f));
    }
  }

  const std::size_t n = p.size();
  std::vector<std::uint32_t> off(n + 1);
  auto cur = static_cast<std::uint32_t>(bytes.size());
  for (std::size_t i = 0; i < n; ++i) {
    off[i] = cur;
    cur += op_bytes(p[i]);
  }
  off[n] = cur;  // the terminator

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = std::min(i + std::max<std::size_t>(1, p[i].skip), n);
    const std::uint32_t w = encode_op(p[i], off[i], off[t]);
    if (op_bytes(p[i]) == 2) {
      put16(bytes, w);
    } else {
      put32(bytes, w);
    }
  }

  const auto& term = isa::rv32_instructions()[static_cast<std::size_t>(terminator_)];
  if (term.compressed) {
    put16(bytes, term.match);
  } else {
    put32(bytes, term.match);
  }

  while (bytes.size() % 4 != 0) bytes.push_back(0);
  std::vector<std::uint32_t> words(bytes.size() / 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<std::uint32_t>(bytes[4 * i]) |
               (static_cast<std::uint32_t>(bytes[4 * i + 1]) << 8) |
               (static_cast<std::uint32_t>(bytes[4 * i + 2]) << 16) |
               (static_cast<std::uint32_t>(bytes[4 * i + 3]) << 24);
  }
  return words;
}

std::string Rv32Generator::render_repro(const AbsProgram& p, const std::string& case_name,
                                        const std::string& detail) const {
  std::ostringstream os;
  os << "// Auto-generated by the PDAT differential fuzzer — shrunk reproducer.\n"
     << "// Divergence: " << detail << "\n"
     << "// Subset: " << subset_.name << "\n"
     << "#include <gtest/gtest.h>\n\n"
     << "#include <cstdint>\n"
     << "#include <vector>\n\n"
     << "#include \"cores/ibex/ibex_core.h\"\n"
     << "#include \"cores/ibex/ibex_tb.h\"\n\n"
     << "TEST(FuzzRepro, " << case_name << ") {\n"
     << "  const std::vector<std::uint32_t> program = {\n"
     << hex_list(encode_units(p), 8, "      ") << "\n"
     << "  };\n"
     << "  const pdat::cores::IbexCore core = pdat::cores::build_ibex();\n"
     << "  EXPECT_EQ(pdat::cores::cosim_against_iss(core.netlist, program), \"\");\n"
     << "}\n";
  return os.str();
}

// --- Thumb -------------------------------------------------------------------

namespace {

constexpr unsigned kThWritePool[] = {0, 1, 2, 3, 4};  // r5/r6/r7 have machine roles

bool thumb_writes_rd(std::string_view n) {
  return !name_in(n, {"tst", "cmn", "cmp.r", "cmp.i8", "cmp.hi"});
}

}  // namespace

ThumbGenerator::ThumbGenerator(isa::ThumbSubset subset, GenOptions opt)
    : subset_(std::move(subset)), opt_(opt) {
  for (const char* t : {"bkpt", "udf", "svc"}) {
    if (subset_.contains(t)) {
      terminator_ = isa::thumb_instr_index(t);
      break;
    }
  }
  if (terminator_ < 0)
    throw PdatError("fuzz: thumb subset '" + subset_.name +
                    "' has no halting terminator (bkpt/udf/svc)");

  mem_ok_ = subset_.contains("movs.i8") && subset_.contains("lsls");

  const auto& table = isa::thumb_instructions();
  for (const int idx : subset_.instrs) {
    const auto& s = table[static_cast<std::size_t>(idx)];
    const std::string_view n = s.name;
    // bx/blx jump through arbitrary register values; cps/mrs/msr touch
    // system state the generator does not model.
    if (name_in(n, {"bx", "blx", "cps", "mrs", "msr"})) continue;
    if (s.fmt == isa::ThumbFormat::LsReg || s.fmt == isa::ThumbFormat::LsImm ||
        s.fmt == isa::ThumbFormat::Stm) {
      if (mem_ok_) mem_.push_back(idx);
      continue;
    }
    if (name_in(n, {"b", "b.cond", "bl"})) {
      branch_.push_back(idx);
      plain_.push_back(idx);
      continue;
    }
    plain_.push_back(idx);
    if (s.fmt == isa::ThumbFormat::DpReg || s.fmt == isa::ThumbFormat::ShiftImm ||
        s.fmt == isa::ThumbFormat::AddSubReg || s.fmt == isa::ThumbFormat::Extend ||
        s.fmt == isa::ThumbFormat::Rev) {
      raw_.push_back(idx);
    }
  }
  if (plain_.empty() && mem_.empty() && branch_.empty())
    throw PdatError("fuzz: thumb subset '" + subset_.name + "' has no generatable instruction");
  if (plain_.empty()) plain_ = branch_.empty() ? mem_ : branch_;
}

unsigned ThumbGenerator::op_halfwords(const AbsOp& op) const {
  if (op.spec < 0) return 1;
  return isa::thumb_instructions()[static_cast<std::size_t>(op.spec)].wide ? 2 : 1;
}

std::uint32_t ThumbGenerator::encode_op(const AbsOp& op, std::uint32_t at_hw,
                                        std::uint32_t target_hw) const {
  using isa::ThumbFormat;
  if (op.spec < 0) return static_cast<std::uint32_t>(op.opseed);
  const auto& spec = isa::thumb_instructions()[static_cast<std::size_t>(op.spec)];
  const std::string_view n = spec.name;
  Rng rng(op.opseed);
  const unsigned shared = pick(rng, kThWritePool);  // RAW pair register
  auto wreg = [&] { return pick(rng, kThWritePool); };
  auto rreg = [&] { return static_cast<unsigned>(rng.below(8)); };
  // Branch offsets are relative to pc + 4.
  const auto rel = (static_cast<std::int32_t>(target_hw) - static_cast<std::int32_t>(at_hw)) * 2 -
                   4;

  isa::ThumbFields f;
  switch (spec.fmt) {
    case ThumbFormat::ShiftImm:
      f.rd = wreg();
      f.rm = rreg();
      f.imm = static_cast<std::int32_t>(rng.below(32));
      break;
    case ThumbFormat::AddSubReg:
      f.rd = wreg();
      f.rn = rreg();
      f.rm = rreg();
      break;
    case ThumbFormat::AddSubImm3:
      f.rd = wreg();
      f.rn = rreg();
      f.imm = static_cast<std::int32_t>(rng.below(8));
      break;
    case ThumbFormat::Imm8:
      f.rd = thumb_writes_rd(n) ? wreg() : rreg();
      f.imm = static_cast<std::int32_t>(rng.below(256));
      break;
    case ThumbFormat::DpReg:
      f.rd = thumb_writes_rd(n) ? wreg() : rreg();
      f.rm = rreg();
      break;
    case ThumbFormat::HiReg: {
      // Never write sp or pc; reads may see any register but pc.
      constexpr unsigned kHiWrite[] = {0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 14};
      constexpr unsigned kHiRead[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
      f.rd = thumb_writes_rd(n) ? pick(rng, kHiWrite) : pick(rng, kHiRead);
      f.rm = pick(rng, kHiRead);
      break;
    }
    case ThumbFormat::BxBlx:  // excluded from every pool
      f.rm = 14;
      break;
    case ThumbFormat::LdrLit:
      f.rt = wreg();
      f.imm = static_cast<std::int32_t>(4 * rng.below(64));
      break;
    case ThumbFormat::LsReg:
      f.rt = n[0] == 'l' ? wreg() : rreg();
      f.rn = 6;
      f.rm = 7;
      break;
    case ThumbFormat::LsImm: {
      unsigned scale = 4;
      if (n.substr(0, 4) == "ldrb" || n.substr(0, 4) == "strb") scale = 1;
      if (n.substr(0, 4) == "ldrh" || n.substr(0, 4) == "strh") scale = 2;
      f.rt = n[0] == 'l' ? wreg() : rreg();
      f.rn = 6;
      f.imm = static_cast<std::int32_t>(scale * rng.below(32));
      break;
    }
    case ThumbFormat::LsSp:
      f.rt = n[0] == 'l' ? wreg() : rreg();
      f.imm = static_cast<std::int32_t>(4 * rng.below(64));
      break;
    case ThumbFormat::AdrSp:
      f.rd = wreg();
      f.imm = static_cast<std::int32_t>(4 * rng.below(256));
      break;
    case ThumbFormat::SpAdj:
      f.imm = static_cast<std::int32_t>(4 * rng.below(32));
      break;
    case ThumbFormat::Extend:
    case ThumbFormat::Rev:
      f.rd = wreg();
      f.rm = rreg();
      break;
    case ThumbFormat::PushPop:
      if (n == "push") {
        // Any low registers, plus lr with some probability (bit 8 = M).
        f.reglist = static_cast<unsigned>(1 + rng.below(255));
        if (rng.chance(64)) f.reglist |= 0x100;
      } else {
        // pop must not clobber the base registers r5-r7 or load pc.
        f.reglist = static_cast<unsigned>(1 + rng.below(31));  // r0..r4
      }
      break;
    case ThumbFormat::Stm:
      f.rn = 5;
      if (n == "ldm") {
        f.reglist = static_cast<unsigned>(1 + rng.below(31));  // r0..r4 only
      } else {
        f.reglist = static_cast<unsigned>(1 + rng.below(255)) & 0xdfu;  // not rn
        if (f.reglist == 0) f.reglist = 1;
      }
      break;
    case ThumbFormat::CondBranch:
      f.cond = static_cast<unsigned>(rng.below(14));
      f.imm = rel;
      break;
    case ThumbFormat::Branch:
    case ThumbFormat::Bl:
      f.imm = rel;
      break;
    case ThumbFormat::Imm8Only:
      f.imm = static_cast<std::int32_t>(rng.below(256));
      break;
    case ThumbFormat::Hint:
    case ThumbFormat::Cps:
    case ThumbFormat::Barrier:
    case ThumbFormat::MrsMsr:
      break;
  }
  if (op.cls == OpClass::RawWrite && thumb_writes_rd(n)) {
    if (spec.fmt == ThumbFormat::ShiftImm || spec.fmt == ThumbFormat::AddSubReg ||
        spec.fmt == ThumbFormat::DpReg || spec.fmt == ThumbFormat::Extend ||
        spec.fmt == ThumbFormat::Rev) {
      f.rd = shared;
    }
  }
  if (op.cls == OpClass::RawRead) {
    if (spec.fmt == ThumbFormat::ShiftImm || spec.fmt == ThumbFormat::DpReg ||
        spec.fmt == ThumbFormat::Extend || spec.fmt == ThumbFormat::Rev ||
        spec.fmt == ThumbFormat::AddSubReg) {
      f.rm = shared;
    }
  }
  return isa::thumb_encode(spec, f);
}

void ThumbGenerator::sample_into(AbsProgram& p, Rng& rng) const {
  switch (pick_class(rng, opt_, !raw_.empty(), !mem_.empty(), !branch_.empty())) {
    case Haz::Plain:
      p.push_back({pool_pick(rng, plain_), OpClass::Plain, rng.next(),
                   static_cast<std::uint8_t>(1 + rng.below(6))});
      break;
    case Haz::Raw: {
      const std::uint64_t s = rng.next();
      p.push_back({pool_pick(rng, raw_), OpClass::RawWrite, s, 1});
      p.push_back({pool_pick(rng, raw_), OpClass::RawRead, s, 1});
      break;
    }
    case Haz::Mem:
      p.push_back({pool_pick(rng, mem_), OpClass::MisMem, rng.next(), 1});
      break;
    case Haz::Branch:
      p.push_back({pool_pick(rng, branch_), OpClass::Branch, rng.next(),
                   static_cast<std::uint8_t>(1 + rng.below(3))});
      break;
    case Haz::Illegal: {
      std::uint32_t h = 0xde00;  // udf #0 is not "illegal"; find a non-decoder
      for (int tries = 0; tries < 100; ++tries) {
        const auto cand = static_cast<std::uint16_t>(rng.next());
        if (!isa::thumb_is_wide_prefix(cand) && isa::thumb_decode(cand) == nullptr) {
          h = cand;
          break;
        }
      }
      p.push_back({-1, OpClass::Illegal, h, 1});
      break;
    }
  }
}

AbsProgram ThumbGenerator::generate(std::uint64_t seed) const {
  Rng rng(seed);
  const std::size_t len = opt_.min_ops + rng.below(opt_.max_ops - opt_.min_ops + 1);
  AbsProgram p;
  while (p.size() < len) sample_into(p, rng);
  if (p.size() > opt_.max_ops) p.resize(opt_.max_ops);
  return p;
}

AbsProgram ThumbGenerator::mutate(const AbsProgram& in, std::uint64_t seed) const {
  Rng rng(seed);
  AbsProgram p = in;
  if (p.empty()) {
    sample_into(p, rng);
    return p;
  }
  switch (rng.below(5)) {
    case 0:
      p[rng.below(p.size())].opseed = rng.next();
      break;
    case 1:
      if (p.size() > 1) p.erase(p.begin() + static_cast<std::ptrdiff_t>(rng.below(p.size())));
      break;
    case 2: {
      const AbsOp dup = p[rng.below(p.size())];
      p.insert(p.begin() + static_cast<std::ptrdiff_t>(rng.below(p.size() + 1)), dup);
      break;
    }
    case 3:
      sample_into(p, rng);
      break;
    default:
      p[rng.below(p.size())].skip = static_cast<std::uint8_t>(1 + rng.below(6));
      break;
  }
  if (p.size() > 2 * opt_.max_ops) p.resize(2 * opt_.max_ops);
  return p;
}

std::vector<std::uint32_t> ThumbGenerator::encode_units(const AbsProgram& p) const {
  std::vector<std::uint32_t> halves;
  if (mem_ok_ && !mem_.empty()) {
    // r6 = 0x800 (load/store base), r5 = 0xc00 (ldm/stm base), r7 = 16
    // (register-offset addend). All three sit above the code region.
    const auto& movs = isa::thumb_instr("movs.i8");
    const auto& lsls = isa::thumb_instr("lsls");
    isa::ThumbFields f;
    f.rd = 6;
    f.imm = 1;
    halves.push_back(isa::thumb_encode(movs, f));
    f.rm = 6;
    f.imm = 11;
    halves.push_back(isa::thumb_encode(lsls, f));
    f.rd = 5;
    f.rm = 0;
    f.imm = 3;
    halves.push_back(isa::thumb_encode(movs, f));
    f.rm = 5;
    f.imm = 10;
    halves.push_back(isa::thumb_encode(lsls, f));
    f.rd = 7;
    f.imm = 16;
    halves.push_back(isa::thumb_encode(movs, f));
  }

  const std::size_t n = p.size();
  std::vector<std::uint32_t> off(n + 1);
  auto cur = static_cast<std::uint32_t>(halves.size());
  for (std::size_t i = 0; i < n; ++i) {
    off[i] = cur;
    cur += op_halfwords(p[i]);
  }
  off[n] = cur;

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = std::min(i + std::max<std::size_t>(1, p[i].skip), n);
    const std::uint32_t w = encode_op(p[i], off[i], off[t]);
    halves.push_back(w & 0xffff);
    if (op_halfwords(p[i]) == 2) halves.push_back(w >> 16);
  }

  const auto& term = isa::thumb_instructions()[static_cast<std::size_t>(terminator_)];
  halves.push_back(term.match & 0xffff);
  return halves;
}

std::string ThumbGenerator::render_repro(const AbsProgram& p, const std::string& case_name,
                                         const std::string& detail) const {
  std::ostringstream os;
  os << "// Auto-generated by the PDAT differential fuzzer — shrunk reproducer.\n"
     << "// Divergence: " << detail << "\n"
     << "// Subset: " << subset_.name << "\n"
     << "#include <gtest/gtest.h>\n\n"
     << "#include <cstdint>\n"
     << "#include <vector>\n\n"
     << "#include \"cores/cm0/cm0_core.h\"\n"
     << "#include \"cores/cm0/cm0_tb.h\"\n\n"
     << "TEST(FuzzRepro, " << case_name << ") {\n"
     << "  const std::vector<std::uint16_t> program = {\n"
     << hex_list(encode_units(p), 4, "      ") << "\n"
     << "  };\n"
     << "  const pdat::cores::Cm0Core core = pdat::cores::build_cm0();\n"
     << "  EXPECT_EQ(pdat::cores::cm0_cosim_against_iss(core.netlist, program), \"\");\n"
     << "}\n";
  return os.str();
}

}  // namespace pdat::fuzz
