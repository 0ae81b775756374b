#include "cores/ibex/ibex_tb.h"

#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "util/failpoint.h"

namespace pdat::cores {

IbexTestbench::IbexTestbench(const Netlist& nl, std::size_t mem_bytes)
    : nl_(nl), sim_(nl), lanes_(kLanes, Lane(mem_bytes)) {
  auto need_in = [&](const char* n) {
    const Port* p = nl_.find_input(n);
    if (p == nullptr) throw PdatError(std::string("testbench: missing input ") + n);
    return p;
  };
  auto need_out = [&](const char* n) {
    const Port* p = nl_.find_output(n);
    if (p == nullptr) throw PdatError(std::string("testbench: missing output ") + n);
    return p;
  };
  in_imem_ = need_in("imem_rdata");
  in_dmem_ = need_in("dmem_rdata");
  out_imem_addr_ = need_out("imem_addr");
  out_dmem_addr_ = need_out("dmem_addr");
  out_dmem_wdata_ = need_out("dmem_wdata");
  out_dmem_be_ = need_out("dmem_be");
  out_dmem_re_ = need_out("dmem_re");
  out_dmem_we_ = need_out("dmem_we");
  out_retire_ = need_out("retire_valid");
  out_retire_pc_ = need_out("retire_pc");
  out_rd_we_ = need_out("rd_we");
  out_rd_addr_ = need_out("rd_addr");
  out_rd_wdata_ = need_out("rd_wdata");
  out_halted_ = need_out("halted");
  reset();
}

void IbexTestbench::reset() {
  sim_.reset();
  // Memory inputs restart at 0, so no lane's first evaluation sees the
  // previous program's last fetch.
  imem_in_.fill(0);
  dmem_in_.fill(0);
  sim_.set_port_per_slot(*in_imem_, imem_in_.data());
  sim_.set_port_per_slot(*in_dmem_, dmem_in_.data());
  for (Lane& l : lanes_) {
    l.mem.clear();
    l.trace.clear();
    l.retired = 0;
    l.cycles = 0;
    l.pending_store_count = 0;
  }
  running_ = 0;
}

void IbexTestbench::load_words(unsigned lane, std::uint32_t addr,
                               const std::vector<std::uint32_t>& words) {
  SparseMemory& mem = lanes_.at(lane).mem;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(4 * i);
    for (std::uint32_t k = 0; k < 4; ++k) {
      mem.write8(a + k, static_cast<std::uint8_t>(words[i] >> (8 * k)));
    }
  }
  running_ |= std::uint64_t{1} << lane;
}

std::uint64_t IbexTestbench::cycle() {
  const std::uint64_t active = running_;
  // Phase 1: evaluate with stale memory inputs to observe the addresses
  // (both are functions of flop state only).
  sim_.eval();
  std::uint64_t imem_addr[kLanes], dmem_addr[kLanes];
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr);
  sim_.read_port_per_slot(*out_dmem_addr_, dmem_addr);
  // Instruction fetch serves the word starting at the (halfword-aligned)
  // PC; the data port serves the aligned word containing the address and
  // the core extracts the selected bytes itself.
  for_each_lane(active, [&](unsigned lane) {
    const SparseMemory& mem = lanes_[lane].mem;
    std::uint32_t iw = mem.read32(static_cast<std::uint32_t>(imem_addr[lane]));
    // Chaos hook emulating a decoder fault: corrupt the rs2 index of fetched
    // R-type OP words. The fuzzer's mutation self-check arms this and must
    // find + shrink the resulting ISS/core divergence. A counted arming is
    // consumed in lane order within a cycle.
    if ((iw & 0x7f) == 0x33 && util::failpoint("ibex_tb.fetch_fault") != 0) iw ^= 1u << 20;
    imem_in_[lane] = iw;
    dmem_in_[lane] = mem.read32(static_cast<std::uint32_t>(dmem_addr[lane]) & ~3u);
  });
  sim_.set_port_per_slot(*in_imem_, imem_in_.data());
  sim_.set_port_per_slot(*in_dmem_, dmem_in_.data());
  // Phase 2: evaluate with memory data present, then observe side effects.
  sim_.eval();
  const std::uint64_t halted = sim_.nonzero_slots(*out_halted_) & active;
  const std::uint64_t retiring = sim_.nonzero_slots(*out_retire_) & active;
  const std::uint64_t writing = sim_.nonzero_slots(*out_dmem_we_) & active;
  const std::uint64_t rd_we = sim_.nonzero_slots(*out_rd_we_) & retiring;
  std::uint64_t be[kLanes], wdata[kLanes], retire_pc[kLanes], rd_addr[kLanes], rd_wdata[kLanes];
  if (writing != 0) {
    sim_.read_port_per_slot(*out_dmem_be_, be);
    sim_.read_port_per_slot(*out_dmem_wdata_, wdata);
  }
  if (retiring != 0) sim_.read_port_per_slot(*out_retire_pc_, retire_pc);
  if (rd_we != 0) {
    sim_.read_port_per_slot(*out_rd_addr_, rd_addr);
    sim_.read_port_per_slot(*out_rd_wdata_, rd_wdata);
  }

  for_each_lane(writing | retiring, [&](unsigned lane) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    Lane& l = lanes_[lane];
    // Apply any data-memory write this cycle (crossing accesses write in two
    // cycles; only the second one retires).
    std::uint32_t wr_first = 0;
    unsigned wr_count = 0;
    if ((writing & bit) != 0) {
      const std::uint32_t word_base = static_cast<std::uint32_t>(dmem_addr[lane]) & ~3u;
      unsigned first = 4;
      for (unsigned k = 0; k < 4; ++k) {
        if ((be[lane] >> k) & 1) {
          l.mem.write8(word_base + k, static_cast<std::uint8_t>(wdata[lane] >> (8 * k)));
          if (first == 4) first = k;
          ++wr_count;
        }
      }
      wr_first = word_base + first;
      if ((retiring & bit) == 0) {
        // First half of a crossing store: remember it for the retiring half.
        l.pending_store_addr = wr_first;
        l.pending_store_count = wr_count;
        return;
      }
    }

    ++l.retired;
    iss::Rv32Iss::TraceEntry te;
    te.pc = static_cast<std::uint32_t>(retire_pc[lane]);
    bool any = false;
    if ((rd_we & bit) != 0) {
      te.rd = static_cast<unsigned>(rd_addr[lane]);
      te.rd_value = static_cast<std::uint32_t>(rd_wdata[lane]);
      any = te.rd != 0;
    }
    if ((writing & bit) != 0) {
      te.mem_write = true;
      std::uint32_t addr = wr_first;
      unsigned count = wr_count;
      if (l.pending_store_count != 0) {
        addr = l.pending_store_addr;
        count += l.pending_store_count;
        l.pending_store_count = 0;
      }
      te.mem_addr = addr;
      te.mem_size = count;
      std::uint32_t value = 0;
      for (unsigned k = 0; k < count; ++k) {
        value |= static_cast<std::uint32_t>(l.mem.read8(addr + k)) << (8 * k);
      }
      te.mem_value = value;
      any = true;
    }
    if (any) l.trace.push_back(te);
  });
  sim_.latch();
  for_each_lane(active, [&](unsigned lane) { ++lanes_[lane].cycles; });
  running_ = active & ~halted;
  return running_;
}

std::uint64_t IbexTestbench::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (running_ != 0 && n < max_cycles) {
    ++n;
    cycle();
  }
  return n;
}

std::string cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                              std::uint64_t max_cycles) {
  iss::Rv32Iss iss;
  iss.load_words(0, program);
  iss.reset();
  iss.set_tracing(true);
  iss.run(max_cycles);
  if (!iss.halted()) return "ISS did not halt within the cycle limit";

  IbexTestbench tb(nl);
  tb.load_words(0, 0, program);
  tb.run(max_cycles);

  const auto& a = iss.trace();
  const auto& b = tb.trace(0);
  std::ostringstream os;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].pc != b[i].pc || a[i].rd != b[i].rd || a[i].rd_value != b[i].rd_value ||
        a[i].mem_write != b[i].mem_write || a[i].mem_addr != b[i].mem_addr ||
        a[i].mem_value != b[i].mem_value || a[i].mem_size != b[i].mem_size) {
      os << "trace divergence at entry " << i << ": iss pc=0x" << std::hex << a[i].pc << " rd=x"
         << std::dec << a[i].rd << "=0x" << std::hex << a[i].rd_value << " vs core pc=0x"
         << b[i].pc << " rd=x" << std::dec << b[i].rd << "=0x" << std::hex << b[i].rd_value;
      if (a[i].mem_write || b[i].mem_write) {
        os << " | mem iss [0x" << a[i].mem_addr << "]=0x" << a[i].mem_value << "/" << std::dec
           << a[i].mem_size << " core [0x" << std::hex << b[i].mem_addr << "]=0x"
           << b[i].mem_value << "/" << std::dec << b[i].mem_size;
      }
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    os << "trace length mismatch: iss " << a.size() << " vs core " << b.size();
    return os.str();
  }
  return std::string();
}

}  // namespace pdat::cores
