#include "cores/cm0/cm0_tb.h"

#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "util/failpoint.h"

namespace pdat::cores {

Cm0Testbench::Cm0Testbench(const Netlist& nl, std::size_t mem_bytes)
    : nl_(nl), sim_(nl), lanes_(kLanes, Lane(mem_bytes)) {
  auto in = [&](const char* n) {
    const Port* p = nl_.find_input(n);
    if (p == nullptr) throw PdatError(std::string("cm0 tb: missing input ") + n);
    return p;
  };
  auto out = [&](const char* n) {
    const Port* p = nl_.find_output(n);
    if (p == nullptr) throw PdatError(std::string("cm0 tb: missing output ") + n);
    return p;
  };
  in_imem_ = in("imem_rdata");
  in_dmem_ = in("dmem_rdata");
  out_imem_addr_ = out("imem_addr");
  out_dmem_addr_ = out("dmem_addr");
  out_dmem_wdata_ = out("dmem_wdata");
  out_dmem_be_ = out("dmem_be");
  out_dmem_re_ = out("dmem_re");
  out_dmem_we_ = out("dmem_we");
  out_reg_we_ = out("reg_we");
  out_reg_waddr_ = out("reg_waddr");
  out_reg_wdata_ = out("reg_wdata");
  out_halted_ = out("halted");
  out_flags_ = out("flags");
  reset();
}

void Cm0Testbench::load_halfwords(unsigned lane, std::uint32_t addr,
                                  const std::vector<std::uint16_t>& halves) {
  SparseMemory& mem = lanes_.at(lane).mem;
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(2 * i);
    mem.write8(a, static_cast<std::uint8_t>(halves[i]));
    mem.write8(a + 1, static_cast<std::uint8_t>(halves[i] >> 8));
  }
  running_ |= std::uint64_t{1} << lane;
}

void Cm0Testbench::reset() {
  sim_.reset();
  // Memory inputs restart at 0, so no lane's first evaluation sees the
  // previous program's last fetch.
  imem_in_.fill(0);
  dmem_in_.fill(0);
  sim_.set_port_per_slot(*in_imem_, imem_in_.data());
  sim_.set_port_per_slot(*in_dmem_, dmem_in_.data());
  for (Lane& l : lanes_) {
    l.mem.clear();
    l.reg_writes.clear();
    l.mem_writes.clear();
    l.flags = 0;
    l.cycles = 0;
  }
  running_ = 0;
}

std::uint32_t Cm0Testbench::fetch_half(unsigned lane, std::uint32_t addr) const {
  std::uint32_t hw = lanes_[lane].mem.read32(addr) & 0xffff;
  // Chaos hook emulating a decoder fault: corrupt the Rm index of fetched
  // data-processing-register halfwords. The fuzzer's mutation self-check
  // arms this and must find + shrink the resulting ISS/core divergence. A
  // counted arming is consumed in lane order within a cycle.
  if ((hw & 0xfc00) == 0x4000 && util::failpoint("cm0_tb.fetch_fault") != 0) hw ^= 1u << 3;
  return hw;
}

std::uint64_t Cm0Testbench::cycle() {
  const std::uint64_t active = running_;
  sim_.eval();
  std::uint64_t imem_addr[kLanes], dmem_addr[kLanes];
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr);
  sim_.read_port_per_slot(*out_dmem_addr_, dmem_addr);
  for_each_lane(active, [&](unsigned lane) {
    imem_in_[lane] = fetch_half(lane, static_cast<std::uint32_t>(imem_addr[lane]));
    dmem_in_[lane] =
        lanes_[lane].mem.read32(static_cast<std::uint32_t>(dmem_addr[lane]) & ~3u);
  });
  sim_.set_port_per_slot(*in_imem_, imem_in_.data());
  sim_.set_port_per_slot(*in_dmem_, dmem_in_.data());
  sim_.eval();
  // pop {.., pc} makes the next fetch address depend on the loaded data —
  // re-serve the instruction word of the lanes whose address moved and
  // settle again (a lane whose inputs did not change evaluates the same).
  std::uint64_t imem_addr2[kLanes];
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr2);
  std::uint64_t moved = 0;
  for_each_lane(active, [&](unsigned lane) {
    if (imem_addr2[lane] != imem_addr[lane]) {
      imem_in_[lane] = fetch_half(lane, static_cast<std::uint32_t>(imem_addr2[lane]));
      moved |= std::uint64_t{1} << lane;
    }
  });
  if (moved != 0) {
    sim_.set_port_per_slot(*in_imem_, imem_in_.data());
    sim_.eval();
  }
  const std::uint64_t halted = sim_.nonzero_slots(*out_halted_) & active;
  const std::uint64_t reg_we = sim_.nonzero_slots(*out_reg_we_) & active;
  const std::uint64_t writing = sim_.nonzero_slots(*out_dmem_we_) & active;
  std::uint64_t waddr[kLanes], rdata[kLanes], be[kLanes], wdata[kLanes];
  if (reg_we != 0) {
    sim_.read_port_per_slot(*out_reg_waddr_, waddr);
    sim_.read_port_per_slot(*out_reg_wdata_, rdata);
  }
  if (writing != 0) {
    sim_.read_port_per_slot(*out_dmem_be_, be);
    sim_.read_port_per_slot(*out_dmem_wdata_, wdata);
  }
  for_each_lane(reg_we, [&](unsigned lane) {
    lanes_[lane].reg_writes.push_back(
        {static_cast<unsigned>(waddr[lane]), static_cast<std::uint32_t>(rdata[lane])});
  });
  for_each_lane(writing, [&](unsigned lane) {
    SparseMemory& mem = lanes_[lane].mem;
    const std::uint32_t base = static_cast<std::uint32_t>(dmem_addr[lane]) & ~3u;
    unsigned first = 4, count = 0;
    for (unsigned k = 0; k < 4; ++k) {
      if ((be[lane] >> k) & 1) {
        mem.write8(base + k, static_cast<std::uint8_t>(wdata[lane] >> (8 * k)));
        if (first == 4) first = k;
        ++count;
      }
    }
    std::uint32_t value = 0;
    for (unsigned k = 0; k < count; ++k) {
      value |= static_cast<std::uint32_t>(mem.read8(base + first + k)) << (8 * k);
    }
    lanes_[lane].mem_writes.push_back({base + first, value, count});
  });
  sim_.latch();
  std::uint64_t flags[kLanes];
  sim_.read_port_per_slot(*out_flags_, flags);
  for_each_lane(active, [&](unsigned lane) {
    lanes_[lane].flags = static_cast<unsigned>(flags[lane]);
    ++lanes_[lane].cycles;
  });
  running_ = active & ~halted;
  return running_;
}

std::uint64_t Cm0Testbench::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (running_ != 0 && n < max_cycles) {
    ++n;
    cycle();
  }
  return n;
}

std::string cm0_cosim_against_iss(const Netlist& nl, const std::vector<std::uint16_t>& program,
                                  std::uint64_t max_cycles) {
  iss::ThumbIss iss;
  iss.load_halfwords(0, program);
  iss.reset();
  iss.set_tracing(true);
  iss.run(max_cycles);
  if (!iss.halted()) return "ISS did not halt";
  if (iss.undefined()) return "ISS hit an undefined instruction";

  Cm0Testbench tb(nl);
  tb.load_halfwords(0, 0, program);
  tb.run(max_cycles);

  std::ostringstream os;
  const auto& ra = iss.reg_writes();
  const auto& rb = tb.reg_writes(0);
  for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
    if (ra[i].reg != rb[i].reg || ra[i].value != rb[i].value) {
      os << "reg stream diverges at " << i << ": iss r" << ra[i].reg << "=0x" << std::hex
         << ra[i].value << " core r" << std::dec << rb[i].reg << "=0x" << std::hex
         << rb[i].value;
      return os.str();
    }
  }
  if (ra.size() != rb.size()) {
    os << "reg stream length: iss " << ra.size() << " core " << rb.size();
    return os.str();
  }
  const auto& ma = iss.mem_writes();
  const auto& mb = tb.mem_writes(0);
  for (std::size_t i = 0; i < std::min(ma.size(), mb.size()); ++i) {
    if (ma[i].addr != mb[i].addr || ma[i].value != mb[i].value || ma[i].size != mb[i].size) {
      os << "mem stream diverges at " << i << ": iss [0x" << std::hex << ma[i].addr << "]=0x"
         << ma[i].value << "/" << std::dec << ma[i].size << " core [0x" << std::hex
         << mb[i].addr << "]=0x" << mb[i].value << "/" << std::dec << mb[i].size;
      return os.str();
    }
  }
  if (ma.size() != mb.size()) {
    os << "mem stream length: iss " << ma.size() << " core " << mb.size();
    return os.str();
  }
  const unsigned core_flags = tb.final_flags(0);
  const unsigned iss_flags = (iss.flag_n() ? 1u : 0) | (iss.flag_z() ? 2u : 0) |
                             (iss.flag_c() ? 4u : 0) | (iss.flag_v() ? 8u : 0);
  if (core_flags != iss_flags) {
    os << "final flags differ: iss " << iss_flags << " core " << core_flags;
    return os.str();
  }
  return std::string();
}

}  // namespace pdat::cores
