// Gate-level testbench for the Cortex-M0-like core, with architectural
// effect capture (register-write and memory-write streams) for lockstep
// validation against ThumbIss. Runs one program per simulation lane, each
// lane with its own memory; lanes never interact, so a lane's streams,
// flags and cycle count are those of its program run alone.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cores/sparse_memory.h"
#include "iss/thumb_iss.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat::cores {

class Cm0Testbench {
 public:
  static constexpr unsigned kLanes = BitSim::kLanes;

  explicit Cm0Testbench(const Netlist& nl, std::size_t mem_bytes = 1 << 20);

  /// Resets the core in every lane, empties every lane's memory and
  /// streams, and stops every lane.
  void reset();
  /// Writes `halves` into the memory of `lane` at `addr` and marks the lane
  /// running. Call after reset().
  void load_halfwords(unsigned lane, std::uint32_t addr, const std::vector<std::uint16_t>& halves);

  /// Runs one clock cycle of every running lane. Returns the lanes still
  /// running (those that did not halt this cycle).
  std::uint64_t cycle();
  std::uint64_t running() const { return running_; }
  /// Cycles until every running lane halts or `max_cycles` have run;
  /// returns the cycles executed.
  std::uint64_t run(std::uint64_t max_cycles);

  /// Cycles `lane` ran since reset(), its halting cycle included.
  std::uint64_t cycles(unsigned lane) const { return lanes_[lane].cycles; }
  const std::vector<iss::ThumbIss::RegWrite>& reg_writes(unsigned lane) const {
    return lanes_[lane].reg_writes;
  }
  const std::vector<iss::ThumbIss::MemWrite>& mem_writes(unsigned lane) const {
    return lanes_[lane].mem_writes;
  }
  /// NZCV packed as bits 3..0, as of the end of the lane's last cycle.
  unsigned final_flags(unsigned lane) const { return lanes_[lane].flags; }
  const BitSim& sim() const { return sim_; }  // gate toggle coverage source

 private:
  struct Lane {
    explicit Lane(std::size_t mem_bytes) : mem(mem_bytes) {}
    SparseMemory mem;
    std::vector<iss::ThumbIss::RegWrite> reg_writes;
    std::vector<iss::ThumbIss::MemWrite> mem_writes;
    unsigned flags = 0;
    std::uint64_t cycles = 0;
  };

  const Netlist& nl_;
  BitSim sim_;
  std::vector<Lane> lanes_;
  std::uint64_t running_ = 0;
  // Memory port inputs, one value per lane.
  std::array<std::uint64_t, kLanes> imem_in_{}, dmem_in_{};

  const Port *in_imem_, *in_dmem_;
  const Port *out_imem_addr_, *out_dmem_addr_, *out_dmem_wdata_, *out_dmem_be_, *out_dmem_re_,
      *out_dmem_we_, *out_reg_we_, *out_reg_waddr_, *out_reg_wdata_, *out_halted_, *out_flags_;

  std::uint32_t fetch_half(unsigned lane, std::uint32_t addr) const;  // imem serve + chaos hook
};

/// Runs the program on the netlist (lane 0) and on ThumbIss; compares the
/// register and memory write streams plus final flags. Empty string = match.
std::string cm0_cosim_against_iss(const Netlist& nl, const std::vector<std::uint16_t>& program,
                                  std::uint64_t max_cycles = 400000);

}  // namespace pdat::cores
