// Gate-level testbench for the Ibex-like core: drives a netlist through
// BitSim with one program per simulation lane, each lane with its own
// combinational unified memory, and collects every lane's architectural
// trace (register writebacks, memory writes) for comparison against the ISS
// golden model. Lanes never interact — every gate evaluates bitwise — so a
// lane's trace and cycle count are those of its program run alone. Used by
// tests, examples, the differential fuzzer, and the end-to-end equivalence
// checks of reduced cores.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cores/sparse_memory.h"
#include "iss/rv32_iss.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat::cores {

class IbexTestbench {
 public:
  static constexpr unsigned kLanes = BitSim::kLanes;

  /// The netlist must expose the Ibex port list (see ibex_core.cpp).
  explicit IbexTestbench(const Netlist& nl, std::size_t mem_bytes = 1 << 20);

  /// Resets the core in every lane, empties every lane's memory and trace,
  /// and stops every lane.
  void reset();
  /// Writes `words` into the memory of `lane` at `addr` and marks the lane
  /// running. Call after reset().
  void load_words(unsigned lane, std::uint32_t addr, const std::vector<std::uint32_t>& words);

  /// Runs one clock cycle of every running lane. Returns the lanes still
  /// running (those that did not halt this cycle).
  std::uint64_t cycle();
  std::uint64_t running() const { return running_; }

  /// Cycles until every running lane halts or `max_cycles` have run;
  /// returns the cycles executed.
  std::uint64_t run(std::uint64_t max_cycles);

  /// Cycles `lane` ran since reset(), its halting cycle included.
  std::uint64_t cycles(unsigned lane) const { return lanes_[lane].cycles; }
  const std::vector<iss::Rv32Iss::TraceEntry>& trace(unsigned lane) const {
    return lanes_[lane].trace;
  }
  std::uint64_t retired(unsigned lane) const { return lanes_[lane].retired; }
  const BitSim& sim() const { return sim_; }  // gate toggle coverage source

 private:
  struct Lane {
    explicit Lane(std::size_t mem_bytes) : mem(mem_bytes) {}
    SparseMemory mem;
    std::vector<iss::Rv32Iss::TraceEntry> trace;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    // First half of an in-flight word-boundary-crossing store.
    std::uint32_t pending_store_addr = 0;
    unsigned pending_store_count = 0;
  };

  const Netlist& nl_;
  BitSim sim_;
  std::vector<Lane> lanes_;
  std::uint64_t running_ = 0;
  // Memory port inputs, one value per lane.
  std::array<std::uint64_t, kLanes> imem_in_{}, dmem_in_{};

  const Port* in_imem_;
  const Port* in_dmem_;
  const Port* out_imem_addr_;
  const Port* out_dmem_addr_;
  const Port* out_dmem_wdata_;
  const Port* out_dmem_be_;
  const Port* out_dmem_re_;
  const Port* out_dmem_we_;
  const Port* out_retire_;
  const Port* out_retire_pc_;
  const Port* out_rd_we_;
  const Port* out_rd_addr_;
  const Port* out_rd_wdata_;
  const Port* out_halted_;
};

/// Runs the same program on the netlist (lane 0) and the ISS and compares
/// the full architectural traces. Returns an empty string on success or a
/// human-readable mismatch description.
std::string cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                              std::uint64_t max_cycles = 200000);

}  // namespace pdat::cores
