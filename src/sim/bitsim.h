// 64-way bit-parallel two-valued netlist simulator.
//
// Each net carries a 64-bit word: bit i is the net's value in simulation
// slot i. One step() evaluates the combinational logic and clocks the flops.
// This is the workhorse behind candidate generation (constrained random
// simulation), counterexample filtering, and netlist co-simulation.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace pdat {

/// Calls f(slot) for every set bit of `slots`, lowest slot first.
template <class F>
void for_each_lane(std::uint64_t slots, F&& f) {
  for (; slots != 0; slots &= slots - 1) f(static_cast<unsigned>(std::countr_zero(slots)));
}

/// Transposes a 64x64 bit matrix in place: bit j of a[i] swaps with bit i
/// of a[j]. Converts between per-bit lane words and per-lane values.
void transpose64(std::uint64_t a[64]);

class BitSim {
 public:
  /// Simulation slots ("lanes"): one per bit of a net's word.
  static constexpr unsigned kLanes = 64;

  explicit BitSim(const Netlist& nl);

  /// Resets all flops to their init values (X treated as 0) in every slot.
  void reset();

  /// Sets a primary-input net value for all 64 slots.
  void set_input(NetId net, std::uint64_t word);
  /// Convenience: drive a multi-bit port with the same value in all slots.
  void set_port_uniform(const Port& port, std::uint64_t value);
  /// Drive a multi-bit port with a per-slot value (values[slot], 64 of
  /// them). Port bits beyond the 64th are driven 0.
  void set_port_per_slot(const Port& port, const std::uint64_t* values);

  /// Evaluates combinational logic with current inputs and flop states.
  void eval();
  /// Clocks the flops using already-evaluated values (call after eval()).
  void latch();
  /// eval() then latch().
  void step();

  std::uint64_t value(NetId net) const { return vals_[net]; }
  /// Reads a multi-bit port in one slot as an integer (LSB-first).
  std::uint64_t read_port(const Port& port, int slot) const;
  /// Reads a port of at most 64 bits in every slot at once: values[slot].
  void read_port_per_slot(const Port& port, std::uint64_t* values) const;
  /// Slots in which any bit of `port` is 1.
  std::uint64_t nonzero_slots(const Port& port) const;

  /// Direct access to flop state (for loading formal counterexamples).
  void set_flop_state(CellId flop, std::uint64_t word);
  std::uint64_t flop_state(CellId flop) const;

  const Netlist& netlist() const { return nl_; }
  const Levelization& levels() const { return lv_; }

 private:
  /// One combinational cell of the op stream. Pins index vals_; absent pins
  /// index the always-zero slot vals_[num_nets].
  struct Op {
    CellKind kind;
    NetId a, b, c, out;
  };
  /// One flop: its state lives in flop_q_[cell].
  struct Flop {
    CellId cell;
    NetId d, q;
  };

  const Netlist& nl_;
  Levelization lv_;
  std::vector<Op> ops_;
  std::vector<Flop> flops_;
  std::vector<std::uint64_t> vals_;      // per net, plus the zero slot
  std::vector<std::uint64_t> flop_q_;    // per cell id (sparse; indexed by CellId)
};

}  // namespace pdat
