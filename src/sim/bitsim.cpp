#include "sim/bitsim.h"

#include <algorithm>

#include "base/types.h"

namespace pdat {

void transpose64(std::uint64_t a[64]) {
  // Recursive block swap: exchange the off-diagonal j x j blocks of every
  // 2j x 2j block, for j = 32, 16, ..., 1.
  std::uint64_t m = 0x00000000ffffffffULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

BitSim::BitSim(const Netlist& nl) : nl_(nl), lv_(levelize(nl)) {
  const auto zero = static_cast<NetId>(nl.num_nets());
  ops_.reserve(lv_.comb_order.size());
  for (CellId id : lv_.comb_order) {
    const Cell& c = nl.cell(id);
    const int n = cell_num_inputs(c.kind);
    const auto pin = [&](int i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      return i < n && in != kNoNet ? in : zero;
    };
    ops_.push_back({c.kind, pin(0), pin(1), pin(2), c.out});
  }
  std::stable_sort(ops_.begin(), ops_.end(), [&](const Op& x, const Op& y) {
    const int lx = lv_.net_level[x.out], ly = lv_.net_level[y.out];
    return lx != ly ? lx < ly : x.kind < y.kind;
  });
  flops_.reserve(lv_.flops.size());
  for (CellId id : lv_.flops) flops_.push_back({id, nl.cell(id).in[0], nl.cell(id).out});
  vals_.assign(nl.num_nets() + 1, 0);
  flop_q_.assign(nl.num_cells_raw(), 0);
  reset();
}

void BitSim::reset() {
  for (const Flop& f : flops_) {
    flop_q_[f.cell] = nl_.cell(f.cell).init == Tri::T ? ~0ULL : 0ULL;
    vals_[f.q] = flop_q_[f.cell];
  }
}

void BitSim::set_input(NetId net, std::uint64_t word) { vals_[net] = word; }

void BitSim::set_port_uniform(const Port& port, std::uint64_t value) {
  for (std::size_t i = 0; i < port.bits.size(); ++i) {
    vals_[port.bits[i]] = ((value >> i) & 1) ? ~0ULL : 0ULL;
  }
}

void BitSim::set_port_per_slot(const Port& port, const std::uint64_t* values) {
  std::uint64_t m[kLanes];
  std::copy(values, values + kLanes, m);
  transpose64(m);
  for (std::size_t bit = 0; bit < port.bits.size(); ++bit) {
    vals_[port.bits[bit]] = bit < kLanes ? m[bit] : 0;
  }
}

void BitSim::eval() {
  std::uint64_t* const v = vals_.data();
  for (const Flop& f : flops_) v[f.q] = flop_q_[f.cell];
  // Same functions as cell_eval64, inlined; comb cells only (no Dff).
  for (const Op& op : ops_) {
    const std::uint64_t a = v[op.a], b = v[op.b], c = v[op.c];
    std::uint64_t r = 0;
    switch (op.kind) {
      case CellKind::Const0: r = 0; break;
      case CellKind::Const1: r = ~0ULL; break;
      case CellKind::Buf: r = a; break;
      case CellKind::Inv: r = ~a; break;
      case CellKind::And2: r = a & b; break;
      case CellKind::Or2: r = a | b; break;
      case CellKind::Nand2: r = ~(a & b); break;
      case CellKind::Nor2: r = ~(a | b); break;
      case CellKind::Xor2: r = a ^ b; break;
      case CellKind::Xnor2: r = ~(a ^ b); break;
      case CellKind::And3: r = a & b & c; break;
      case CellKind::Or3: r = a | b | c; break;
      case CellKind::Nand3: r = ~(a & b & c); break;
      case CellKind::Nor3: r = ~(a | b | c); break;
      case CellKind::Mux2: r = (a & ~c) | (b & c); break;
      case CellKind::Aoi21: r = ~((a & b) | c); break;
      case CellKind::Oai21: r = ~((a | b) & c); break;
      case CellKind::Dff:
      case CellKind::kCount: break;
    }
    v[op.out] = r;
  }
}

void BitSim::latch() {
  for (const Flop& f : flops_) flop_q_[f.cell] = vals_[f.d];
  for (const Flop& f : flops_) vals_[f.q] = flop_q_[f.cell];
}

void BitSim::step() {
  eval();
  latch();
}

std::uint64_t BitSim::read_port(const Port& port, int slot) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < port.bits.size(); ++i) {
    v |= ((vals_[port.bits[i]] >> slot) & 1ULL) << i;
  }
  return v;
}

void BitSim::read_port_per_slot(const Port& port, std::uint64_t* values) const {
  if (port.bits.size() > kLanes) throw PdatError("read_port_per_slot: port wider than 64 bits");
  std::fill(values, values + kLanes, 0);
  for (std::size_t i = 0; i < port.bits.size(); ++i) values[i] = vals_[port.bits[i]];
  transpose64(values);
}

std::uint64_t BitSim::nonzero_slots(const Port& port) const {
  std::uint64_t any = 0;
  for (const NetId n : port.bits) any |= vals_[n];
  return any;
}

void BitSim::set_flop_state(CellId flop, std::uint64_t word) {
  flop_q_[flop] = word;
  vals_[nl_.cell(flop).out] = word;
}

std::uint64_t BitSim::flop_state(CellId flop) const { return flop_q_[flop]; }

}  // namespace pdat
