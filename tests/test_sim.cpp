#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "sim/bitsim.h"
#include "synth/builder.h"
#include "test_util.h"

namespace pdat {
namespace {

TEST(BitSim, CombinationalGateSlots) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  auto b = nl.add_input("b", 1);
  const NetId x = nl.add_cell(CellKind::And2, a[0], b[0]);
  nl.add_output("y", {x});
  BitSim sim(nl);
  sim.set_input(a[0], 0b1100);
  sim.set_input(b[0], 0b1010);
  sim.eval();
  EXPECT_EQ(sim.value(x) & 0xf, 0b1000u);
}

TEST(BitSim, FlopHoldsAndClocks) {
  Netlist nl;
  auto d = nl.add_input("d", 1);
  const NetId q = nl.add_cell(CellKind::Dff, d[0]);
  nl.add_output("q", {q});
  BitSim sim(nl);
  sim.set_input(d[0], ~0ULL);
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u) << "before the clock edge, q is the init value";
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
}

TEST(BitSim, InitValueRespected) {
  Netlist nl;
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(q)).init = Tri::T;
  nl.add_output("q", {q});
  BitSim sim(nl);
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u);
}

TEST(BitSim, PortHelpers) {
  Netlist nl;
  synth::Builder bld(nl);
  auto a = bld.input("a", 8);
  bld.output("y", bld.not_(a));
  BitSim sim(nl);
  const Port& in = nl.inputs()[0];
  const Port& out = nl.outputs()[0];
  sim.set_port_uniform(in, 0x5a);
  sim.eval();
  EXPECT_EQ(sim.read_port(out, 0), 0xa5u);
  EXPECT_EQ(sim.read_port(out, 63), 0xa5u);

  std::uint64_t per_slot[64];
  for (int i = 0; i < 64; ++i) per_slot[i] = static_cast<std::uint64_t>(i);
  sim.set_port_per_slot(in, per_slot);
  sim.eval();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(sim.read_port(out, i), (~static_cast<std::uint64_t>(i)) & 0xff);
  }

  // The all-slot reader agrees with the one-slot reader.
  std::uint64_t read[64];
  sim.read_port_per_slot(out, read);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(read[i], sim.read_port(out, i)) << "slot " << i;
  EXPECT_EQ(sim.nonzero_slots(out), ~0ULL) << "y = ~slot is nonzero in every slot";
  per_slot[7] = 0xff;  // y = 0 in slot 7 only
  sim.set_port_per_slot(in, per_slot);
  sim.eval();
  EXPECT_EQ(sim.nonzero_slots(out), ~(1ULL << 7));
}

TEST(BitSim, Transpose64MatchesNaive) {
  std::uint64_t a[64], t[64];
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& w : a) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::copy(a, a + 64, t);
  transpose64(t);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((t[i] >> j) & 1, (a[j] >> i) & 1) << i << "," << j;
    }
  }
  transpose64(t);
  EXPECT_TRUE(std::equal(a, a + 64, t)) << "transposition is an involution";
}

// The op stream reorders cells by (level, kind) and reads absent pins from a
// zero slot; a plain topological walk calling cell_eval64 per cell is the
// reference. Netlists mix every combinational kind, tie cells, detached
// drivers (their nets become free) and dead cells.
TEST(BitSim, OpStreamMatchesCellEval64) {
  const CellKind comb[] = {CellKind::Const0, CellKind::Const1, CellKind::Buf,   CellKind::Inv,
                           CellKind::And2,   CellKind::Or2,    CellKind::Nand2, CellKind::Nor2,
                           CellKind::Xor2,   CellKind::Xnor2,  CellKind::And3,  CellKind::Or3,
                           CellKind::Nand3,  CellKind::Nor3,   CellKind::Mux2,  CellKind::Aoi21,
                           CellKind::Oai21};
  static_assert(std::size(comb) + 1 == kNumCellKinds, "every combinational kind is covered");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Netlist nl;
    std::vector<NetId> pool = nl.add_input("in", 6);
    std::vector<CellId> flops;
    for (int i = 0; i < 10; ++i) {
      const NetId q = nl.add_cell(CellKind::Dff, pool[0]);
      flops.push_back(nl.driver(q));
      nl.cell(flops.back()).init = rng.chance(128) ? Tri::T : Tri::F;
      pool.push_back(q);
    }
    for (int i = 0; i < 300; ++i) {
      const CellKind k = comb[static_cast<std::size_t>(i) % std::size(comb)];
      const int n = cell_num_inputs(k);
      NetId pin[3] = {kNoNet, kNoNet, kNoNet};
      for (int j = 0; j < n; ++j) pin[j] = pool[rng.below(pool.size())];
      pool.push_back(nl.add_cell(k, pin[0], pin[1], pin[2]));
    }
    for (const CellId f : flops) nl.cell(f).in[0] = pool[rng.below(pool.size())];
    // Cutpoints: the nets turn free and their old drivers feed dangling nets.
    std::vector<NetId> free = nl.inputs()[0].bits;
    for (int i = 0; i < 12; ++i) {
      const NetId n = pool[16 + rng.below(pool.size() - 16)];
      if (nl.driver(n) != kNoCell && nl.detach_driver(n) != kNoNet) free.push_back(n);
    }
    for (int i = 0; i < 8; ++i) nl.kill_cell(static_cast<CellId>(rng.below(nl.num_cells_raw())));
    nl.add_output("out", {pool.back()});

    BitSim sim(nl);
    const Levelization lv = levelize(nl);
    std::vector<std::uint64_t> ref(nl.num_nets(), 0), q(nl.num_cells_raw(), 0);
    for (const CellId f : lv.flops) q[f] = nl.cell(f).init == Tri::T ? ~0ULL : 0;
    const auto pin = [&](NetId n) { return n == kNoNet ? 0 : ref[n]; };
    for (int cyc = 0; cyc < 200; ++cyc) {
      for (const NetId n : free) {
        ref[n] = rng.next();
        sim.set_input(n, ref[n]);
      }
      for (const CellId f : lv.flops) ref[nl.cell(f).out] = q[f];
      for (const CellId id : lv.comb_order) {
        const Cell& c = nl.cell(id);
        ref[c.out] = cell_eval64(c.kind, pin(c.in[0]), pin(c.in[1]), pin(c.in[2]));
      }
      sim.eval();
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_EQ(sim.value(n), ref[n]) << "seed " << seed << " cycle " << cyc << " net " << n;
      }
      for (const CellId f : lv.flops) q[f] = ref[nl.cell(f).in[0]];
      sim.latch();
      for (const CellId f : lv.flops) ASSERT_EQ(sim.flop_state(f), q[f]);
    }
  }
}

}  // namespace
}  // namespace pdat
