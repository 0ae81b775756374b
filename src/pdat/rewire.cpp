#include "pdat/rewire.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace pdat {

RewireStats apply_rewiring(Netlist& nl, const std::vector<GateProperty>& proven) {
  RewireStats st;
  std::unordered_set<NetId> rewired_nets;
  std::unordered_set<CellId> rewired_cells;
  std::unordered_map<NetId, NetId> const_target;  // const-rewired net -> tie
  // Pass 1/1b use substitutions, applied in order in one netlist pass.
  std::vector<std::pair<NetId, NetId>> subs;

  // Pass 1: constants (they subsume any implication on the same cell).
  for (const auto& p : proven) {
    if (!p.rewireable) {
      ++st.strengthen_only;
      continue;
    }
    if (p.kind != PropKind::Const0 && p.kind != PropKind::Const1) continue;
    if (!rewired_nets.insert(p.target).second) {
      ++st.skipped_conflicts;
      continue;
    }
    // Make sure the tie nets exist before detaching (const0() adds a cell).
    const NetId tie = p.kind == PropKind::Const0 ? nl.const0() : nl.const1();
    const CellId drv = nl.driver(p.target);
    if (drv != kNoCell) rewired_cells.insert(drv);
    nl.detach_driver(p.target);
    subs.emplace_back(p.target, tie);
    const_target.emplace(p.target, tie);
    ++st.const_rewires;
  }

  // Pass 1b: equivalences (extension library). Every use of the deeper net
  // is redirected to the class representative; acyclicity is guaranteed by
  // the representative's strictly lower original logic level (see
  // equivalence_candidates).
  for (const auto& p : proven) {
    if (!p.rewireable || p.kind != PropKind::Equiv) continue;
    if (!rewired_nets.insert(p.b).second) {
      ++st.skipped_conflicts;
      continue;
    }
    NetId target = p.a;
    auto it = const_target.find(target);
    if (it != const_target.end()) target = it->second;  // rep became a tie
    subs.emplace_back(p.b, target);
    if (p.cell != kNoCell) rewired_cells.insert(p.cell);
    ++st.equiv_rewires;
  }

  nl.replace_uses(subs);

  // Pass 2: implications (reads cell inputs after the substitutions).
  for (const auto& p : proven) {
    if (!p.rewireable) continue;
    if (p.kind != PropKind::Implies || p.cell == kNoCell || p.rewire_to_input < 0) continue;
    const Cell& c = nl.cell(p.cell);
    if (c.dead || !rewired_cells.insert(p.cell).second) {
      ++st.skipped_conflicts;
      continue;
    }
    const NetId out = c.out;
    if (!rewired_nets.insert(out).second) {
      ++st.skipped_conflicts;
      continue;
    }
    const NetId src = c.in[static_cast<std::size_t>(p.rewire_to_input)];
    nl.redrive_net(out, p.rewire_inverted ? CellKind::Inv : CellKind::Buf, src);
    ++st.impl_rewires;
  }
  return st;
}

}  // namespace pdat
