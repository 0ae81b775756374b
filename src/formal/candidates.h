// Simulation-based candidate filtering.
//
// Constrained random simulation (the cheap half of the property checker):
// any gate property violated on a simulated allowed execution cannot be an
// invariant, so it is dropped before the expensive SAT phase. 64 simulation
// slots run in parallel per cycle. Each cycle checks only the candidates
// still alive, so the cost falls as candidates die.
#pragma once

#include <cstdint>
#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "netlist/netlist.h"

namespace pdat {

/// Slots in which the simulator's current values falsify `p`.
inline std::uint64_t violation_slots(const GateProperty& p, const BitSim& sim) {
  switch (p.kind) {
    case PropKind::Const0: return sim.value(p.target);
    case PropKind::Const1: return ~sim.value(p.target);
    case PropKind::Implies: return sim.value(p.a) & ~sim.value(p.b);
    case PropKind::Equiv: return sim.value(p.a) ^ sim.value(p.b);
  }
  return 0;
}

/// Removes from `live`, a list of ascending indices into `cands`, every
/// candidate the simulator's current values falsify, keeping the rest in
/// order. Calls kill(i) for each removed index, in ascending order.
template <class Kill>
void drop_violated(const std::vector<GateProperty>& cands, const BitSim& sim,
                   std::vector<std::uint32_t>& live, Kill&& kill) {
  std::size_t kept = 0;
  for (const std::uint32_t i : live) {
    if (violation_slots(cands[i], sim) != 0) {
      kill(i);
    } else {
      live[kept++] = i;
    }
  }
  live.resize(kept);
}

struct SimFilterOptions {
  int cycles = 512;     // cycles per restart
  int restarts = 4;     // independent reset/run repetitions
  std::uint64_t seed = 0x5eed;
  std::vector<NetId> free_nets;  // cutpoint nets to drive randomly if unowned
};

struct SimFilterResult {
  std::vector<GateProperty> survivors;
  std::size_t dropped = 0;
  /// Cycles in which some environment assume-net evaluated 0 in some slot;
  /// nonzero indicates an imprecise stimulus driver (harmless but noisy).
  std::size_t assume_violation_cycles = 0;
};

SimFilterResult sim_filter(const Netlist& nl, const Environment& env,
                           std::vector<GateProperty> candidates, const SimFilterOptions& opt);

struct EquivCandidateOptions {
  SimFilterOptions sim;
  /// Nets with cell id >= this limit (analysis-only constraint logic) are
  /// not considered. kNoCell disables the filter.
  CellId cell_limit = kNoCell;
  std::size_t max_class_size = 64;  // ignore huge signature classes
};

/// Signal-correspondence candidate generation (van Eijk): nets that carry
/// identical values throughout a constrained-random simulation are grouped
/// by signature; each non-representative member yields an Equiv candidate
/// against the class representative. Representatives are chosen at minimal
/// logic level, which guarantees that replacing members by representatives
/// can never create a combinational cycle (every new consumer edge points
/// to a strictly lower original level).
std::vector<GateProperty> equivalence_candidates(const Netlist& nl, const Environment& env,
                                                 const EquivCandidateOptions& opt);

}  // namespace pdat
