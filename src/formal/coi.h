// Cone-of-influence proof localization (DESIGN.md §5.9).
//
// Partitions the alive candidate invariants into *cones*: fan-in-closed
// net/cell regions such that every candidate's verdict in a localized
// induction query equals its verdict in the global query. A cone is closed
// three ways:
//
//   1. Sequential fan-in: every net reachable backwards through cell inputs
//      (crossing flop D-pins) from a candidate's property nets is in its
//      cone. Nets cut by the environment restriction (detached drivers) and
//      primary inputs terminate the closure — they are free in the cone
//      exactly as they are free globally.
//   2. Environment assumes: any assume net whose own fan-in closure touches
//      the cone is pulled in (with its closure) and asserted locally.
//      Assumes disjoint from the cone factor out of the global query and
//      are dropped (their satisfiability is the environment-vacuity check).
//   3. Hypothesis overlap: any alive candidate whose support intersects the
//      cone joins the cone (transitively). Candidates left outside have
//      fully disjoint support, so their induction-hypothesis clauses factor
//      out of the global query.
//
// With those closures, at k = 1, a localized step query is
// equisatisfiable with the global one: UNSAT locally implies UNSAT globally
// because the local clauses are a subset; SAT locally extends to a global
// model by choosing out-of-cone frame-0 state freely from any allowed
// execution (which exists whenever the base case passed and the
// environment is non-vacuous) and evaluating the rest forward. A candidate
// is killed only by a model in which every live hypothesis holds at frame
// 0, so no member of the greatest inductive subset is ever killed: however
// the kills are scheduled (Jacobi rounds globally, a cone run to closure
// locally), the proved set is that unique greatest inductive subset.
//
// Counterexample replay keeps this. A cone-local model has no values
// outside the cone, and replay needs none: the cone is fan-in closed, so
// its flops at frame k fix every cone net on every later cycle, whatever
// the out-of-cone flops hold. The model's frame-0 state satisfies every
// live cone hypothesis, so the greatest inductive subset restricted to the
// cone holds on every cycle replayed from frame k under allowed stimulus,
// and a replay kill never removes a member of it. tests/test_coi_fuzz.cpp
// enforces all of this differentially against the global engine, with
// replay on and off.
//
// Each cone also has a canonical content fingerprint (nets renumbered by
// deterministic BFS from the candidate seeds) used by the proof cache to
// recognize bit-identical cones across rounds and runs.
#pragma once

#include <cstdint>
#include <vector>

#include "formal/cnf_encoder.h"
#include "formal/proofcache.h"
#include "formal/property.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "sat/solver.h"

namespace pdat {

/// One localized proof region.
struct Cone {
  std::vector<NetId> nets;    // fan-in closed, ascending
  std::vector<CellId> comb;   // combinational cone cells, topological order
  std::vector<CellId> flops;  // cone flops
  std::vector<NetId> assumes; // in-cone environment assume nets, ascending
  /// Alive candidate indices whose verdicts this cone decides (ascending).
  /// In step queries these are exactly the hypothesis candidates to assert.
  std::vector<std::uint32_t> candidates;
};

struct ConePartition {
  /// Ordered by smallest member candidate index (deterministic).
  std::vector<Cone> cones;
  std::size_t total_cone_cells = 0;
};

/// Partitions the alive candidates (alive[i] == true) into support-closed
/// cones as described above. O(nets + cells + candidates) per call.
ConePartition partition_cones(const Netlist& nl, const Levelization& lv,
                              const std::vector<GateProperty>& cands,
                              const std::vector<bool>& alive,
                              const std::vector<NetId>& assumes);

/// Canonical content fingerprint of a cone: cell structure, flop initial
/// values, free-net markers, assume positions, and candidate descriptors,
/// all over BFS-renumbered net ids so the digest is independent of absolute
/// NetId values. Two cones with equal fingerprints pose identical queries.
CacheKey cone_fingerprint(const Netlist& nl, const Cone& cone,
                          const std::vector<GateProperty>& cands);

/// Frame encoder restricted to one cone: variables and clauses only for
/// cone nets/cells. Frames index net_var by global NetId (vars of nets
/// outside the cone stay -1), so GateProperty nets address frames directly.
class ConeEncoder {
 public:
  ConeEncoder(const Netlist& nl, const Cone& cone) : nl_(nl), cone_(cone) {}

  Frame encode(sat::Solver& s) const;
  void link(sat::Solver& s, const Frame& prev, const Frame& next) const;
  void fix_initial(sat::Solver& s, const Frame& f) const;

 private:
  const Netlist& nl_;
  const Cone& cone_;
};

/// Content fingerprint of a whole netlist (live cells, ports, initial
/// values) plus helper for environment hashes. Used for global (non-COI)
/// cache keys and for PdatOptions-level environment fingerprints.
void hash_netlist(Fnv128& h, const Netlist& nl);

}  // namespace pdat
