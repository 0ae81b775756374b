// Bounded model checking over netlist unrollings.
//
// Used to validate the induction engine (a proved invariant must never have
// a bounded counterexample), to sanity-check that an environment is
// satisfiable (a vacuous environment would "prove" everything), and in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "formal/proofcache.h"
#include "netlist/netlist.h"

namespace pdat {

struct BmcResult {
  bool violated = false;       // a counterexample exists within the bound
  int violation_frame = -1;
  bool inconclusive = false;   // conflict budget or deadline exhausted
};

struct BmcCheckOptions {
  int depth = 16;
  std::int64_t conflict_budget = -1;
  double deadline_seconds = 0;
  /// Unroll only the property's cone of influence (coi.h) instead of the
  /// whole netlist. Exactly equisatisfiable for BMC — the initial state
  /// pins every flop, so any cone-local counterexample extends to a global
  /// one by evaluating the rest of the netlist forward — hence verdicts
  /// and violation frames are unchanged at any depth.
  bool coi_localize = false;
  /// Optional verdict cache, keyed by the canonical cone fingerprint (only
  /// meaningful together with coi_localize). Only conclusive, deadline-free
  /// verdicts are stored.
  ProofCache* cache = nullptr;
  /// Certified solving (DESIGN.md §5.10): DRAT-check every per-frame SAT
  /// verdict with the independent checker before reporting it. A failed
  /// check raises CertificationError. Cached verdicts written by
  /// uncertified runs are re-solved and upgraded, never trusted.
  bool certify = false;
};

/// Checks a single property over frames 0..depth-1 from the initial state,
/// with the environment assumed at every frame. `deadline_seconds` bounds
/// the whole call's wall clock (0 = unlimited); frames not solved when it
/// expires are reported as inconclusive, never as "no counterexample".
BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    int depth, std::int64_t conflict_budget = -1,
                    double deadline_seconds = 0);

/// Same check with localization/caching knobs.
BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    const BmcCheckOptions& opt);

/// True iff there exists an allowed execution of length `depth` from the
/// initial state (i.e. the environment is non-vacuous up to the bound).
/// First simulates `depth` cycles of the environment's stimulus (on cloned
/// drivers, fixed seed): a lane in which every assume held is such an
/// execution, and the answer is true without any SAT call. Only when no
/// lane survives does one SAT query over the unrolled netlist decide; that
/// is the only way to prove vacuity. A blown deadline answers true
/// (inconclusive must not masquerade as a vacuity proof and veto the run).
bool env_satisfiable(const Netlist& nl, const Environment& env, int depth,
                     double deadline_seconds = 0);

}  // namespace pdat
