#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "cores/cm0/cm0_core.h"
#include "cores/ibex/ibex_core.h"
#include "formal/bmc.h"
#include "formal/candidates.h"
#include "formal/cnf_encoder.h"
#include "formal/induction.h"
#include "opt/optimizer.h"
#include "pdat/property_library.h"
#include "pdat/restrictions.h"
#include "sim/bitsim.h"
#include "synth/builder.h"
#include "test_util.h"
#include "trace/trace.h"

namespace pdat {
namespace {

GateProperty const0(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const0;
  p.target = n;
  return p;
}

GateProperty const1(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const1;
  p.target = n;
  return p;
}

GateProperty implies(NetId a, NetId b) {
  GateProperty p;
  p.kind = PropKind::Implies;
  p.a = a;
  p.b = b;
  return p;
}

// --- frame encoding consistency ---------------------------------------------

class FrameEncoding : public ::testing::TestWithParam<int> {};

TEST_P(FrameEncoding, ModelMatchesSimulator) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 6, 80, 8, 4);
  FrameEncoder enc(nl);
  sat::Solver s;
  const Frame f = enc.encode(s);
  // Pin primary inputs and flop outputs to random values; every other net
  // must then take exactly the simulated value.
  BitSim sim(nl);
  Rng rng(seed * 31 + 7);
  for (const auto& p : nl.inputs()) {
    for (NetId n : p.bits) {
      const bool v = rng.chance(128);
      sim.set_input(n, v ? ~0ULL : 0);
      s.add_clause(f.lit(n, v));
    }
  }
  for (CellId flop : sim.levels().flops) {
    const bool v = rng.chance(128);
    sim.set_flop_state(flop, v ? ~0ULL : 0);
    s.add_clause(f.lit(nl.cell(flop).out, v));
  }
  sim.eval();
  ASSERT_EQ(s.solve(), sat::SolveResult::Sat);
  for (CellId id : sim.levels().comb_order) {
    const NetId n = nl.cell(id).out;
    EXPECT_EQ(s.model_value(f.net_var[n]), sim.value(n) != 0) << "net " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameEncoding, ::testing::Range(1, 13));

TEST(FrameEncoding, LinkTransfersState) {
  // Counter: q <= q + 1 (2 bits). After linking two frames with q0 = 1,
  // frame 1 must show q = 2.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  FrameEncoder enc(nl);
  sat::Solver s;
  const Frame f0 = enc.encode(s);
  const Frame f1 = enc.encode(s);
  enc.link(s, f0, f1);
  s.add_clause(f0.lit(r.q[0], true));
  s.add_clause(f0.lit(r.q[1], false));
  ASSERT_EQ(s.solve(), sat::SolveResult::Sat);
  EXPECT_FALSE(s.model_value(f1.net_var[r.q[0]]));
  EXPECT_TRUE(s.model_value(f1.net_var[r.q[1]]));
}

// --- induction ----------------------------------------------------------------

TEST(Induction, EnableConstrainedCounterStaysZero) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  // Environment: en == 0, i.e. assume NOT(en).
  Environment env;
  env.add_assume(b.not_(en[0]));

  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  InductionStats st;
  auto proven = prove_invariants(nl, env, cands, {}, &st);
  EXPECT_EQ(proven.size(), 4u);
  EXPECT_EQ(st.proven, 4u);
}

TEST(Induction, UnconstrainedCounterBitsKilled) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;  // no restriction
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  auto proven = prove_invariants(nl, env, cands);
  EXPECT_TRUE(proven.empty());
}

TEST(Induction, MutualInductionChain) {
  // q1 <= en (en constrained to 0), q2 <= q1. "q2 == 0" is not 1-inductive
  // alone but is provable together with "q1 == 0".
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r1 = b.reg_decl(1, 0);
  b.connect(r1, synth::Bus{en[0]});
  auto r2 = b.reg_decl(1, 0);
  b.connect(r2, r1.q);
  b.output("q", r2.q);
  Environment env;
  env.add_assume(b.not_(en[0]));

  // Alone: killed (the inductive hypothesis lacks q1 == 0).
  auto alone = prove_invariants(nl, env, {const0(r2.q[0])});
  EXPECT_TRUE(alone.empty());

  // Together: both proven.
  auto both = prove_invariants(nl, env, {const0(r1.q[0]), const0(r2.q[0])});
  EXPECT_EQ(both.size(), 2u);
}

TEST(Induction, DeeperKProvesWhatOneInductionCannot) {
  // q1 <= en (env forces en == 0), q2 <= q1. With ONLY "q2 == 0" as a
  // candidate, 1-induction fails (q1 is unconstrained in the hypothesis)
  // but 2-induction succeeds: assuming q2==0 at t and t+1 pins the path
  // en@t -> q1@t+1 -> q2@t+2 through the environment.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r1 = b.reg_decl(1, 0);
  b.connect(r1, synth::Bus{en[0]});
  auto r2 = b.reg_decl(1, 0);
  b.connect(r2, r1.q);
  b.output("q", r2.q);
  Environment env;
  env.add_assume(b.not_(en[0]));

  InductionOptions k1;
  k1.k = 1;
  EXPECT_TRUE(prove_invariants(nl, env, {const0(r2.q[0])}, k1).empty());

  InductionOptions k2;
  k2.k = 2;
  EXPECT_EQ(prove_invariants(nl, env, {const0(r2.q[0])}, k2).size(), 1u);
}

TEST(Induction, DeepKStillRejectsReachableViolations) {
  // A counter with a free enable: no bit is invariant at any k.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(3, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  InductionOptions k3;
  k3.k = 3;
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  EXPECT_TRUE(prove_invariants(nl, env, cands, k3).empty());
}

TEST(Induction, BaseCaseKillsInductiveButUnreachableInvariant) {
  // q <= q with init 1: "q == 0" is 1-inductive (0 -> 0) but fails at reset.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(1, 1);
  b.connect(r, r.q);
  b.output("q", r.q);
  Environment env;
  InductionStats st;
  auto proven = prove_invariants(nl, env, {const0(r.q[0]), const1(r.q[0])}, {}, &st);
  ASSERT_EQ(proven.size(), 1u);
  EXPECT_EQ(proven[0].kind, PropKind::Const1);
}

TEST(Induction, ImplicationPropertyProven) {
  // y = a AND b. Environment: a -> b is forced by constraining inputs:
  // assume (a implies b). Then the gate input implication a->b holds, and
  // the AND's output equals a.
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  auto bb = b.input("b", 1);
  const NetId y = b.and_(a[0], bb[0]);
  b.output("y", {y});
  Environment env;
  env.add_assume(b.implies(a[0], bb[0]));
  auto proven = prove_invariants(nl, env, {implies(a[0], bb[0]), implies(bb[0], a[0])});
  ASSERT_EQ(proven.size(), 1u);
  EXPECT_EQ(proven[0].a, a[0]);
}

TEST(Induction, XInitFlopNotProvenConstant) {
  // q <= q with X init: neither const0 nor const1 may be proven.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl_x(1);
  b.connect(r, r.q);
  b.output("q", r.q);
  Environment env;
  auto proven = prove_invariants(nl, env, {const0(r.q[0]), const1(r.q[0])});
  EXPECT_TRUE(proven.empty());
}

// --- proved invariants never have bounded counterexamples ---------------------

class InductionSoundness : public ::testing::TestWithParam<int> {};

TEST_P(InductionSoundness, ProvenInvariantsHoldUnderBmc) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 5, 60, 6, 4);
  Environment env;  // unconstrained
  // Candidates: const0/const1 for every gate output.
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  auto proven = prove_invariants(nl, env, cands);
  for (const auto& p : proven) {
    const BmcResult r = bmc_check(nl, env, p, 6);
    EXPECT_FALSE(r.violated) << p.describe() << " violated at frame " << r.violation_frame;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InductionSoundness, ::testing::Range(1, 9));

// --- resource exhaustion degrades conservatively ------------------------------

TEST(Induction, TinyConflictBudgetDropsCandidatesNeverProvesUnsoundly) {
  // With a one-conflict budget nearly every UNSAT certificate is out of
  // reach: the prover must drop candidates as inconclusive (budget_kills)
  // rather than claim them proved. Whatever it still proves (propagation-
  // only queries) must be genuinely invariant.
  Netlist nl = test::random_netlist(99, 8, 200, 16, 6);
  Environment env;
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  InductionOptions opt;
  opt.conflict_budget = 1;
  opt.max_job_attempts = 1;  // no budget escalation: exhaustion must drop, not retry
  opt.cex_sim_cycles = 0;    // no replay accelerator: force the SAT-side path
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  EXPECT_GT(st.budget_kills, 0u) << "expected inconclusive candidates to be dropped";
  EXPECT_EQ(st.proven, proven.size());
  for (const auto& p : proven) {
    const BmcResult r = bmc_check(nl, env, p, 6);
    EXPECT_FALSE(r.violated) << p.describe() << " proved under budget but violated at frame "
                             << r.violation_frame;
  }
}

TEST(Induction, DeadlineAbortsProvingNothing) {
  // The counter that EnableConstrainedCounterStaysZero proves in full: with
  // an immediately-expired deadline the prover must return an empty set and
  // flag the timeout, never a partially-checked survivor set.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  env.add_assume(b.not_(en[0]));
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));

  InductionOptions opt;
  opt.deadline_seconds = 1e-9;
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  EXPECT_TRUE(proven.empty());
  EXPECT_TRUE(st.timed_out);
  EXPECT_EQ(st.proven, 0u);

  // Control: the same run without a deadline proves all four bits.
  EXPECT_EQ(prove_invariants(nl, env, cands).size(), 4u);
}

// --- simulation filter ----------------------------------------------------------

TEST(SimFilter, DropsEasilyFalsifiedCandidates) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  const NetId y = b.and_(a[0], b.bit(true));  // y == a: toggles
  const NetId z = b.and_(a[0], b.not_(a[0])); // z == 0 always
  b.output("o", {y, z});
  Environment env;
  SimFilterOptions opt;
  opt.cycles = 64;
  auto res = sim_filter(nl, env, {const0(y), const0(z)}, opt);
  ASSERT_EQ(res.survivors.size(), 1u);
  EXPECT_EQ(res.survivors[0].target, z);
  EXPECT_EQ(res.dropped, 1u);
}

TEST(SimFilter, RespectsEnvironmentDrivers) {
  // Instruction-style bus constrained to even values: LSB==0 must survive.
  Netlist nl;
  synth::Builder b(nl);
  auto instr = b.input("instr", 8);
  b.output("o", instr);
  Environment env;
  env.drivers.push_back(std::make_shared<SampledWordDriver>(
      instr, [](Rng& rng) { return rng.next() & 0xfe; }));
  env.add_assume(b.not_(instr[0]));
  SimFilterOptions opt;
  opt.cycles = 128;
  std::vector<GateProperty> cands = {const0(instr[0]), const0(instr[1])};
  auto res = sim_filter(nl, env, cands, opt);
  ASSERT_EQ(res.survivors.size(), 1u);
  EXPECT_EQ(res.survivors[0].target, instr[0]);
  EXPECT_EQ(res.assume_violation_cycles, 0u);
}

/// The filter as it was before the live list: per-cycle stimulus that
/// recomputes the owned nets, and a scan over every candidate every cycle.
SimFilterResult full_scan_filter(const Netlist& nl, const Environment& env,
                                 const std::vector<GateProperty>& cands,
                                 const SimFilterOptions& opt) {
  SimFilterResult res;
  BitSim sim(nl);
  Rng rng(opt.seed);
  std::vector<bool> alive(cands.size(), true);
  for (int r = 0; r < opt.restarts; ++r) {
    sim.reset();
    for (int cyc = 0; cyc < opt.cycles; ++cyc) {
      std::set<NetId> owned;
      for (const auto& d : env.drivers) {
        for (NetId n : d->owned_nets()) owned.insert(n);
      }
      for (const Port& p : nl.inputs()) {
        for (NetId n : p.bits) {
          if (!owned.count(n)) sim.set_input(n, rng.next());
        }
      }
      for (NetId n : opt.free_nets) {
        if (!owned.count(n)) sim.set_input(n, rng.next());
      }
      for (const auto& d : env.drivers) d->drive(sim, rng);
      sim.eval();
      bool env_ok = true;
      for (NetId a : env.assumes) env_ok = env_ok && sim.value(a) == ~0ULL;
      if (!env_ok) {
        ++res.assume_violation_cycles;
      } else {
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const GateProperty& p = cands[i];
          std::uint64_t bad = 0;
          switch (p.kind) {
            case PropKind::Const0: bad = sim.value(p.target); break;
            case PropKind::Const1: bad = ~sim.value(p.target); break;
            case PropKind::Implies: bad = sim.value(p.a) & ~sim.value(p.b); break;
            case PropKind::Equiv: bad = sim.value(p.a) ^ sim.value(p.b); break;
          }
          if (bad != 0) alive[i] = false;
        }
      }
      sim.latch();
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (alive[i]) {
      res.survivors.push_back(cands[i]);
    } else {
      ++res.dropped;
    }
  }
  return res;
}

/// Runs both filters on `design` under `restrict_fn`'s analysis netlist and
/// its property-library candidates.
void expect_live_list_matches_full_scan(
    const Netlist& design, const std::function<RestrictionResult(Netlist&)>& restrict_fn) {
  Netlist analysis = design;
  const RestrictionResult r = restrict_fn(analysis);
  PropertyLibraryOptions plopt;
  plopt.cell_limit = static_cast<CellId>(design.num_cells_raw());
  plopt.excluded_nets = r.cut_nets;
  std::vector<GateProperty> cands = annotate_netlist(analysis, plopt);
  cands.insert(cands.end(), r.strengthen.begin(), r.strengthen.end());
  SimFilterOptions opt;
  opt.restarts = 2;
  opt.cycles = 256;
  opt.free_nets = r.cut_nets;

  const SimFilterResult want = full_scan_filter(analysis, r.env, cands, opt);
  const SimFilterResult got = sim_filter(analysis, r.env, cands, opt);
  ASSERT_GT(want.dropped, 0u);
  ASSERT_GT(want.survivors.size(), 0u);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.assume_violation_cycles, want.assume_violation_cycles);
  ASSERT_EQ(got.survivors.size(), want.survivors.size());
  for (std::size_t i = 0; i < got.survivors.size(); ++i) {
    const GateProperty& g = got.survivors[i];
    const GateProperty& w = want.survivors[i];
    ASSERT_TRUE(g.kind == w.kind && g.target == w.target && g.a == w.a && g.b == w.b &&
                g.cell == w.cell)
        << "survivor " << i << ": " << g.describe() << " vs " << w.describe();
  }
}

TEST(SimFilter, LiveListMatchesFullScan) {
  cores::IbexCore ibex = cores::build_ibex();
  opt::optimize(ibex.netlist);
  ibex.refresh_handles();
  const std::vector<NetId> instr_q = ibex.instr_reg_q;
  expect_live_list_matches_full_scan(ibex.netlist, [&](Netlist& a) {
    return restrict_isa_cutpoint(a, instr_q, isa::rv32_subset_named("rv32i"));
  });

  cores::Cm0Core cm0 = cores::build_cm0();
  opt::optimize(cm0.netlist);
  expect_live_list_matches_full_scan(cm0.netlist, [](Netlist& a) {
    return restrict_thumb_port(a, "imem_rdata", isa::thumb_subset_interesting());
  });
}

// --- BMC -------------------------------------------------------------------------

TEST(Bmc, FindsShallowViolation) {
  // 2-bit counter: bit1 first becomes 1 at t=2.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  Environment env;
  const BmcResult r0 = bmc_check(nl, env, const0(r.q[1]), 2);
  EXPECT_FALSE(r0.violated) << "not reachable within 2 frames";
  const BmcResult r1 = bmc_check(nl, env, const0(r.q[1]), 4);
  EXPECT_TRUE(r1.violated);
  EXPECT_EQ(r1.violation_frame, 2);
}

TEST(Bmc, EnvironmentBlocksViolation) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  env.add_assume(b.not_(en[0]));
  EXPECT_FALSE(bmc_check(nl, env, const0(r.q[0]), 8).violated);
  Environment free_env;
  EXPECT_TRUE(bmc_check(nl, free_env, const0(r.q[0]), 8).violated);
}

// --- candidate-generation determinism ----------------------------------------

TEST(Candidates, EquivalenceCandidatesAreCanonicalForASeed) {
  // The candidate list feeds proof batching, checkpoint journals, and proof-
  // cache keys: for one seed it must be byte-identical on every run and
  // independent of hash-container iteration order. The canonical order is
  // classes ascending by representative net, members by (level, id).
  for (const std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    Netlist nl = test::random_netlist(seed, 6, 90, 10, 4);
    Environment env;
    EquivCandidateOptions opt;
    opt.sim.seed = seed;
    const auto first = equivalence_candidates(nl, env, opt);
    const auto second = equivalence_candidates(nl, env, opt);
    ASSERT_EQ(first.size(), second.size()) << "seed " << seed;
    NetId prev_rep = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].describe(), second[i].describe()) << "seed " << seed << " at " << i;
      EXPECT_GE(first[i].a, prev_rep) << "class order must ascend by representative";
      prev_rep = first[i].a;
    }
  }
}

TEST(Candidates, ProofOfEquivalenceListIdenticalAcrossThreadCounts) {
  Netlist nl = test::random_netlist(11, 6, 90, 10, 4);
  Environment env;
  EquivCandidateOptions copt;
  copt.sim.seed = 11;
  const auto cands = equivalence_candidates(nl, env, copt);
  ASSERT_FALSE(cands.empty());
  std::vector<std::string> reference;
  for (const int threads : {1, 2, 5}) {
    InductionOptions opt;
    opt.threads = threads;
    std::vector<std::string> proven;
    for (const auto& p : prove_invariants(nl, env, cands, opt)) proven.push_back(p.describe());
    if (threads == 1)
      reference = proven;
    else
      EXPECT_EQ(reference, proven) << "threads=" << threads;
  }
}

TEST(Bmc, EnvSatisfiableDetectsVacuous) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  b.output("o", a);
  Environment env;
  env.add_assume(a[0]);
  env.add_assume(b.not_(a[0]));  // contradictory
  EXPECT_FALSE(env_satisfiable(nl, env, 3));
  Environment ok;
  ok.add_assume(a[0]);
  EXPECT_TRUE(env_satisfiable(nl, ok, 3));
}

/// The formula env_satisfiable decides, solved directly: `depth` frames
/// from the initial state with every assume asserted in every frame.
bool env_satisfiable_by_sat(const Netlist& nl, const Environment& env, int depth) {
  FrameEncoder enc(nl);
  sat::Solver s;
  Frame prev;
  for (int t = 0; t < depth; ++t) {
    const Frame f = enc.encode(s);
    if (t == 0)
      enc.fix_initial(s, f);
    else
      enc.link(s, prev, f);
    for (NetId a : env.assumes) s.add_clause(f.lit(a, true));
    prev = f;
  }
  return s.solve({}) == sat::SolveResult::Sat;
}

/// env_satisfiable's verdict and how many SAT calls it made.
std::pair<bool, std::uint64_t> env_check_with_calls(const Netlist& nl, const Environment& env,
                                                    int depth) {
  trace::begin_run(/*events=*/false);
  const bool sat = env_satisfiable(nl, env, depth);
  const std::uint64_t calls = trace::counter_value(trace::Counter::SatSolveCalls);
  trace::end_run();
  return {sat, calls};
}

TEST(Bmc, EnvSatisfiableMatchesSatReferenceOnRandomEnvironments) {
  // Random netlists (some flops X-initialized, free in the reference), one
  // to three random gate outputs as assumes, and on odd seeds a random
  // driver on two of the inputs. The simulated witness may answer only
  // true, and only where the reference is satisfiable; everything else
  // must reach the SAT fallback.
  int witnessed = 0, fallback_sat = 0, vacuous = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Netlist nl = test::random_netlist(seed, 4, 40, 6, 3);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    std::vector<NetId> outs;
    for (CellId id : nl.live_cells()) {
      Cell& c = nl.cell(id);
      if (c.kind == CellKind::Dff && rng.chance(64)) c.init = Tri::X;
      if (!cell_is_const(c.kind)) outs.push_back(c.out);
    }
    Environment env;
    const int n_assumes = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n_assumes; ++i) env.add_assume(outs[rng.below(outs.size())]);
    if (seed % 2 == 1) {
      const Port& in = nl.inputs().front();
      env.drivers.push_back(std::make_shared<RandomDriver>(
          std::vector<NetId>{in.bits[0], in.bits[1]}));
    }
    const int depth = 1 + static_cast<int>(rng.below(4));

    const auto [got, calls] = env_check_with_calls(nl, env, depth);
    const bool want = env_satisfiable_by_sat(nl, env, depth);
    EXPECT_EQ(got, want) << "depth " << depth;
    if (calls == 0) {
      EXPECT_TRUE(want);
      ++witnessed;
    } else {
      EXPECT_EQ(calls, 1u);
      ++(want ? fallback_sat : vacuous);
    }
  }
  // Every branch is exercised: witnessed, satisfiable only by SAT, vacuous.
  EXPECT_GT(witnessed, 0);
  EXPECT_GT(fallback_sat, 0);
  EXPECT_GT(vacuous, 0);
}

TEST(Bmc, EnvSatisfiableFallsBackWhenTheStimulusBreaksAnAssume) {
  // The environment is satisfiable (a = 1 is a legal input), but its driver
  // ties `a` to 0, so every simulated lane breaks the assume in cycle 0 and
  // the SAT query must answer.
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  b.output("o", a);
  Environment env;
  env.add_assume(a[0]);
  env.drivers.push_back(std::make_shared<ConstantDriver>(std::vector<NetId>{a[0]}, false));
  const auto [sat, calls] = env_check_with_calls(nl, env, 3);
  EXPECT_TRUE(sat);
  EXPECT_EQ(calls, 1u);
}

/// Drives nothing and counts its drive() calls; a clone counts on its own.
class CountingDriver final : public StimulusDriver {
 public:
  explicit CountingDriver(std::shared_ptr<int> drives) : drives_(std::move(drives)) {}
  void drive(BitSim&, Rng&) override { ++*drives_; }
  std::vector<NetId> owned_nets() const override { return {}; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<CountingDriver>(std::make_shared<int>(*drives_));
  }

 private:
  std::shared_ptr<int> drives_;
};

TEST(Bmc, EnvSatisfiableLeavesTheCallersDriversUntouched) {
  // The witness simulation draws stimulus from clones, so a stateful
  // driver reaches annotate and the sim filter exactly as it was built.
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  b.output("o", a);
  Environment env;
  env.add_assume(b.or_(a[0], b.not_(a[0])));
  const auto drives = std::make_shared<int>(0);
  env.drivers.push_back(std::make_shared<CountingDriver>(drives));
  const auto [sat, calls] = env_check_with_calls(nl, env, 3);
  EXPECT_TRUE(sat);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(*drives, 0);
}

// --- pinned engine counters ------------------------------------------------------

/// The CM0 analysis netlist under the "interesting" Thumb subset on its fetch
/// port, with its property-library candidates after simulation filtering:
/// the proof problem the pipeline hands to prove_invariants.
struct Cm0ProofProblem {
  Netlist analysis;
  RestrictionResult restr;
  std::vector<GateProperty> cands;
};

Cm0ProofProblem cm0_proof_problem() {
  cores::Cm0Core cm0 = cores::build_cm0();
  opt::optimize(cm0.netlist);
  Cm0ProofProblem p;
  p.analysis = cm0.netlist;
  p.restr = restrict_thumb_port(p.analysis, "imem_rdata", isa::thumb_subset_interesting());
  PropertyLibraryOptions plopt;
  plopt.cell_limit = static_cast<CellId>(cm0.netlist.num_cells_raw());
  plopt.excluded_nets = p.restr.cut_nets;
  std::vector<GateProperty> cands = annotate_netlist(p.analysis, plopt);
  cands.insert(cands.end(), p.restr.strengthen.begin(), p.restr.strengthen.end());
  SimFilterOptions sopt;
  sopt.free_nets = p.restr.cut_nets;
  p.cands = sim_filter(p.analysis, p.restr.env, std::move(cands), sopt).survivors;
  return p;
}

struct PinnedCounters {
  std::size_t after_base, proven;
  int rounds;
  std::size_t sat_calls, cex_kills, budget_kills, job_retries, job_drops;
};

void expect_counters(const Cm0ProofProblem& p, InductionOptions opt, const PinnedCounters& want,
                     const char* arm) {
  SCOPED_TRACE(arm);
  opt.sim_free_nets = p.restr.cut_nets;
  InductionStats st;
  const auto proven = prove_invariants(p.analysis, p.restr.env, p.cands, opt, &st);
  EXPECT_EQ(proven.size(), st.proven);
  EXPECT_EQ(st.after_base, want.after_base);
  EXPECT_EQ(st.proven, want.proven);
  EXPECT_EQ(st.rounds, want.rounds);
  EXPECT_EQ(st.sat_calls, want.sat_calls);
  EXPECT_EQ(st.cex_kills, want.cex_kills);
  EXPECT_EQ(st.budget_kills, want.budget_kills);
  EXPECT_EQ(st.job_retries, want.job_retries);
  EXPECT_EQ(st.job_drops, want.job_drops);
}

TEST(Induction, CountersMatchRecordedValues) {
  // Absolute counters of each engine path on one fixed problem. Every other
  // induction check compares two runs (threads, resume, certify on/off), so
  // a change to the CNF a job solves moves both sides alike and passes them;
  // SAT-call counts move with it and fail here. The values were recorded on
  // the engine before its round drivers were merged into one; change them
  // only for a change that is meant to move the engine's work.
  const Cm0ProofProblem p = cm0_proof_problem();
  ASSERT_EQ(p.cands.size(), 1120u);

  InductionOptions global;
  expect_counters(p, global, {1120, 976, 3, 51, 144, 0, 0, 0}, "global k=1, replay");

  InductionOptions no_replay;
  no_replay.cex_sim_cycles = 0;
  expect_counters(p, no_replay, {1120, 976, 3, 127, 144, 0, 0, 0}, "global k=1, no replay");

  InductionOptions k2;
  k2.k = 2;
  expect_counters(p, k2, {1113, 980, 2, 46, 140, 0, 0, 0}, "global k=2");

  // Each cone runs to closure in round 0, replaying every model, and round
  // 1 confirms it.
  InductionOptions coi;
  coi.coi_localize = true;
  expect_counters(p, coi, {1120, 976, 2, 38, 144, 0, 0, 0}, "coi k=1");

  // A budget this tight exhausts aggregate queries: the per-member sweep
  // runs, unresolved members retry with an escalated budget, and what the
  // last attempt cannot resolve is dropped.
  InductionOptions tight;
  tight.conflict_budget = 16;
  tight.max_job_attempts = 2;
  expect_counters(p, tight, {1120, 965, 3, 3070, 130, 25, 3, 2}, "global, tight budget");

  // The same budget on the closure path: an exhausted aggregate query
  // leaves every surviving cone member pending, the retry resumes with the
  // earlier kills' hypotheses retired, and what its last attempt cannot
  // close is dropped. With a third attempt the cone closes, and the proved
  // set is the one an ample budget proves.
  InductionOptions coi_tight = tight;
  coi_tight.coi_localize = true;
  expect_counters(p, coi_tight, {1120, 0, 1, 37, 143, 977, 1, 1}, "coi, tight budget");
  coi_tight.max_job_attempts = 3;
  expect_counters(p, coi_tight, {1120, 976, 2, 42, 144, 0, 4, 0}, "coi, tight budget, 3 attempts");
}

}  // namespace
}  // namespace pdat
