#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sat/dratcheck.h"
#include "sat/solver.h"

namespace pdat::sat {
namespace {

TEST(Sat, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  s.add_clause(~mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, EmptyProblemIsSat) {
  Solver s;
  s.new_var();
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause(~mk_lit(v[i]), mk_lit(v[i + 1]));
  s.add_clause(mk_lit(v[0]));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Sat, XorChainParity) {
  // x0 ^ x1 ^ ... ^ x7 = 1 encoded pairwise; solution must have odd parity.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 8; ++i) x.push_back(s.new_var());
  std::vector<Var> acc{x[0]};
  for (int i = 1; i < 8; ++i) {
    const Var t = s.new_var();
    const Lit a = mk_lit(acc.back()), b = mk_lit(x[i]), o = mk_lit(t);
    s.add_clause(~o, a, b);
    s.add_clause(~o, ~a, ~b);
    s.add_clause(o, ~a, b);
    s.add_clause(o, a, ~b);
    acc.push_back(t);
  }
  s.add_clause(mk_lit(acc.back()));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int parity = 0;
  for (int i = 0; i < 8; ++i) parity ^= s.model_value(x[i]) ? 1 : 0;
  EXPECT_EQ(parity, 1);
}

// Pigeonhole principle: n+1 pigeons in n holes is UNSAT and needs real
// conflict analysis to close.
TEST(Sat, Pigeonhole4) {
  Solver s;
  const int holes = 4, pigeons = 5;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(p[i][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_clause(~mk_lit(p[i][h]), ~mk_lit(p[j][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.num_conflicts(), 0u);
}

TEST(Sat, AssumptionsSatisfiableSubset) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(~mk_lit(a), ~mk_lit(b));  // not both
  EXPECT_EQ(s.solve({mk_lit(a)}), SolveResult::Sat);
  EXPECT_EQ(s.solve({mk_lit(b)}), SolveResult::Sat);
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b)}), SolveResult::Unsat);
  // Solver stays usable after assumption-unsat.
  EXPECT_EQ(s.solve({mk_lit(a)}), SolveResult::Sat);
}

TEST(Sat, IncrementalAddAfterSolve) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a), mk_lit(b));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.add_clause(~mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(b));
  s.add_clause(~mk_lit(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a 1-conflict budget cannot finish.
  Solver s;
  const int holes = 7, pigeons = 8;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(p[i][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j) s.add_clause(~mk_lit(p[i][h]), ~mk_lit(p[j][h]));
  EXPECT_EQ(s.solve({}, 1), SolveResult::Unknown);
  // And succeeds with an ample budget.
  EXPECT_EQ(s.solve({}, 1000000), SolveResult::Unsat);
}

TEST(Sat, DuplicateAndTautologyClausesHandled) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause(mk_lit(a), mk_lit(a)));           // dup literal
  EXPECT_TRUE(s.add_clause(mk_lit(b), ~mk_lit(b)));          // tautology
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, ManyRandom3SatSmallInstancesAgreeWithBruteForce) {
  // Cross-check against exhaustive enumeration on 12-variable instances.
  std::uint64_t state = 12345;
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int inst = 0; inst < 30; ++inst) {
    const int nv = 12, nc = 50;
    std::vector<std::array<int, 3>> clauses;
    for (int c = 0; c < nc; ++c) {
      std::array<int, 3> cl{};
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rnd() % nv);
        const bool neg = (rnd() & 1) != 0;
        cl[static_cast<std::size_t>(k)] = neg ? -(var + 1) : (var + 1);
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (int m = 0; m < (1 << nv) && !brute_sat; ++m) {
      bool ok = true;
      for (const auto& cl : clauses) {
        bool cok = false;
        for (int lit : cl) {
          const int v = std::abs(lit) - 1;
          const bool val = ((m >> v) & 1) != 0;
          if ((lit > 0) == val) {
            cok = true;
            break;
          }
        }
        if (!cok) {
          ok = false;
          break;
        }
      }
      brute_sat = ok;
    }
    Solver s;
    std::vector<Var> vars;
    for (int v = 0; v < nv; ++v) vars.push_back(s.new_var());
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (int lit : cl)
        lits.push_back(mk_lit(vars[static_cast<std::size_t>(std::abs(lit) - 1)], lit < 0));
      s.add_clause(lits);
    }
    const SolveResult r = s.solve();
    EXPECT_EQ(r == SolveResult::Sat, brute_sat) << "instance " << inst;
    if (r == SolveResult::Sat) {
      // Verify the model.
      for (const auto& cl : clauses) {
        bool cok = false;
        for (int lit : cl) {
          const bool val = s.model_value(vars[static_cast<std::size_t>(std::abs(lit) - 1)]);
          if ((lit > 0) == val) cok = true;
        }
        EXPECT_TRUE(cok);
      }
    }
  }
}

// Random 3-SAT instance over `nv` variables (LCG-driven, reproducible).
std::vector<std::vector<Lit>> random_3sat(std::uint64_t& state, int nv, int nc) {
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(mk_lit(static_cast<Var>(rnd() % static_cast<std::uint64_t>(nv)),
                          (rnd() & 1) != 0));
    }
    clauses.push_back(cl);
  }
  return clauses;
}

Solver solver_for(const std::vector<std::vector<Lit>>& clauses, int nv) {
  Solver s;
  for (int v = 0; v < nv; ++v) s.new_var();
  for (const auto& cl : clauses) s.add_clause(cl);
  return s;
}

TEST(Sat, ManyAssumptionsAgreeWithUnitClauses) {
  // Two or more assumptions share one decision level. Each verdict must
  // match the same CNF with the assumptions added as unit clauses, every
  // verdict must certify (UNSAT cores are RUP-checked by CertifySession),
  // and one solver must stay correct across a sequence of such calls with
  // clauses added in between, the way a closure proof job uses it.
  std::uint64_t state = 0x5eed;
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int sat = 0, unsat = 0;
  for (int inst = 0; inst < 40; ++inst) {
    const int nv = 70;
    const auto clauses = random_3sat(state, nv, 250);
    Solver s = solver_for(clauses, nv);
    CertifySession cert(s);
    std::vector<std::vector<Lit>> added;  // clauses added between calls
    for (int call = 0; call < 4; ++call) {
      const int na = 2 + static_cast<int>(rnd() % 63);  // 2..64
      std::vector<Lit> assumptions;
      for (int a = 0; a < na; ++a) {
        assumptions.push_back(
            mk_lit(static_cast<Var>(rnd() % static_cast<std::uint64_t>(nv)), (rnd() & 1) != 0));
      }
      const SolveResult r = s.solve(assumptions);
      ASSERT_NO_THROW(cert.check(r, assumptions, "many-assumptions test"))
          << "instance " << inst << " call " << call;

      Solver units = solver_for(clauses, nv);
      for (const auto& cl : added) units.add_clause(cl);
      for (const Lit p : assumptions) units.add_clause(p);
      ASSERT_EQ(r, units.solve()) << "instance " << inst << " call " << call;
      if (r == SolveResult::Sat) {
        ++sat;
        for (const Lit p : assumptions) EXPECT_EQ(s.model_value(p.var()), !p.sign());
      } else {
        ++unsat;
        // The core is a clause of negated assumptions.
        for (const Lit c : s.conflict_core()) {
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), ~c), assumptions.end());
        }
      }
      // Retire one variable the next call may assume, as a closure job does.
      const std::vector<Lit> unit{mk_lit(static_cast<Var>(rnd() % static_cast<std::uint64_t>(nv)),
                                         (rnd() & 1) != 0)};
      added.push_back(unit);
      s.add_clause(unit);
      if (!s.okay()) break;
    }
  }
  // The instance mix must exercise both verdicts.
  EXPECT_GT(sat, 10);
  EXPECT_GT(unsat, 10);
}

TEST(Sat, OneAssumptionSearchMatchesRecordedCounters) {
  // A single assumption keeps its own decision level, so its search is
  // step for step what it was before multi-assumption solves shared one
  // level. The counters below were recorded on that earlier solver.
  std::uint64_t state = 0xc0ffee;
  const int nv = 120;
  const auto clauses = random_3sat(state, nv, 500);
  Solver s = solver_for(clauses, nv);
  const SolveResult r = s.solve({mk_lit(7)});
  EXPECT_EQ(r, SolveResult::Unsat);
  EXPECT_EQ(s.num_conflicts(), 651u);
  EXPECT_EQ(s.num_propagations(), 100018u);
}

}  // namespace
}  // namespace pdat::sat
