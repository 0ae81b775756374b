#include "formal/bmc.h"

#include <chrono>
#include <optional>

#include "base/log.h"
#include "formal/cnf_encoder.h"
#include "formal/coi.h"
#include "sat/dratcheck.h"
#include "sim/bitsim.h"
#include "trace/trace.h"

namespace pdat {

using sat::Lit;
using sat::SolveResult;

namespace {

/// Arms the solver's wall-clock deadline for a whole BMC call. PR 1 added
/// deadline checks inside the induction fixpoint only; a pathological base
/// (BMC) query could still blow the total pipeline deadline on its own.
void arm_deadline(sat::Solver& s, double deadline_seconds) {
  if (deadline_seconds <= 0) return;
  s.set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(deadline_seconds)));
}

/// Unrolls `depth` frames with `enc` (whole-netlist FrameEncoder or
/// cone-restricted ConeEncoder — both expose encode/link/fix_initial and
/// yield Frames addressed by global NetId) and checks `prop` at each frame.
template <typename Encoder>
BmcResult bmc_frames(const Encoder& enc, const std::vector<NetId>& assumes,
                     const GateProperty& prop, int depth, std::int64_t conflict_budget,
                     double deadline_seconds, bool certify, trace::Span& span) {
  BmcResult res;
  sat::Solver s;
  // The session must exist before the first clause so the certificate
  // covers the whole unrolling (a fresh solver has nothing to snapshot).
  std::optional<sat::CertifySession> cert;
  if (certify) cert.emplace(s);
  arm_deadline(s, deadline_seconds);
  std::vector<Frame> frames;
  for (int t = 0; t < depth; ++t) {
    frames.push_back(enc.encode(s));
    if (t == 0) {
      enc.fix_initial(s, frames[0]);
    } else {
      enc.link(s, frames[static_cast<std::size_t>(t - 1)], frames[static_cast<std::size_t>(t)]);
    }
    for (NetId a : assumes) s.add_clause(frames.back().lit(a, true));
  }
  for (int t = 0; t < depth; ++t) {
    const Frame& f = frames[static_cast<std::size_t>(t)];
    std::vector<Lit> assumptions;
    switch (prop.kind) {
      case PropKind::Const0: assumptions = {f.lit(prop.target, true)}; break;
      case PropKind::Const1: assumptions = {f.lit(prop.target, false)}; break;
      case PropKind::Implies:
        assumptions = {f.lit(prop.a, true), f.lit(prop.b, false)};
        break;
      case PropKind::Equiv: break;  // handled below via an aux literal
    }
    if (prop.kind == PropKind::Equiv) {
      const Lit aux = sat::mk_lit(s.new_var());
      s.add_clause(~aux, f.lit(prop.a, true), f.lit(prop.b, true));
      s.add_clause(~aux, f.lit(prop.a, false), f.lit(prop.b, false));
      assumptions = {aux};
    }
    const SolveResult r = s.solve(assumptions, conflict_budget);
    if (cert.has_value()) cert->check(r, assumptions, "bmc");
    trace::add(trace::Counter::BmcFramesSolved, 1);
    if (r == SolveResult::Sat) {
      res.violated = true;
      res.violation_frame = t;
      trace::add(trace::Counter::BmcViolations, 1);
      span.arg("violation_frame", t);
      return res;
    }
    if (r == SolveResult::Unknown) res.inconclusive = true;
  }
  return res;
}

struct CachedBmcVerdict {
  BmcResult result;
  bool certified = false;  // every frame verdict was DRAT-checked at record time
};

std::string encode_bmc_verdict(const BmcResult& r, bool certified) {
  // Conclusive verdicts only: violated flag + biased frame + certified flag,
  // little-endian (v2: the certified word is new).
  std::string out;
  const std::uint32_t v[3] = {r.violated ? 1u : 0u,
                              static_cast<std::uint32_t>(r.violation_frame + 1),
                              certified ? 1u : 0u};
  for (const std::uint32_t w : v)
    for (int i = 0; i < 32; i += 8) out.push_back(static_cast<char>(w >> i));
  return out;
}

std::optional<CachedBmcVerdict> decode_bmc_verdict(const std::string& p) {
  if (p.size() != 12) return std::nullopt;  // key collision or format drift
  const auto rd = [&p](std::size_t at) {
    std::uint32_t w = 0;
    for (int i = 0; i < 4; ++i)
      w |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[at + i])) << (8 * i);
    return w;
  };
  CachedBmcVerdict v;
  v.result.violated = rd(0) != 0;
  v.result.violation_frame = static_cast<int>(rd(4)) - 1;
  v.certified = rd(8) != 0;
  if (v.result.violated != (v.result.violation_frame >= 0)) return std::nullopt;
  return v;
}

/// Looks for a model of env_satisfiable's formula by simulation: `depth`
/// cycles of the environment's own stimulus from reset, 64 lanes at once.
/// A lane in which every assume held in every cycle is a concrete execution
/// of the unrolling — flops with X init load 0, one legal value of their
/// free variable, and input and cut nets carry concrete values. The drivers
/// are cloned, so the stimulus later stages draw does not move.
bool simulated_witness(const Netlist& nl, const Environment& env, int depth) {
  const Environment local = clone_environment(env);
  BitSim sim(nl);  // starts in reset
  Rng rng(0x656e762d77697473ULL);
  const std::vector<NetId> free = free_input_nets(nl, local);
  std::uint64_t lanes = ~0ULL;
  for (int t = 0; t < depth && lanes != 0; ++t) {
    drive_inputs(local, sim, rng, free);
    sim.eval();
    for (NetId a : local.assumes) lanes &= sim.value(a);
    sim.latch();
  }
  return lanes != 0;
}

}  // namespace

BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    int depth, std::int64_t conflict_budget, double deadline_seconds) {
  BmcCheckOptions opt;
  opt.depth = depth;
  opt.conflict_budget = conflict_budget;
  opt.deadline_seconds = deadline_seconds;
  return bmc_check(nl, env, prop, opt);
}

BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    const BmcCheckOptions& opt) {
  trace::Span span("bmc.check", {"depth", opt.depth});
  trace::add(trace::Counter::BmcChecks, 1);

  if (!opt.coi_localize) {
    FrameEncoder enc(nl);
    return bmc_frames(enc, env.assumes, prop, opt.depth, opt.conflict_budget,
                      opt.deadline_seconds, opt.certify, span);
  }

  // A single-candidate partition always yields exactly one cone (assume-only
  // components are dropped by partition_cones).
  const Levelization lv = levelize(nl);
  const std::vector<GateProperty> cands{prop};
  const ConePartition part =
      partition_cones(nl, lv, cands, std::vector<bool>{true}, env.assumes);
  const Cone& cone = part.cones.front();
  span.arg("cone_nets", static_cast<int>(cone.nets.size()));

  CacheKey key{};
  if (opt.cache != nullptr) {
    Fnv128 h;
    h.str("pdat-bmc-v2");  // v2: payload carries a certified flag
    const CacheKey fp = cone_fingerprint(nl, cone, cands);
    h.u64(fp.lo);
    h.u64(fp.hi);
    h.u32(static_cast<std::uint32_t>(opt.depth));
    h.u64(static_cast<std::uint64_t>(opt.conflict_budget));
    key = h.digest();
    if (const auto payload = opt.cache->lookup(key)) {
      if (const auto cached = decode_bmc_verdict(*payload)) {
        // A certified run re-solves (and upgrades) uncertified records
        // instead of trusting them.
        if (!opt.certify || cached->certified) {
          if (cached->result.violated)
            span.arg("violation_frame", cached->result.violation_frame);
          span.arg("cache", 1);
          return cached->result;
        }
      }
      // Undecodable or insufficiently-trusted payload: real solve below.
    }
  }

  const ConeEncoder enc(nl, cone);
  const BmcResult res = bmc_frames(enc, cone.assumes, prop, opt.depth, opt.conflict_budget,
                                   opt.deadline_seconds, opt.certify, span);
  // Only conclusive, deadline-free verdicts are content, not circumstance.
  if (opt.cache != nullptr && !res.inconclusive && opt.deadline_seconds <= 0) {
    if (opt.certify) {
      opt.cache->update(key, encode_bmc_verdict(res, true));
    } else {
      opt.cache->insert(key, encode_bmc_verdict(res, false));
    }
  }
  return res;
}

// A simulated witness is a concrete execution and needs no certificate. The
// SAT fallback is deliberately uncertified even in --certify runs: a wrong
// Unsat aborts the whole run (fail-safe), and a wrong Sat merely skips the
// vacuity veto — neither can remove a gate. See DESIGN.md §5.10.
bool env_satisfiable(const Netlist& nl, const Environment& env, int depth,
                     double deadline_seconds) {
  trace::Span span("bmc.env_check", {"depth", depth});
  const bool witness = simulated_witness(nl, env, depth);
  span.arg("witness", witness ? 1 : 0);
  if (witness) return true;
  FrameEncoder enc(nl);
  sat::Solver s;
  arm_deadline(s, deadline_seconds);
  Frame prev;
  for (int t = 0; t < depth; ++t) {
    Frame f = enc.encode(s);
    if (t == 0)
      enc.fix_initial(s, f);
    else
      enc.link(s, prev, f);
    for (NetId a : env.assumes) s.add_clause(f.lit(a, true));
    prev = f;
  }
  const SolveResult r = s.solve({});
  if (r == SolveResult::Unknown) {
    log_warn() << "bmc: environment vacuity check hit its deadline; assuming satisfiable";
    return true;
  }
  return r == SolveResult::Sat;
}

}  // namespace pdat
