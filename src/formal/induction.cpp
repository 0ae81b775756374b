#include "formal/induction.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>

#include "base/log.h"
#include "formal/cnf_encoder.h"
#include "formal/candidates.h"
#include "formal/coi.h"
#include "formal/proofcache.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/procworker.h"
#include "runtime/supervisor.h"
#include "sat/dratcheck.h"
#include "sim/bitsim.h"
#include "trace/trace.h"

namespace pdat {

using sat::Lit;
using sat::SolveResult;

namespace {

/// Violation literal setup: creates (or reuses) an aux literal that, when
/// assumed/forced true, forces the property to be violated in `f`.
/// aux -> violation. Returns the aux literal.
Lit make_violation_aux(sat::Solver& s, const GateProperty& p, const Frame& f) {
  switch (p.kind) {
    case PropKind::Const0: {
      // Violation: target == 1. aux -> target.
      const Lit aux = sat::mk_lit(s.new_var());
      s.add_clause(~aux, f.lit(p.target, true));
      return aux;
    }
    case PropKind::Const1: {
      const Lit aux = sat::mk_lit(s.new_var());
      s.add_clause(~aux, f.lit(p.target, false));
      return aux;
    }
    case PropKind::Implies: {
      // Violation: a && !b.
      const Lit aux = sat::mk_lit(s.new_var());
      s.add_clause(~aux, f.lit(p.a, true));
      s.add_clause(~aux, f.lit(p.b, false));
      return aux;
    }
    case PropKind::Equiv: {
      // Violation: a != b.
      const Lit aux = sat::mk_lit(s.new_var());
      s.add_clause(~aux, f.lit(p.a, true), f.lit(p.b, true));
      s.add_clause(~aux, f.lit(p.a, false), f.lit(p.b, false));
      return aux;
    }
  }
  throw PdatError("make_violation_aux: bad kind");
}

/// A closure job's trigger disjunction is a two-level OR tree of this fan-in.
/// Inside one solve its thousands of member selectors fall false one by one,
/// and a single wide clause rescans every false literal each time a watch
/// moves: quadratic in the members, and most of the solve time on Ibex.
constexpr std::size_t kClosureTriggerFanIn = 128;

/// trigger -> some literal of `any` holds, as one clause when `any` has at
/// most `fan_in` literals, else through one fresh group literal per
/// `fan_in` of them.
void add_trigger(sat::Solver& s, Lit trigger, const std::vector<Lit>& any, std::size_t fan_in) {
  std::vector<Lit> top{~trigger};
  if (any.size() <= fan_in) {
    top.insert(top.end(), any.begin(), any.end());
  } else {
    for (std::size_t off = 0; off < any.size(); off += fan_in) {
      const Lit g = sat::mk_lit(s.new_var());
      std::vector<Lit> group{~g};
      group.insert(group.end(), any.begin() + static_cast<std::ptrdiff_t>(off),
                   any.begin() + static_cast<std::ptrdiff_t>(std::min(any.size(), off + fan_in)));
      s.add_clause(std::move(group));
      top.push_back(g);
    }
  }
  s.add_clause(std::move(top));
}

/// Asserts a property in frame `f`: as a hard constraint, or, given a
/// `guard` literal, as (guard ∨ property), which a true guard switches off.
void assert_property(sat::Solver& s, const GateProperty& p, const Frame& f,
                     std::optional<Lit> guard = std::nullopt) {
  const auto clause = [&](std::vector<Lit> c) {
    if (guard.has_value()) c.push_back(*guard);
    s.add_clause(std::move(c));
  };
  switch (p.kind) {
    case PropKind::Const0: clause({f.lit(p.target, false)}); break;
    case PropKind::Const1: clause({f.lit(p.target, true)}); break;
    case PropKind::Implies: clause({f.lit(p.a, false), f.lit(p.b, true)}); break;
    case PropKind::Equiv:
      clause({f.lit(p.a, false), f.lit(p.b, true)});
      clause({f.lit(p.a, true), f.lit(p.b, false)});
      break;
  }
}

bool violated_in_model(const sat::Solver& s, const GateProperty& p, const Frame& f) {
  auto val = [&](NetId n) { return s.model_value(f.net_var[n]); };
  switch (p.kind) {
    case PropKind::Const0: return val(p.target);
    case PropKind::Const1: return !val(p.target);
    case PropKind::Implies: return val(p.a) && !val(p.b);
    case PropKind::Equiv: return val(p.a) != val(p.b);
  }
  return false;
}

using Clock = std::chrono::steady_clock;

std::uint64_t micros_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
}

/// Optional wall-clock cutoff shared by all phases. `expired()` latches
/// InductionStats::timed_out so callers abort conservatively.
struct Deadline {
  bool armed = false;
  Clock::time_point at{};
  InductionStats* st = nullptr;
  /// Cooperative interrupt: aborts exactly like an expiry (conservative,
  /// journal keeps completed rounds), so resume semantics are shared.
  const std::atomic<bool>* interrupt = nullptr;

  bool expired() const {
    if (interrupt != nullptr && interrupt->load(std::memory_order_relaxed)) {
      st->timed_out = true;
      return true;
    }
    if (!armed || Clock::now() < at) return false;
    st->timed_out = true;
    return true;
  }
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Names the cone-local step job, which runs its cone to closure and
/// replays its models. It keys those jobs' cache records and binds COI
/// journals, so neither is ever read by (or as) an earlier form of the job.
/// v2: counterexample replay, and payloads count replays.
constexpr const char* kCoiClosureTag = "pdat-coi-closure-v2";

/// Fingerprint binding a journal to a proof problem: the candidate list plus
/// every option that can change verdicts (worker count deliberately
/// excluded — it must not).
std::uint64_t proof_fingerprint(const Netlist& nl, const std::vector<GateProperty>& cands,
                                const InductionOptions& opt, bool coi_active) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, nl.num_cells_raw());
  h = fnv_mix(h, cands.size());
  for (const GateProperty& p : cands) {
    h = fnv_mix(h, static_cast<std::uint64_t>(p.kind));
    h = fnv_mix(h, p.target);
    h = fnv_mix(h, p.a);
    h = fnv_mix(h, p.b);
    h = fnv_mix(h, p.cell);
    h = fnv_mix(h, static_cast<std::uint64_t>(p.rewire_to_input + 1));
    h = fnv_mix(h, p.rewire_inverted ? 1 : 0);
    h = fnv_mix(h, p.rewireable ? 1 : 0);
  }
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.conflict_budget));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.k));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.cex_sim_cycles));
  for (NetId n : opt.sim_free_nets) h = fnv_mix(h, n);
  h = fnv_mix(h, opt.seed);
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.batch_size));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.max_job_attempts));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.budget_escalation * 1024.0));
  h = fnv_mix(h, opt.job_memory_bytes);
  // Localization changes batching and budget-exhaustion paths (never
  // verdicts under ample budgets), so it binds the journal. The cache path
  // deliberately does not: warm and cold runs are interchangeable.
  h = fnv_mix(h, coi_active ? 1 : 0);
  if (coi_active) {
    for (const char* c = kCoiClosureTag; *c != '\0'; ++c) {
      h = fnv_mix(h, static_cast<unsigned char>(*c));
    }
  }
  return h;
}

// --- cached job-outcome codec ------------------------------------------------
//
// A cache payload is one job attempt's *delta*: its final status, the SAT
// calls and counterexample replays it made, the kills it appended, and the
// member list it left pending.
// Injecting a payload is byte-equivalent to re-running the attempt because
// attempts are pure functions of everything folded into the key.

struct CachedOutcome {
  bool done = false;
  std::uint64_t sat_calls = 0;
  std::uint64_t replays = 0;
  std::vector<std::uint32_t> kills;
  std::vector<std::uint32_t> pending;
  /// Every SAT verdict behind this outcome was certificate-checked when it
  /// was recorded. A certified run treats uncertified hits as misses and
  /// upgrades the record in place after re-proving (cache update()).
  bool certified = false;
  std::uint64_t cert_hash = 0;  // folded DRAT-certificate digest (0 if none)
};

std::string encode_outcome(runtime::JobStatus status, std::uint64_t sat_calls,
                           std::uint64_t replays, const std::vector<std::uint32_t>& kills,
                           const std::vector<std::uint32_t>& pending, bool certified,
                           std::uint64_t cert_hash) {
  std::string p;
  runtime::put_u32(p, status == runtime::JobStatus::Done ? 0 : 1);
  runtime::put_u64(p, sat_calls);
  runtime::put_u64(p, replays);
  runtime::put_u32(p, static_cast<std::uint32_t>(kills.size()));
  for (const std::uint32_t k : kills) runtime::put_u32(p, k);
  runtime::put_u32(p, static_cast<std::uint32_t>(pending.size()));
  for (const std::uint32_t m : pending) runtime::put_u32(p, m);
  runtime::put_u32(p, certified ? 1 : 0);
  runtime::put_u64(p, cert_hash);
  return p;
}

std::optional<CachedOutcome> decode_outcome(const std::string& payload) {
  try {
    CachedOutcome o;
    std::size_t pos = 0;
    o.done = runtime::get_u32(payload, pos) == 0;
    o.sat_calls = runtime::get_u64(payload, pos);
    o.replays = runtime::get_u64(payload, pos);
    const std::uint32_t nk = runtime::get_u32(payload, pos);
    o.kills.reserve(nk);
    for (std::uint32_t i = 0; i < nk; ++i) o.kills.push_back(runtime::get_u32(payload, pos));
    const std::uint32_t np = runtime::get_u32(payload, pos);
    o.pending.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) o.pending.push_back(runtime::get_u32(payload, pos));
    o.certified = runtime::get_u32(payload, pos) != 0;
    o.cert_hash = runtime::get_u64(payload, pos);
    return o;
  } catch (const PdatError&) {
    // Checksummed records should never decode short; treat it as a miss
    // rather than trusting a malformed entry.
    return std::nullopt;
  }
}

/// Exports a CertifySession's accumulated digest when the job attempt's
/// solver (and with it the session) leaves scope, so the cache record can
/// carry it. Runs on the exception path too, but a CertificationError
/// unwinds past the cache store, so nothing unchecked is ever recorded.
struct CertExport {
  const std::optional<sat::CertifySession>& session;
  bool& certified;
  std::uint64_t& hash;
  ~CertExport() {
    if (session.has_value()) {
      certified = true;
      hash = session->certificate_hash();
    }
  }
};

/// Per-job result, merged by candidate index after the round completes (a
/// union, so worker count and completion order cannot change the outcome).
struct JobOutcome {
  std::vector<std::uint32_t> kills;  // indices falsified by models / replay
  std::uint64_t sat_calls = 0;
  std::uint64_t replays = 0;  // counterexample replays, run or read from the cache
};

/// A proof job's CNF template over either frame encoder (FrameEncoder for
/// the whole netlist, ConeEncoder for one cone). The base case unrolls
/// frames 0..k-1 from the initial state; a step round unrolls frames 0..k
/// from a free state and asserts the round hypothesis, every candidate in
/// `hyp`, at frames 0..k-1. The assumes hold in every frame.
///
/// Without `retire`, hypotheses are hard clauses and kills are deferred to
/// the round barrier (Jacobi iteration). With it, hypothesis i is asserted
/// as (r_i ∨ P_i) for a fresh retire literal r_i, appended to `retire` in
/// `hyp` order: a closure job assumes ¬r_i while candidate i lives and adds
/// the unit r_i when it kills it.
template <class Encoder>
void encode_template(const Encoder& enc, const std::vector<NetId>& assumes,
                     const std::vector<GateProperty>& cands,
                     std::span<const std::uint32_t> hyp, bool base, int k, sat::Solver& s,
                     std::vector<Frame>& frames, std::vector<Lit>* retire) {
  const int nframes = base ? k : k + 1;
  for (int j = 0; j < nframes; ++j) {
    frames.push_back(enc.encode(s));
    if (j == 0) {
      if (base) enc.fix_initial(s, frames[0]);
    } else {
      enc.link(s, frames[static_cast<std::size_t>(j - 1)], frames[static_cast<std::size_t>(j)]);
    }
    for (const NetId a : assumes) s.add_clause(frames.back().lit(a, true));
  }
  if (base) return;
  for (const std::uint32_t i : hyp) {
    std::optional<Lit> guard;
    if (retire != nullptr) guard = retire->emplace_back(sat::mk_lit(s.new_var()));
    for (int j = 0; j < k; ++j) {
      assert_property(s, cands[i], frames[static_cast<std::size_t>(j)], guard);
    }
  }
}

std::size_t popcount(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

runtime::ProofRoundRecord checkpoint_record(const InductionStats& st, int round,
                                            const std::vector<bool>& alive) {
  runtime::ProofRoundRecord r;
  r.round = round;
  r.alive = alive;
  r.counters.sat_calls = st.sat_calls;
  r.counters.cex_kills = st.cex_kills;
  r.counters.budget_kills = st.budget_kills;
  r.counters.job_retries = st.job_retries;
  r.counters.job_drops = st.job_drops;
  r.counters.job_crashes = st.job_crashes;
  r.counters.rounds = static_cast<std::uint64_t>(st.rounds);
  r.counters.after_base = st.after_base;
  return r;
}

/// One independently provable slice of a round: a support-closed cone
/// under COI, otherwise the whole netlist. Cache payloads address candidates
/// as positions in `space`; the whole-netlist space is every candidate
/// index, so there the mapping is the identity.
struct ProofUnit {
  const Cone* cone = nullptr;              // null: the whole netlist
  std::span<const std::uint32_t> space;    // ascending candidate indices
  std::span<const std::uint32_t> members;  // the alive ones: batched, and the step hypothesis
  CacheKey fingerprint{};                  // cone content digest (cone units, with a cache)

  std::uint32_t position(std::uint32_t cand) const {
    return static_cast<std::uint32_t>(std::lower_bound(space.begin(), space.end(), cand) -
                                      space.begin());
  }
};

struct UnitTemplate {
  sat::Solver solver;
  std::vector<Frame> frames;
  std::vector<Lit> retire;  // closure templates: one per unit member, in order
};

/// The engine state shared by the base and step phases.
struct Engine {
  const Netlist& nl;
  const Environment& env;
  const std::vector<GateProperty>& cands;
  const InductionOptions& opt;
  InductionStats& st;
  const Deadline& dl;
  FrameEncoder enc;
  std::vector<bool> alive;
  // Localization / proof cache (wired by prove_invariants).
  ProofCache* cache = nullptr;
  bool coi = false;            // localize rounds into support-closed cones
  bool cache_store_ok = false; // only deterministic attempts are stored
  bool certify = false;        // DRAT-check every proof-job SAT verdict
  /// Process isolation is active (opt.isolation == Process on a platform
  /// with fork): job attempts run in forked children against copy-on-write
  /// memory, so every side effect the round barrier needs — the job's
  /// pending/outcome state, probe accounting, deferred cache stores, and
  /// child-side telemetry — is recorded per attempt (AttemptFx) and shipped
  /// back through the supervisor's ProcResultCodec (proc_encode/proc_apply).
  bool proc = false;
  /// Engine-level probe outcomes (what InductionStats reports). These can
  /// differ from the ProofCache's own file-level stats: a certified run
  /// rejects uncertified records, which the file still counts as hits.
  mutable std::atomic<std::uint64_t> probe_hits{0};
  mutable std::atomic<std::uint64_t> probe_misses{0};
  Fnv128 problem_hash;         // shared global-key prefix
  std::uint64_t alive_hash = 0;  // per-round digest of the alive bitset
  /// Nets cex_replay drives randomly (job-private driver clones own the
  /// same nets as `env`'s drivers).
  const std::vector<NetId> replay_free;

  Engine(const Netlist& nl_, const Environment& env_, const std::vector<GateProperty>& c,
         const InductionOptions& o, InductionStats& s, const Deadline& d)
      : nl(nl_), env(env_), cands(c), opt(o), st(s), dl(d), enc(nl_),
        alive(c.size(), true), replay_free(free_input_nets(nl_, env_, o.sim_free_nets)) {}

  /// Key prefix shared by every global (non-localized) job: the netlist,
  /// environment, candidate list, and every option a job outcome can depend
  /// on. Thread count is deliberately excluded — outcomes must not depend
  /// on it — and so is the cache path itself.
  void init_problem_hash() {
    Fnv128 h;
    // v3: payloads count replays (v2: a certification flag + digest).
    h.str("pdat-proof-global-v3");
    hash_netlist(h, nl);
    h.u64(env.assumes.size());
    for (const NetId a : env.assumes) h.u32(a);
    h.u64(opt.env_fingerprint);
    h.u64(cands.size());
    for (const GateProperty& p : cands) {
      h.u8(static_cast<std::uint8_t>(p.kind));
      h.u32(p.target);
      h.u32(p.a);
      h.u32(p.b);
    }
    h.u32(static_cast<std::uint32_t>(opt.k < 1 ? 1 : opt.k));
    h.u32(static_cast<std::uint32_t>(opt.cex_sim_cycles));
    h.u64(opt.seed);
    h.u64(opt.sim_free_nets.size());
    for (const NetId n : opt.sim_free_nets) h.u32(n);
    problem_hash = h;
  }

  void refresh_alive_hash() {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (alive[i]) h = fnv_mix(h, i);
    }
    alive_hash = h;
  }

  // --- process-isolation result codec ---------------------------------------
  // A forked child's writes die with its copy-on-write memory, so the child
  // serializes one attempt's full effect and the parent replays it before
  // the supervisor settles the attempt. pending/outcome state ships *whole*
  // (apply overwrites), so a retry child forks from exactly the state a
  // thread-mode retry would observe, keeping the two modes byte-identical.

  struct CacheStoreRec {
    CacheKey key{};
    bool certified = false;
    std::string payload;
  };

  /// One attempt's recorded side effects (child-side in process mode).
  /// Telemetry ships as deltas against a snapshot taken at attempt entry:
  /// the child inherits the parent's totals through fork, so end-minus-base
  /// is exactly what this attempt added.
  struct AttemptFx {
    std::uint64_t hits = 0;    // engine-level cache-probe hits
    std::uint64_t misses = 0;  // engine-level cache-probe misses
    std::vector<CacheStoreRec> stores;
    bool traced = false;
    std::array<std::uint64_t, trace::kNumCounters> base_counters{};
    std::array<trace::HistogramSnapshot, trace::kNumHistograms> base_hists{};
  };
  mutable std::vector<AttemptFx> fx;  // one slot per job, reset per round

  /// Child-side bookkeeping at attempt entry (no-op in thread mode): clears
  /// this job's fx slot and snapshots telemetry for delta encoding.
  void attempt_begin(std::size_t jid) const {
    if (!proc) return;
    AttemptFx& f = fx[jid];
    f.hits = 0;
    f.misses = 0;
    f.stores.clear();
    f.traced = trace::collecting();
    if (f.traced) {
      for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
        f.base_counters[c] = trace::counter_value(static_cast<trace::Counter>(c));
      }
      for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
        f.base_hists[h] = trace::histogram_snapshot(static_cast<trace::Histogram>(h));
      }
    }
  }

  /// Runs in the child after the job function returns (ProcResultCodec
  /// contract): serializes the attempt's effect for the parent.
  std::string proc_encode(std::size_t j, const std::vector<std::vector<std::uint32_t>>& pending,
                          const std::vector<JobOutcome>& outcomes) const {
    const AttemptFx& f = fx[j];
    std::string p;
    runtime::put_u32(p, static_cast<std::uint32_t>(pending[j].size()));
    for (const std::uint32_t m : pending[j]) runtime::put_u32(p, m);
    runtime::put_u64(p, outcomes[j].sat_calls);
    runtime::put_u64(p, outcomes[j].replays);
    runtime::put_u32(p, static_cast<std::uint32_t>(outcomes[j].kills.size()));
    for (const std::uint32_t k : outcomes[j].kills) runtime::put_u32(p, k);
    runtime::put_u64(p, f.hits);
    runtime::put_u64(p, f.misses);
    runtime::put_u32(p, static_cast<std::uint32_t>(f.stores.size()));
    for (const CacheStoreRec& s : f.stores) {
      runtime::put_u64(p, s.key.lo);
      runtime::put_u64(p, s.key.hi);
      runtime::put_u32(p, s.certified ? 1 : 0);
      runtime::put_u32(p, static_cast<std::uint32_t>(s.payload.size()));
      p += s.payload;
    }
    runtime::put_u32(p, f.traced ? 1 : 0);
    if (f.traced) {
      runtime::put_u32(p, static_cast<std::uint32_t>(trace::kNumCounters));
      for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
        runtime::put_u64(p, trace::counter_value(static_cast<trace::Counter>(c)) -
                                f.base_counters[c]);
      }
      runtime::put_u32(p, static_cast<std::uint32_t>(trace::kNumHistograms));
      for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
        const trace::HistogramSnapshot now =
            trace::histogram_snapshot(static_cast<trace::Histogram>(h));
        const trace::HistogramSnapshot& base = f.base_hists[h];
        for (std::size_t b = 0; b < trace::kHistogramBuckets; ++b) {
          runtime::put_u64(p, now.buckets[b] - base.buckets[b]);
        }
        runtime::put_u64(p, now.count - base.count);
        runtime::put_u64(p, now.sum - base.sum);
        runtime::put_u64(p, now.max);  // absolute; folds via max()
      }
    }
    return p;
  }

  /// Runs in the parent when the result record arrives: decodes fully, then
  /// commits — a malformed payload throws before any state changes and the
  /// supervisor degrades the attempt to the retry ladder.
  void proc_apply(std::size_t j, const std::string& payload,
                  std::vector<std::vector<std::uint32_t>>& pending,
                  std::vector<JobOutcome>& outcomes) const {
    std::size_t pos = 0;
    std::vector<std::uint32_t> pend(runtime::get_u32(payload, pos));
    for (std::uint32_t& m : pend) m = runtime::get_u32(payload, pos);
    JobOutcome out;
    out.sat_calls = runtime::get_u64(payload, pos);
    out.replays = runtime::get_u64(payload, pos);
    out.kills.resize(runtime::get_u32(payload, pos));
    for (std::uint32_t& k : out.kills) k = runtime::get_u32(payload, pos);
    const std::uint64_t hits = runtime::get_u64(payload, pos);
    const std::uint64_t misses = runtime::get_u64(payload, pos);
    std::vector<CacheStoreRec> stores(runtime::get_u32(payload, pos));
    for (CacheStoreRec& s : stores) {
      s.key.lo = runtime::get_u64(payload, pos);
      s.key.hi = runtime::get_u64(payload, pos);
      s.certified = runtime::get_u32(payload, pos) != 0;
      const std::uint32_t len = runtime::get_u32(payload, pos);
      if (payload.size() - pos < len) throw PdatError("proc_apply: truncated cache store");
      s.payload = payload.substr(pos, len);
      pos += len;
    }
    std::array<std::uint64_t, trace::kNumCounters> counter_delta{};
    std::array<trace::HistogramSnapshot, trace::kNumHistograms> hist_delta{};
    const bool traced = runtime::get_u32(payload, pos) != 0;
    if (traced) {
      if (runtime::get_u32(payload, pos) != trace::kNumCounters) {
        throw PdatError("proc_apply: counter table size mismatch");
      }
      for (std::uint64_t& d : counter_delta) d = runtime::get_u64(payload, pos);
      if (runtime::get_u32(payload, pos) != trace::kNumHistograms) {
        throw PdatError("proc_apply: histogram table size mismatch");
      }
      for (trace::HistogramSnapshot& d : hist_delta) {
        for (std::size_t b = 0; b < trace::kHistogramBuckets; ++b) {
          d.buckets[b] = runtime::get_u64(payload, pos);
        }
        d.count = runtime::get_u64(payload, pos);
        d.sum = runtime::get_u64(payload, pos);
        d.max = runtime::get_u64(payload, pos);
      }
    }
    // Decode complete — commit.
    pending[j] = std::move(pend);
    outcomes[j] = std::move(out);
    probe_hits.fetch_add(hits, std::memory_order_relaxed);
    probe_misses.fetch_add(misses, std::memory_order_relaxed);
    for (CacheStoreRec& s : stores) {
      if (cache == nullptr) break;
      const bool stored = s.certified ? cache->update(s.key, std::move(s.payload))
                                      : cache->insert(s.key, std::move(s.payload));
      if (stored) trace::add(trace::Counter::ProofCacheStores, 1);
    }
    if (traced && trace::collecting()) {
      for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
        if (counter_delta[c] != 0) {
          trace::add(static_cast<trace::Counter>(c), counter_delta[c]);
        }
      }
      for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
        trace::merge(static_cast<trace::Histogram>(h), hist_delta[h]);
      }
    }
  }

  runtime::ProcResultCodec make_codec(std::vector<std::vector<std::uint32_t>>& pending,
                                      std::vector<JobOutcome>& outcomes) const {
    runtime::ProcResultCodec c;
    if (!proc) return c;
    c.encode = [this, &pending, &outcomes](std::size_t j) {
      return proc_encode(j, pending, outcomes);
    };
    c.apply = [this, &pending, &outcomes](std::size_t j, const std::string& p) {
      proc_apply(j, p, pending, outcomes);
    };
    return c;
  }

  /// Cache key of one job attempt over `members`, hashed as positions in
  /// the unit's space. Whole-netlist jobs extend the global problem prefix
  /// with the alive set; cone jobs hash the cone's content fingerprint
  /// instead, so an isomorphic cone of a later round or run reuses the entry.
  ///
  /// A step job that replays its models reads more than its unit: replay
  /// simulates the whole netlist under the whole environment's stimulus,
  /// drawn from an RNG stream seeded by (round, jid). Its key also folds
  /// the global prefix (netlist, assumes, env_fingerprint, candidates,
  /// replay cycles, seed, free nets) and that stream. Replay-free keys leave
  /// them out, so those outcomes stay reusable wherever the rest matches.
  CacheKey job_key(const ProofUnit& u, bool base, int k, int round, std::size_t jid,
                   const std::vector<std::uint32_t>& members,
                   const runtime::JobBudget& budget) const {
    const bool replay = !base && opt.cex_sim_cycles > 0;
    Fnv128 h;
    if (u.cone == nullptr) {
      h = problem_hash;
      h.u32(base ? 0u : 1u);
      h.u64(alive_hash);
    } else {
      // v3: payloads count replays (v2: certified payloads, see
      // CachedOutcome). Step jobs run to closure.
      h.str(base ? "pdat-coi-job-v3" : kCoiClosureTag);
      h.u64(u.fingerprint.lo);
      h.u64(u.fingerprint.hi);
      h.u32(base ? 0u : 1u);
      h.u32(static_cast<std::uint32_t>(k));
      if (replay) {
        const CacheKey problem = problem_hash.digest();
        h.u64(problem.lo);
        h.u64(problem.hi);
      }
    }
    if (replay) {
      h.u32(static_cast<std::uint32_t>(round + 2));
      h.u64(jid);
    }
    h.u64(members.size());
    for (const std::uint32_t m : members) h.u32(u.position(m));
    h.u64(static_cast<std::uint64_t>(budget.conflicts));
    h.u64(budget.memory_bytes);
    return h.digest();
  }

  std::optional<CachedOutcome> cache_probe(std::size_t jid, const CacheKey& key) const {
    // In process mode the probe runs in a forked child, whose atomics are
    // copy-on-write ghosts: record the verdict in the fx slot instead and
    // let proc_apply bump the real atomics (the trace counters ride along
    // in the attempt's counter deltas).
    if (const auto hit = cache->lookup(key)) {
      if (auto o = decode_outcome(*hit)) {
        // A certified run never trusts a record an uncertified run wrote:
        // treat it as a miss, re-prove under the checker, and upgrade it.
        if (!certify || o->certified) {
          if (proc) {
            ++fx[jid].hits;
          } else {
            probe_hits.fetch_add(1, std::memory_order_relaxed);
          }
          trace::add(trace::Counter::ProofCacheHits, 1);
          return o;
        }
      }
    }
    if (proc) {
      ++fx[jid].misses;
    } else {
      probe_misses.fetch_add(1, std::memory_order_relaxed);
    }
    trace::add(trace::Counter::ProofCacheMisses, 1);
    return std::nullopt;
  }

  void cache_store(std::size_t jid, const CacheKey& key, runtime::JobStatus status,
                   std::uint64_t sat_calls, std::uint64_t replays,
                   const std::vector<std::uint32_t>& kills,
                   const std::vector<std::uint32_t>& pending, bool certified,
                   std::uint64_t cert_hash) const {
    if (cache == nullptr || !cache_store_ok) return;
    std::string payload =
        encode_outcome(status, sat_calls, replays, kills, pending, certified, cert_hash);
    if (proc) {
      // A child cannot mutate the parent's cache; defer the store to
      // proc_apply, which also settles the insert-vs-update race under the
      // cache's usual first-wins/upgrade rules.
      fx[jid].stores.push_back({key, certified, std::move(payload)});
      return;
    }
    // Certified outcomes overwrite (upgrade) whatever is recorded; an
    // uncertified outcome never downgrades an existing record.
    const bool stored = certified ? cache->update(key, std::move(payload))
                                  : cache->insert(key, std::move(payload));
    if (stored) trace::add(trace::Counter::ProofCacheStores, 1);
  }

  runtime::SupervisorOptions supervisor_options() const {
    runtime::SupervisorOptions sopt;
    sopt.threads = opt.threads;
    sopt.max_attempts = opt.max_job_attempts < 1 ? 1 : opt.max_job_attempts;
    sopt.escalation = opt.budget_escalation;
    sopt.initial.conflicts = opt.conflict_budget;
    sopt.initial.wall_seconds = opt.job_wall_seconds;
    sopt.initial.memory_bytes = opt.job_memory_bytes;
    sopt.isolation = opt.isolation;
    sopt.proc_limits.address_space_bytes = opt.job_rlimit_bytes;
    sopt.proc_limits.cpu_seconds = opt.job_rlimit_cpu_seconds;
    if (dl.armed) {
      sopt.has_deadline = true;
      sopt.deadline = dl.at;
    }
    sopt.interrupt = opt.interrupt;
    return sopt;
  }

  /// Applies the attempt-level wall budget and the global deadline to a
  /// job's private solver.
  void arm_solver(sat::Solver& s, const runtime::JobBudget& budget) const {
    bool armed = dl.armed;
    Clock::time_point at = dl.at;
    if (budget.wall_seconds > 0) {
      const auto attempt_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(budget.wall_seconds));
      at = armed ? std::min(at, attempt_at) : attempt_at;
      armed = true;
    }
    if (armed) s.set_deadline(at);
  }

  /// Replays a SAT model's frame-`fk` state through the bit-parallel
  /// simulator under cloned (job-private) environment drivers, appending
  /// every falsified candidate of `u`. Deterministic: the RNG seed depends
  /// only on the round and job index, and driver clones always start from
  /// the same (post-sim-filter) state.
  ///
  /// A cone unit's model holds values for cone nets only: every other net's
  /// variable is -1, and its flops load as 0. The cone is fan-in closed, so
  /// its flops at frame k fix every cone net on every later cycle of legal
  /// stimulus, and the replay checks the cone's candidates under the cone's
  /// assumes alone.
  void cex_replay(const sat::Solver& s, const Frame& fk, const ProofUnit& u, BitSim& sim,
                  Environment& local_env, Rng& rng, std::vector<char>& job_killed,
                  JobOutcome& out) const {
    const bool timed = trace::collecting();
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    ++out.replays;
    for (const CellId flop : sim.levels().flops) {
      const sat::Var v = fk.net_var[nl.cell(flop).out];
      sim.set_flop_state(flop, v >= 0 && s.model_value(v) ? ~0ULL : 0);
    }
    const std::vector<NetId>& assumes = u.cone == nullptr ? env.assumes : u.cone->assumes;
    std::vector<std::uint32_t> live;
    for (const std::uint32_t i : u.space) {
      if (alive[i] && !job_killed[i]) live.push_back(i);
    }
    for (int cyc = 0; cyc < opt.cex_sim_cycles; ++cyc) {
      drive_inputs(local_env, sim, rng, replay_free);
      sim.eval();
      if (assumes_hold(assumes, sim)) {
        drop_violated(cands, sim, live, [&](std::uint32_t i) {
          job_killed[i] = 1;
          out.kills.push_back(i);
        });
      }
      sim.latch();
    }
    if (timed) trace::add(trace::Counter::InductionReplayMicros, micros_since(t0));
  }

  /// Merges one round's job results into the alive set. Model/replay kills
  /// first (a union over jobs, order-independent), then conservative drops
  /// for jobs the supervisor gave up on. Returns the number of candidates
  /// removed; sets timed_out via the reports when the global deadline
  /// aborted any job.
  std::size_t merge_round(const std::vector<std::vector<std::uint32_t>>& batches,
                          std::vector<std::vector<std::uint32_t>>& pending,
                          const std::vector<JobOutcome>& outcomes,
                          const std::vector<runtime::JobReport>& reports,
                          const runtime::SupervisorStats& sup_stats) {
    std::size_t removed = 0;
    for (const JobOutcome& out : outcomes) st.sat_calls += out.sat_calls;
    for (const JobOutcome& out : outcomes) {
      for (std::uint32_t i : out.kills) {
        if (alive[i]) {
          alive[i] = false;
          ++st.cex_kills;
          ++removed;
        }
      }
    }
    for (std::size_t j = 0; j < reports.size(); ++j) {
      if (reports[j].aborted) st.timed_out = true;
      if (reports[j].crashed && !reports[j].last_error.empty()) {
        log_warn() << "induction: job " << j << " attempt contained: "
                   << reports[j].last_error;
      }
      if (!reports[j].dropped) continue;
      // Conservative drop: whatever the job could not resolve is not proved.
      const auto& unresolved = pending[j].empty() ? batches[j] : pending[j];
      for (std::uint32_t i : unresolved) {
        if (alive[i]) {
          alive[i] = false;
          ++st.budget_kills;
          ++removed;
        }
      }
    }
    st.job_retries += sup_stats.retries;
    st.job_drops += sup_stats.drops;
    st.job_crashes += sup_stats.crashes;
    st.proc_restarts += sup_stats.proc_restarts;
    st.proc_kills += sup_stats.proc_kills;
    return removed;
  }

  /// Records one round's telemetry at the barrier (main thread, round order):
  /// the RoundRecord for metrics.json plus the delta counters. `round` is -1
  /// for the base case, matching runtime::kBaseRound. Replays are counted
  /// from the outcomes, so replays a cache hit stands in for count too.
  void round_telemetry(int round, Clock::time_point t0, std::size_t alive_before,
                       std::size_t sc0, std::size_t ck0, std::size_t bk0, std::size_t removed,
                       const std::vector<JobOutcome>& outcomes) const {
    if (!trace::collecting()) return;
    trace::RoundRecord rec;
    rec.round = round;
    rec.alive_before = alive_before;
    rec.cex_kills = st.cex_kills - ck0;
    rec.budget_kills = st.budget_kills - bk0;
    rec.sat_calls = st.sat_calls - sc0;
    rec.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    trace::record_round(rec);
    std::uint64_t replays = 0;
    for (const JobOutcome& out : outcomes) replays += out.replays;
    trace::add(trace::Counter::InductionSatCalls, rec.sat_calls);
    trace::add(trace::Counter::InductionCexReplays, replays);
    trace::add(trace::Counter::InductionCexReplayCycles,
               replays * static_cast<std::uint64_t>(opt.cex_sim_cycles));
    trace::add(trace::Counter::InductionCexKills, rec.cex_kills);
    trace::add(trace::Counter::InductionBudgetKills, rec.budget_kills);
    if (round >= 0) trace::add(trace::Counter::InductionRounds, 1);
    trace::observe(trace::Histogram::InductionRoundKills, removed);
  }

  /// One round of the van Eijk fixpoint: the base case when round ==
  /// runtime::kBaseRound, otherwise step round `round`. The alive set splits
  /// into proof units (support-closed cones under COI, coi.h; otherwise the
  /// whole netlist), each unit's members are sharded into batch jobs, every
  /// job runs the same body, and one barrier merges their kills. Returns the
  /// number of candidates removed (0 after a step round: the fixpoint).
  ///
  /// A cone's step unit is one *closure* job over all its members: it runs
  /// the cone's fixpoint to its end on one incremental solver, retiring each
  /// killed candidate's hypothesis at once, so the next round only confirms
  /// it with one UNSAT call per cone. Step jobs of either kind replay each
  /// model (cex_replay), and a closure job retires every member a replay
  /// kills as it would a model kill.
  std::size_t run_round(int round) {
    const auto t_round = Clock::now();
    const bool base = round == runtime::kBaseRound;
    trace::Span span(base ? "induction.base" : "induction.round");
    if (!base) span.arg("round", round);
    const std::size_t alive_before = popcount(alive);
    const std::size_t sc0 = st.sat_calls;
    const std::size_t ck0 = st.cex_kills;
    const std::size_t bk0 = st.budget_kills;
    span.arg("alive", static_cast<std::int64_t>(alive_before));
    const int k = opt.k < 1 ? 1 : opt.k;

    ConePartition part;
    std::vector<std::uint32_t> all_cands, alive_cands;  // the whole-netlist unit's
    std::vector<ProofUnit> units;
    if (coi) {
      const bool timed = trace::collecting();
      const auto t0 = timed ? Clock::now() : Clock::time_point{};
      part = partition_cones(nl, enc.levels(), cands, alive, env.assumes);
      st.coi_cones += part.cones.size();
      trace::add(trace::Counter::CoiPartitions, 1);
      trace::add(trace::Counter::CoiCones, part.cones.size());
      for (const Cone& c : part.cones) {
        trace::add(trace::Counter::CoiConeCandidates, c.candidates.size());
        trace::observe(trace::Histogram::CoiConeCells, c.comb.size() + c.flops.size());
        units.push_back({&c, c.candidates, c.candidates, {}});
        if (cache != nullptr) units.back().fingerprint = cone_fingerprint(nl, c, cands);
      }
      if (timed) trace::add(trace::Counter::InductionPartitionMicros, micros_since(t0));
    } else {
      all_cands.resize(cands.size());
      std::iota(all_cands.begin(), all_cands.end(), 0u);
      for (const std::uint32_t i : all_cands) {
        if (alive[i]) alive_cands.push_back(i);
      }
      units.push_back({nullptr, all_cands, alive_cands, {}});
      if (cache != nullptr) refresh_alive_hash();
    }

    // Batches: units in order, each unit's members sharded by batch_size
    // (a closure job takes its whole unit). Batching depends only on the
    // alive set and batch_size, never on the thread count.
    std::vector<std::vector<std::uint32_t>> batches;
    std::vector<std::size_t> batch_unit;
    const bool closure = coi && !base;
    const std::size_t bsz = opt.batch_size < 1 ? 1 : static_cast<std::size_t>(opt.batch_size);
    for (std::size_t ui = 0; ui < units.size(); ++ui) {
      const auto& mm = units[ui].members;
      const std::size_t step = closure ? mm.size() : bsz;
      for (std::size_t off = 0; off < mm.size(); off += step) {
        const std::size_t end = std::min(mm.size(), off + step);
        batches.emplace_back(mm.begin() + static_cast<std::ptrdiff_t>(off),
                             mm.begin() + static_cast<std::ptrdiff_t>(end));
        batch_unit.push_back(ui);
      }
    }
    std::vector<std::vector<std::uint32_t>> pending = batches;
    std::vector<JobOutcome> outcomes(batches.size());
    if (proc) fx.assign(batches.size(), {});

    std::vector<std::unique_ptr<UnitTemplate>> templates(units.size());
    std::deque<std::once_flag> built(units.size());
    const auto build_template = [&](std::size_t ui) {
      const bool timed = trace::collecting();
      const auto t0 = timed ? Clock::now() : Clock::time_point{};
      const ProofUnit& u = units[ui];
      auto t = std::make_unique<UnitTemplate>();
      if (u.cone == nullptr) {
        encode_template(enc, env.assumes, cands, u.members, base, k, t->solver, t->frames,
                        nullptr);
      } else {
        encode_template(ConeEncoder(nl, *u.cone), u.cone->assumes, cands, u.members, base, k,
                        t->solver, t->frames, closure ? &t->retire : nullptr);
      }
      templates[ui] = std::move(t);
      if (timed) trace::add(trace::Counter::InductionEncodeMicros, micros_since(t0));
    };
    // The whole-netlist template is built before dispatch, so process-mode
    // children inherit it through fork. Cone templates are built on first
    // use, so a round whose every job hits the proof cache encodes nothing.
    if (!coi) std::call_once(built[0], build_template, 0);

    runtime::Supervisor sup(supervisor_options());
    const runtime::ProcResultCodec codec = make_codec(pending, outcomes);
    const auto job = [&](std::size_t jid, int /*attempt*/, const runtime::JobBudget& budget) {
      attempt_begin(jid);  // proc mode: reset fx slot, snapshot telemetry
      auto& members = pending[jid];
      JobOutcome& out = outcomes[jid];
      const std::size_t ui = batch_unit[jid];
      const ProofUnit& unit = units[ui];
      const bool global = unit.cone == nullptr;
      CacheKey key{};
      if (cache != nullptr) {
        key = job_key(unit, base, k, round, jid, members, budget);
        if (const auto hit = cache_probe(jid, key)) {
          // (cache_probe already rejected uncertified hits under --certify.)
          bool in_range = true;
          for (const std::uint32_t p : hit->kills) in_range = in_range && p < unit.space.size();
          for (const std::uint32_t p : hit->pending) in_range = in_range && p < unit.space.size();
          if (in_range) {
            out.sat_calls += hit->sat_calls;
            out.replays += hit->replays;
            for (const std::uint32_t p : hit->kills) out.kills.push_back(unit.space[p]);
            members.clear();
            for (const std::uint32_t p : hit->pending) members.push_back(unit.space[p]);
            return hit->done ? runtime::JobStatus::Done : runtime::JobStatus::Retry;
          }
        }
      }
      const std::size_t nk0 = out.kills.size();
      const std::uint64_t sc0j = out.sat_calls;
      const std::uint64_t rp0j = out.replays;
      std::uint64_t solve_us = 0;
      bool att_certified = false;
      std::uint64_t att_cert_hash = 0;
      const runtime::JobStatus status = [&] {
        std::call_once(built[ui], build_template, ui);
        const bool timed = trace::collecting();
        const auto te = timed ? Clock::now() : Clock::time_point{};
        const UnitTemplate& tmpl = *templates[ui];
        sat::Solver s = tmpl.solver;  // private copy; index-based state, so a deep copy
        std::optional<sat::CertifySession> cert;
        if (certify) cert.emplace(s);
        const CertExport cert_export{cert, att_certified, att_cert_hash};
        if (opt.test_corrupt_solver) s.test_corrupt_next_learnt();
        arm_solver(s, budget);
        sat::SolveLimits lim;
        lim.conflict_budget = budget.conflicts;
        lim.memory_bytes = budget.memory_bytes;
        lim.interrupt = &sup.cancelled();
        lim.interrupt2 = opt.interrupt;
        const char* where = !global ? "induction.coi" : base ? "induction.base" : "induction.step";
        const auto timed_solve = [&](const std::vector<Lit>& assumptions,
                                     const sat::SolveLimits& l) {
          SolveResult r;
          if (!trace::collecting()) {
            r = s.solve(assumptions, l);
          } else {
            const auto t0 = Clock::now();
            r = s.solve(assumptions, l);
            solve_us += micros_since(t0);
          }
          if (cert.has_value()) cert->check(r, assumptions, where);
          return r;
        };
        // Frames to check: every base frame, or frame k for the step.
        std::vector<const Frame*> check;
        if (base) {
          for (const Frame& f : tmpl.frames) check.push_back(&f);
        } else {
          check.push_back(&tmpl.frames.back());
        }

        // One violation literal per member and checked frame, joined by a
        // per-member selector ("violated in some checked frame"). Global
        // step jobs check one frame and use its literal as the selector
        // directly; every recorded SAT-call count depends on that choice.
        const bool selector = base || !global;
        std::vector<Lit> member_any(members.size());
        std::vector<std::vector<Lit>> member_aux(members.size());
        const Lit trigger = sat::mk_lit(s.new_var());
        for (std::size_t m = 0; m < members.size(); ++m) {
          member_aux[m].reserve(check.size());
          for (const Frame* f : check) {
            member_aux[m].push_back(make_violation_aux(s, cands[members[m]], *f));
          }
          if (selector) {
            member_any[m] = sat::mk_lit(s.new_var());
            std::vector<Lit> ors{~member_any[m]};
            ors.insert(ors.end(), member_aux[m].begin(), member_aux[m].end());
            s.add_clause(ors);
          } else {
            member_any[m] = member_aux[m].front();
          }
        }
        add_trigger(s, trigger, member_any, closure ? kClosureTriggerFanIn : member_any.size());

        // Members this job has already killed (by model or replay) are
        // retired from the aggregate query so each model makes real
        // progress; without this, replay kills would keep re-satisfying the
        // trigger. A closure job also retires a killed member's hypothesis,
        // and its attempt starts with the hypotheses of its earlier attempts'
        // kills retired (the template covers the whole unit: a cone unit's
        // members are its space).
        std::vector<char> job_killed(cands.size(), 0);
        std::vector<Lit> hyp_retire;  // closure: member m's retire literal
        if (closure) {
          for (const std::uint32_t i : members) hyp_retire.push_back(tmpl.retire[unit.position(i)]);
          for (const std::uint32_t i : out.kills) {
            job_killed[i] = 1;
            s.add_clause(tmpl.retire[unit.position(i)]);
          }
        }
        if (timed) trace::add(trace::Counter::InductionEncodeMicros, micros_since(te));

        // Falsified or resolved: exclude from future aggregate models.
        const auto retire = [&](std::size_t m) {
          for (const Lit ax : member_aux[m]) s.add_clause(~ax);
          if (selector) s.add_clause(~member_any[m]);
          member_aux[m].clear();
          if (closure) s.add_clause(hyp_retire[m]);
        };
        // The aggregate query: some live member is violated, and (closure
        // jobs) every live member's hypothesis holds.
        const auto aggregate = [&] {
          std::vector<Lit> a{trigger};
          for (std::size_t m = 0; m < hyp_retire.size(); ++m) {
            if (!member_aux[m].empty()) a.push_back(~hyp_retire[m]);
          }
          return a;
        };
        // Job-private replay state, constructed on the first model. Step
        // jobs replay; the base case starts from reset.
        const bool replay = !base && opt.cex_sim_cycles > 0;
        std::unique_ptr<BitSim> sim;
        std::unique_ptr<Environment> local_env;
        std::optional<Rng> rng;
        // Model kills scan the unit's candidates only: a cone-local model has
        // no variables (and no meaning) outside the cone.
        const auto kill_from_model = [&] {
          for (const std::uint32_t i : unit.space) {
            if (!alive[i] || job_killed[i]) continue;
            for (const Frame* f : check) {
              if (violated_in_model(s, cands[i], *f)) {
                job_killed[i] = 1;
                out.kills.push_back(i);
                break;
              }
            }
          }
          if (replay) {
            if (!sim) {
              sim = std::make_unique<BitSim>(nl);
              local_env = std::make_unique<Environment>(clone_environment(env));
              rng.emplace(opt.seed ^ fnv_mix(0x6a09e667f3bcc909ULL,
                                             (static_cast<std::uint64_t>(round + 2) << 20) +
                                                 static_cast<std::uint64_t>(jid)));
            }
            cex_replay(s, *check.back(), unit, *sim, *local_env, *rng, job_killed, out);
          }
          bool any_member = false;
          for (std::size_t m = 0; m < members.size(); ++m) {
            if (!member_aux[m].empty() && job_killed[members[m]]) {
              retire(m);
              any_member = true;
            }
          }
          return any_member;
        };

        for (;;) {
          ++out.sat_calls;
          const SolveResult r = timed_solve(aggregate(), lim);
          if (r == SolveResult::Unsat) {
            members.clear();
            return runtime::JobStatus::Done;
          }
          if (r == SolveResult::Sat) {
            if (!kill_from_model()) {
              throw PdatError(std::string(where) + ": aggregate model kills no batch member");
            }
            continue;
          }
          if (closure) {
            // A survivor is proved only by an UNSAT aggregate query over all
            // survivors: keep every one pending for the retry.
            std::vector<std::uint32_t> survivors;
            for (std::size_t m = 0; m < members.size(); ++m) {
              if (!member_aux[m].empty()) survivors.push_back(members[m]);
            }
            members = std::move(survivors);
            return runtime::JobStatus::Retry;
          }
          // Budget exhausted on the aggregate query: per-member sweep with a
          // slice of the budget; unresolved members stay pending for retry.
          sat::SolveLimits small = lim;
          if (small.conflict_budget >= 0) small.conflict_budget = small.conflict_budget / 16 + 1;
          std::vector<std::uint32_t> unresolved;
          for (std::size_t m = 0; m < members.size(); ++m) {
            if (member_aux[m].empty()) continue;  // already retired
            ++out.sat_calls;
            const SolveResult rm = timed_solve({member_any[m]}, small);
            if (rm == SolveResult::Unsat) {
              retire(m);
            } else if (rm == SolveResult::Sat) {
              kill_from_model();
              if (!member_aux[m].empty()) {
                // The solver found a violating model the extraction missed:
                // the member IS falsifiable, so kill it explicitly (retiring
                // without a kill would let it survive unsoundly).
                out.kills.push_back(members[m]);
                retire(m);
              }
            } else {
              unresolved.push_back(members[m]);
            }
          }
          members = std::move(unresolved);
          return members.empty() ? runtime::JobStatus::Done : runtime::JobStatus::Retry;
        }
      }();
      if (solve_us != 0) {
        trace::add(global ? trace::Counter::InductionSolveMicrosGlobal
                          : trace::Counter::InductionSolveMicrosLocalized,
                   solve_us);
      }
      if (cache != nullptr) {
        // Payloads store candidates as positions in the unit's space, so an
        // entry written by one run is meaningful to any later run with an
        // isomorphic cone.
        const auto positions = [&](auto first, auto last) {
          std::vector<std::uint32_t> p;
          p.reserve(static_cast<std::size_t>(last - first));
          for (; first != last; ++first) p.push_back(unit.position(*first));
          return p;
        };
        cache_store(jid, key, status, out.sat_calls - sc0j, out.replays - rp0j,
                    positions(out.kills.begin() + static_cast<std::ptrdiff_t>(nk0),
                              out.kills.end()),
                    positions(members.begin(), members.end()), att_certified, att_cert_hash);
      }
      return status;
    };

    const auto reports = sup.run(batches.size(), job, proc ? &codec : nullptr);
    // Batch members surviving in `pending` after a completed job are exactly
    // the ones never falsified; the kills recorded in the outcomes remove
    // the rest.
    const std::size_t removed = merge_round(batches, pending, outcomes, reports, sup.stats());
    round_telemetry(round, t_round, alive_before, sc0, ck0, bk0, removed, outcomes);
    span.arg("killed", static_cast<std::int64_t>(removed));
    return removed;
  }
};

}  // namespace

std::vector<GateProperty> prove_invariants(const Netlist& nl, const Environment& env,
                                           std::vector<GateProperty> candidates,
                                           const InductionOptions& opt, InductionStats* stats) {
  InductionStats st;
  st.initial = candidates.size();
  trace::Span span("induction.prove",
                   {"candidates", static_cast<std::int64_t>(candidates.size())});

  Deadline dl;
  dl.st = &st;
  dl.interrupt = opt.interrupt;
  if (opt.deadline_seconds > 0) {
    dl.armed = true;
    dl.at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.deadline_seconds));
  }

  // COI localization holds its equisatisfiability guarantee (coi.h) only at
  // k == 1; deeper unrollings fall back to the global engine.
  const bool coi_active = opt.coi_localize && opt.k <= 1;
  if (opt.coi_localize && !coi_active) {
    log_warn() << "induction: COI localization requires k == 1 (k=" << opt.k
               << "); falling back to the global engine";
  }
  st.coi_localized = coi_active;

  std::unique_ptr<ProofCache> pcache;
  if (!opt.proof_cache_path.empty()) {
    pcache = std::make_unique<ProofCache>(opt.proof_cache_path);
  }

  Engine eng(nl, env, candidates, opt, st, dl);
  eng.coi = coi_active;
  eng.certify = opt.certify;
  // Must mirror the supervisor's own fallback test exactly: if the engine
  // diverted side effects to the codec while the supervisor silently ran
  // threads, cache stores and probe accounting would be lost.
  eng.proc = opt.isolation == runtime::Isolation::Process &&
             runtime::process_isolation_supported();
  eng.cache = pcache.get();
  // Attempts raced against a wall clock are not pure functions of their key
  // (an interrupt can strike anywhere); never memoize them.
  eng.cache_store_ok = !dl.armed && opt.job_wall_seconds <= 0;
  if (pcache != nullptr) eng.init_problem_hash();

  const auto finalize_cache = [&] {
    if (pcache == nullptr) return;
    pcache->flush();
    // Hits/misses are the engine's probe decisions, not the file's: under
    // --certify an uncertified record is present in the file (a file-level
    // hit) yet rejected by the probe (an engine-level miss, re-proved).
    st.cache_hits = eng.probe_hits.load(std::memory_order_relaxed);
    st.cache_misses = eng.probe_misses.load(std::memory_order_relaxed);
    st.cache_stores = pcache->stats().stores;
  };

  const runtime::ProofJournalHeader header{proof_fingerprint(nl, candidates, opt, coi_active),
                                           candidates.size()};

  // --- resume ---------------------------------------------------------------
  bool base_done = false;
  bool finished = false;
  int next_round = 0;
  if (!opt.resume_from.empty()) {
    const auto rs = runtime::load_proof_resume(opt.resume_from, header);
    if (rs.has_value()) {
      eng.alive = rs->last.alive;
      st.sat_calls = rs->last.counters.sat_calls;
      st.cex_kills = rs->last.counters.cex_kills;
      st.budget_kills = rs->last.counters.budget_kills;
      st.job_retries = rs->last.counters.job_retries;
      st.job_drops = rs->last.counters.job_drops;
      st.job_crashes = rs->last.counters.job_crashes;
      st.rounds = static_cast<int>(rs->last.counters.rounds);
      st.after_base = rs->last.counters.after_base;
      st.resumed_from_round = rs->last.round;
      base_done = true;
      next_round = rs->last.round + 1;  // kBaseRound(-1) resumes at round 0
      finished = rs->finished;
      log_info() << "induction: resumed from '" << opt.resume_from << "' at round "
                 << rs->last.round << " (" << popcount(eng.alive) << "/" << st.initial
                 << " candidates alive" << (finished ? ", already final" : "") << ")";
    }
    // A journal with a valid matching header but no round records restarts
    // the proof from scratch (nothing usable was checkpointed).
  }

  // --- journal writer -------------------------------------------------------
  std::unique_ptr<runtime::JournalWriter> journal;
  if (!opt.journal_path.empty()) {
    if (!opt.resume_from.empty() && opt.resume_from == opt.journal_path) {
      journal = std::make_unique<runtime::JournalWriter>(
          runtime::JournalWriter::append_after_valid_prefix(opt.journal_path));
    } else {
      journal = std::make_unique<runtime::JournalWriter>(
          runtime::JournalWriter::create(opt.journal_path));
      journal->append(runtime::kProofRecHeader, runtime::encode_proof_header(header));
      if (base_done) {
        // Re-targeted journal: seed it with the resumed state (final when the
        // source journal was final) so it is self-contained for a next resume.
        journal->append(finished ? runtime::kProofRecFinal : runtime::kProofRecRound,
                        runtime::encode_proof_round(checkpoint_record(st, next_round - 1, eng.alive)));
      }
    }
  }

  const auto checkpoint = [&](std::uint32_t type, int completed_round) {
    if (!journal) return;
    journal->append(type, runtime::encode_proof_round(checkpoint_record(st, completed_round, eng.alive)));
  };

  // --- base case ------------------------------------------------------------
  if (!finished && !base_done) {
    if (!dl.expired()) eng.run_round(runtime::kBaseRound);
    if (st.timed_out) {
      log_warn() << "induction: deadline expired during base case; proving nothing";
      finalize_cache();
      if (stats != nullptr) *stats = st;
      return {};
    }
    st.after_base = popcount(eng.alive);
    log_info() << "induction: base case kept " << st.after_base << "/" << st.initial;
    checkpoint(runtime::kProofRecRound, runtime::kBaseRound);
  }

  // --- inductive step fixpoint ---------------------------------------------
  if (!finished) {
    for (int round = next_round;; ++round) {
      if (dl.expired()) break;
      if (popcount(eng.alive) == 0) break;
      const std::size_t removed = eng.run_round(round);
      if (st.timed_out || dl.expired()) break;
      st.rounds = round + 1;
      if (removed == 0) {
        checkpoint(runtime::kProofRecFinal, round);
        break;
      }
      checkpoint(runtime::kProofRecRound, round);
    }
  }

  // A deadline abort leaves the survivor set unproved: return nothing rather
  // than an unsound partial result. Completed rounds remain in the journal
  // for a later resume.
  if (st.timed_out) {
    log_warn() << "induction: deadline expired before the fixpoint closed; proving nothing"
               << (journal ? " (journal retains completed rounds for resume)" : "");
    finalize_cache();
    if (stats != nullptr) *stats = st;
    return {};
  }
  if (popcount(eng.alive) == 0 && !finished) {
    // Everything died before a no-kill round could certify a fixpoint; the
    // empty set is trivially inductive.
    checkpoint(runtime::kProofRecFinal, st.rounds - 1);
  }

  std::vector<GateProperty> proven;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (eng.alive[i]) proven.push_back(candidates[i]);
  }
  st.proven = proven.size();
  span.arg("proven", static_cast<std::int64_t>(proven.size()));
  finalize_cache();
  if (stats != nullptr) *stats = st;
  return proven;
}

}  // namespace pdat
