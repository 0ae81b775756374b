// End-to-end benchmark driver: runs one named workload through the public
// library API for a fixed measuring time, checks every output, and writes
// the raw samples as one JSON document. perfbench/run.py builds this
// program, runs it, and turns the samples into the reported metrics.
//
//   pdat_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (perfbench/README.md says why each was chosen):
//   ibex_rv32i_warm       Ibex, rv32i cutpoint restriction, COI; set-up runs
//                         one cold reduction at 4 proof threads that fills a
//                         proof cache, and each timed reduction (1 thread)
//                         reads it
//   cm0_interesting_cold  obfuscated CM0, "interesting" Thumb subset on the
//                         fetch port, PdatOptions defaults (global engine)
//   fuzz_ibex_rv32imc     baseline differential fuzzing of the unreduced
//                         Ibex against the ISS, rv32imc, 1 fuzz thread
//
// The seed feeds PdatOptions::sim.seed and induction.seed for reductions and
// is the master fuzz seed for fuzzing. Timed operations with the same input
// must agree exactly; the CM0 and fuzz workloads use many inputs derived
// from the seed (see input_seed).
//
// With --trace 1 the driver also records its own spans around each call
// into the library (kept in memory, written to DIR/bench_trace.json at
// exit), sets PdatOptions::trace_path for every other reduction, and times
// the fuzz generator and oracle program by program. Every set-up and
// operation record carries the time of a fixed reference computation run
// next to it ("ref_s"), so run.py can divide out the host's speed. The raw
// document goes to DIR/raw.json; the program's pdat-metrics documents go to
// DIR too.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "fuzz/fuzz.h"
#include "fuzz/oracle.h"
#include "isa/rv32_assembler.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_subsets.h"
#include "netlist/verilog.h"
#include "iss/rv32_iss.h"
#include "iss/thumb_iss.h"
#include "opt/obfuscate.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "trace/metrics.h"
#include "util/rng.h"
#include "workload/mibench.h"
#include "workload/mibench_thumb.h"

using namespace pdat;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- benchmark spans ---------------------------------------------------------
// Spans around the benchmark's own calls into each layer. They stay in
// memory and are written once, at exit, as Chrome trace-event JSON; each
// span records its parent so self time can be derived.

struct Span {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

  int open(const std::string& name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].dur_us = now_us() - spans_[id].start_us;
    stack_.pop_back();
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
         << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": "
         << static_cast<std::uint64_t>(s.start_us)
         << ", \"dur\": " << static_cast<std::uint64_t>(s.dur_us) << ", \"args\": {\"id\": " << i
         << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times `f`, recording a span named `name` around it; returns seconds.
template <class F>
double timed(SpanLog& log, const std::string& name, F&& f) {
  const int id = log.open(name);
  const auto t0 = Clock::now();
  f();
  const double s = seconds_since(t0);
  log.close(id);
  return s;
}

// --- host-speed reference ----------------------------------------------------
// A fixed computation that uses nothing from the library, timed just before
// and just after every set-up and operation. On a shared host the speed at
// which our instructions run drifts by up to ~1.5x over tens of seconds;
// the reference's time in a run tracks that drift, and run.py divides it
// out.

/// Folded into the raw document so the reference cannot be optimised away.
std::uint64_t g_reference_checksum = 0;

/// Words per reference table: 2 MiB.
constexpr std::size_t kReferenceWords = std::size_t{1} << 18;

/// The reference kernel: xorshift-indexed reads and writes over `table`
/// with data-dependent branches, ~7 ms.
void reference_kernel(std::vector<std::uint64_t>* table) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int i = 0; i < 500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = (*table)[x & (kReferenceWords - 1)];
    acc += slot;
    slot = acc ^ x;
    acc = (acc & 1) ? acc * 3 + 1 : acc >> 1;
  }
  g_reference_checksum ^= acc;
}

/// Wall time of one pass of the reference kernel.
double reference_once() {
  static std::vector<std::uint64_t> table(kReferenceWords, 1);
  const auto t0 = Clock::now();
  reference_kernel(&table);
  return seconds_since(t0);
}

// --- minimal JSON writer -----------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One JSON object built field by field.
class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, fmt(v)); }
  Obj& num(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Obj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(k) + ": " + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ",\n " : "") + items[i];
  return out + "]";
}

std::string num_array(const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (double x : v) items.push_back(fmt(x));
  return array(items);
}

// --- workloads ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

/// Set-ups per run; setup_s reports their host-scaled trimmed mean. A cheap
/// set-up (core build + optimize, plus obfuscation or the fuzz oracle) takes
/// ~30 ms, and on a shared host its time flips between two levels ~1.6x
/// apart within a fraction of a second (CPU time moves with wall time, so it
/// is contention, not preemption). Cheap set-ups therefore repeat after
/// every timed operation too, so they sample the whole run, not one moment.
constexpr int kSetupsCheap = 8;      // before the first operation
constexpr int kSetupsPerOp = 2;      // after each operation
constexpr int kSetupsPrimed = 2;     // warm: each set-up runs a cold reduction
/// Programs per timed fuzzing campaign (two synchronous batches of 32).
constexpr std::size_t kFuzzPrograms = 64;

/// Stateful halfword driver for the Thumb fetch port: wide encodings are
/// emitted as consecutive first/second halves per simulation slot.
struct ThumbPortDriver final : StimulusDriver {
  std::vector<NetId> bits;
  isa::ThumbSubset subset;
  std::uint32_t pend[64] = {};
  bool has[64] = {};
  ThumbPortDriver(std::vector<NetId> n, isa::ThumbSubset s)
      : bits(std::move(n)), subset(std::move(s)) {}
  void drive(BitSim& sim, Rng& rng) override {
    std::uint64_t slots[64];
    for (int i = 0; i < 64; ++i) slots[i] = isa::sample_thumb_halfword(subset, rng, pend[i], has[i]);
    Port tmp;
    tmp.bits = bits;
    sim.set_port_per_slot(tmp, slots);
  }
  std::vector<NetId> owned_nets() const override { return bits; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<ThumbPortDriver>(*this);
  }
};

RestrictionResult restrict_thumb_port(Netlist& a, const isa::ThumbSubset& subset) {
  const Port* port = a.find_input("imem_rdata");
  RestrictionResult r;
  synth::Builder b(a);
  r.env.add_assume(isa::build_thumb_halfword_matcher(b, port->bits, subset));
  r.env.drivers.push_back(std::make_shared<ThumbPortDriver>(port->bits, subset));
  return r;
}

/// Set-up of one workload: the design under test plus, per workload, the
/// restriction or the fuzz generator and oracle the timed operations use.
/// The oracle refers to `design`, so a Setup is never moved or copied.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  Netlist design;
  std::function<RestrictionResult(Netlist&)> restrict_fn;
  std::unique_ptr<fuzz::Rv32Generator> gen;
  std::unique_ptr<fuzz::Rv32DiffOracle> oracle;
  std::string prime_metrics;  // warm: metrics document of the priming run
  std::uint64_t prime_threads = 0;  // warm: proof threads of the priming run
};

bool is_reduction(const std::string& w) { return w != "fuzz_ibex_rv32imc"; }

const isa::RvSubset& rv32i() {
  static const isa::RvSubset s = isa::rv32_subset_named("rv32i");
  return s;
}
const isa::RvSubset& rv32imc() {
  static const isa::RvSubset s = isa::rv32_subset_named("rv32imc");
  return s;
}
const isa::ThumbSubset& thumb_interesting() {
  static const isa::ThumbSubset s = isa::thumb_subset_interesting();
  return s;
}

/// Seed of the input (reduction seeds or master fuzz seed) of operation
/// `op`. The warm Ibex reductions vary by ~2% in work across seeds and use
/// the run's seed itself, so all of a run's results must agree. A CM0
/// reduction's work varies by +-20% with its seed (through the sim-filter
/// survivors and counterexample replay), and a fuzz campaign's time by
/// +-30%, so every operation of such a run gets its own input derived from
/// the run's seed and run.py averages over them. In traced runs operations
/// 2j and 2j+1 share an input, so each traced operation has an untraced
/// neighbour with the same input.
std::uint64_t input_seed(const Args& a, int op) {
  if (a.workload == "ibex_rv32i_warm") return a.seed;
  return util::derive_seed(a.seed, static_cast<std::uint64_t>(a.trace ? op / 2 : op));
}

PdatOptions reduction_options(const Args& a, std::uint64_t seed) {
  PdatOptions opt;
  opt.sim.seed = seed;
  opt.induction.seed = seed;
  if (a.workload == "ibex_rv32i_warm") {
    opt.coi_localize = true;
    opt.induction.threads = 1;
    opt.proof_cache_path = a.out + "/warm.cache";
  }
  opt.run_label = "perfbench:" + a.workload;
  return opt;
}

bool valid_workload(const std::string& w) {
  return w == "ibex_rv32i_warm" || w == "cm0_interesting_cold" || w == "fuzz_ibex_rv32imc";
}

/// Builds the workload's design; returns the per-part set-up times.
Obj set_up(const Args& a, SpanLog& log, Setup& su) {
  Obj rec;
  double build = 0, optimize = 0, obfuscate = 0, prime = 0, oracle = 0;
  const auto t0 = Clock::now();
  const int id = log.open("setup");
  if (a.workload == "cm0_interesting_cold") {
    cores::Cm0Core core;
    build = timed(log, "setup.build_core", [&] { core = cores::build_cm0(); });
    optimize = timed(log, "setup.optimize", [&] { opt::optimize(core.netlist); });
    obfuscate = timed(log, "setup.obfuscate", [&] { opt::obfuscate(core.netlist); });
    su.design = std::move(core.netlist);
    su.restrict_fn = [](Netlist& n) { return restrict_thumb_port(n, thumb_interesting()); };
  } else {
    cores::IbexCore core;
    build = timed(log, "setup.build_core", [&] { core = cores::build_ibex(); });
    optimize = timed(log, "setup.optimize", [&] {
      opt::optimize(core.netlist);
      core.refresh_handles();
    });
    const auto instr_q = core.instr_reg_q;
    su.design = std::move(core.netlist);
    su.restrict_fn = [instr_q](Netlist& n) { return restrict_isa_cutpoint(n, instr_q, rv32i()); };
  }
  if (a.workload == "ibex_rv32i_warm") {
    // Fill the proof cache with one cold reduction at 4 proof threads (the
    // cached outcomes are the same at any thread count).
    PdatOptions opt = reduction_options(a, a.seed);
    fs::remove(opt.proof_cache_path);
    opt.induction.threads = 4;
    opt.metrics_path = a.out + "/prime.metrics.json";
    opt.run_label += ":prime";
    prime = timed(log, "setup.prime_cache", [&] { run_pdat(su.design, su.restrict_fn, opt); });
    su.prime_metrics = opt.metrics_path;
    su.prime_threads = opt.induction.threads;
  }
  if (a.workload == "fuzz_ibex_rv32imc") {
    oracle = timed(log, "setup.oracle_build", [&] {
      su.gen = std::make_unique<fuzz::Rv32Generator>(rv32imc());
      su.oracle = std::make_unique<fuzz::Rv32DiffOracle>(*su.gen, su.design, nullptr);
    });
  }
  log.close(id);
  rec.num("build_core_s", build)
      .num("optimize_s", optimize)
      .num("obfuscate_s", obfuscate)
      .num("prime_cache_s", prime)
      .num("oracle_build_s", oracle)
      .num("total_s", seconds_since(t0));
  return rec;
}

// --- output checks -----------------------------------------------------------

/// Final a0 (RV32) / r0 (Thumb) checksum of each MiBench-like kernel.
/// Kernel::expected is unset (0) in the library, so the benchmark carries
/// its own reference. Where a kernel has a Thumb port (all but dijkstra,
/// blowfish, susan and basicmath), the RV32 kernel on Rv32Iss and the
/// separately written Thumb port on ThumbIss compute the same value.
std::uint32_t kernel_checksum(const std::string& name) {
  static const std::vector<std::pair<std::string, std::uint32_t>> table = {
      {"crc32", 0x4fc724c7},    {"dijkstra", 0x0000001d}, {"patricia", 0xf8ae8c97},
      {"sha", 0x5fa3474b},      {"blowfish", 0x92d35154}, {"rijndael", 0x00000771},
      {"qsort", 0x005c261c},    {"susan", 0x00000021},    {"bitcount", 0x00000210},
      {"basicmath", 0x0000db1d},
  };
  for (const auto& [n, v] : table)
    if (n == name) return v;
  throw PdatError("no reference checksum for kernel " + name);
}

struct CheckResult {
  bool ok = true;
  std::string detail;
  std::size_t programs = 0;

  void fail(const std::string& what) {
    ok = false;
    detail += what + "; ";
  }
};

template <class Subset>
bool in_subset(const std::map<std::string, int>& profile, const Subset& subset) {
  for (const auto& entry : profile)
    if (!subset.contains(entry.first)) return false;
  return true;
}

/// Runs every MiBench kernel whose instructions all lie in the subset on the
/// reduced netlist in lockstep with the ISS, and checks the ISS's final
/// checksum register against the kernel's reference checksum.
CheckResult lockstep_check(const std::string& workload, const Netlist& reduced) {
  constexpr std::uint64_t kMaxSteps = 4000000;
  CheckResult r;
  if (workload == "cm0_interesting_cold") {
    for (const auto& k : workload::mibench_thumb_kernels()) {
      const isa::ThumbProgram prog = isa::assemble_thumb(k.source);
      if (!in_subset(prog.static_profile, thumb_interesting())) continue;
      ++r.programs;
      iss::ThumbIss iss;
      iss.load_halfwords(0, prog.halves);
      iss.reset();
      iss.run(kMaxSteps);
      if (!iss.halted() || iss.reg(0) != kernel_checksum(k.name))
        r.fail("kernel " + k.name + ": wrong ISS checksum");
      const std::string err = cores::cm0_cosim_against_iss(reduced, prog.halves, kMaxSteps);
      if (!err.empty()) r.fail("kernel " + k.name + ": " + err);
    }
  } else {
    for (const auto& k : workload::mibench_kernels()) {
      const isa::AssembledProgram prog = isa::assemble_rv32(k.source);
      if (!in_subset(prog.static_profile, rv32i())) continue;
      ++r.programs;
      iss::Rv32Iss iss;
      iss.load_words(0, prog.words);
      iss.reset();
      iss.run(kMaxSteps);
      if (!iss.halted() || iss.reg(10) != kernel_checksum(k.name))
        r.fail("kernel " + k.name + ": wrong ISS checksum");
      const std::string err = cores::cosim_against_iss(reduced, prog.words, kMaxSteps);
      if (!err.empty()) r.fail("kernel " + k.name + ": " + err);
    }
  }
  if (r.programs == 0) r.fail("no MiBench kernel lies in the subset");
  return r;
}

/// FNV-1a digest of the netlist's structural Verilog: equal digests mean
/// byte-identical reduced cores.
std::string netlist_digest(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(os, nl, "reduced");
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : os.str()) h = (h ^ c) * 0x100000001b3ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- timed operations --------------------------------------------------------

/// Reduced netlists already run in lockstep in this process, by digest: a
/// byte-identical netlist gets the verdict of its first check.
using CheckedNetlists = std::map<std::string, CheckResult>;

Obj reduce_once(const Args& a, SpanLog& log, const Setup& su, int index, bool traced,
                CheckedNetlists& checked) {
  const std::uint64_t seed = input_seed(a, index);
  PdatOptions opt = reduction_options(a, seed);
  const std::string stem = a.out + "/op" + std::to_string(index);
  opt.metrics_path = stem + ".metrics.json";
  if (traced) opt.trace_path = stem + ".trace.json";
  Obj rec;
  rec.str("kind", "reduce")
      .boolean("traced", traced)
      .num("input_seed", seed)
      .str("metrics", opt.metrics_path);
  PdatResult res;
  std::string error;
  const double cpu0 = trace::process_cpu_seconds();
  const double wall = timed(log, traced ? "run_pdat.traced" : "run_pdat", [&] {
    try {
      res = run_pdat(su.design, su.restrict_fn, opt);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  const double cpu = trace::process_cpu_seconds() - cpu0;
  rec.num("wall_s", wall).num("cpu_s", cpu).str("error", error);
  if (!error.empty()) return rec.boolean("check_ok", false);

  const std::string digest = netlist_digest(res.transformed);
  if (!checked.count(digest)) {
    CheckResult check;
    const double lockstep = timed(log, "verify.lockstep", [&] {
      check = lockstep_check(a.workload, res.transformed);
    });
    checked[digest] = check;
    rec.num("lockstep_s", lockstep);
  }
  const CheckResult& check = checked[digest];
  std::string detail = check.detail;
  for (const auto& d : res.degradations) detail += "degraded: " + d + "; ";
  Obj stages;
  for (std::size_t s = 0; s < kNumPdatStages; ++s)
    stages.num(stage_name(static_cast<PdatStage>(s)), res.stage_seconds[s]);
  rec.num("gates_before", static_cast<std::uint64_t>(res.gates_before))
      .num("gates_after", static_cast<std::uint64_t>(res.gates_after))
      .num("area_after", res.area_after)
      .boolean("degraded", res.degraded)
      .boolean("check_ok", check.ok && !res.degraded)
      .str("check_detail", detail)
      .str("netlist_digest", digest)
      .num("lockstep_programs", static_cast<std::uint64_t>(check.programs))
      .num("threads", static_cast<std::uint64_t>(opt.induction.threads))
      .raw("stage_s", stages.dump());
  return rec;
}

Obj fuzz_once(const Args& a, SpanLog& log, const Setup& su, int index) {
  fuzz::FuzzOptions fo;
  fo.seed = input_seed(a, index);
  fo.iterations = kFuzzPrograms;
  fo.threads = 1;
  fuzz::FuzzStats st;
  const double cpu0 = trace::process_cpu_seconds();
  const double wall =
      timed(log, "fuzz.campaign", [&] { st = fuzz::fuzz_rv32(rv32imc(), su.design, nullptr, fo); });
  const double cpu = trace::process_cpu_seconds() - cpu0;
  Obj rec;
  rec.str("kind", "fuzz")
      .boolean("traced", a.trace)
      .num("input_seed", fo.seed)
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("programs", st.programs)
      .num("instructions", st.instructions)
      .num("divergences", st.divergences)
      .num("inconclusive", st.inconclusive)
      .num("corpus_retained", st.corpus_retained)
      .num("covered_pairs", static_cast<std::uint64_t>(st.covered_pairs))
      .num("coverage_nets", static_cast<std::uint64_t>(st.coverage_nets))
      .num("gates_after", static_cast<std::uint64_t>(su.design.gate_count()))
      .num("area_after", su.design.area())
      .boolean("check_ok", st.divergences == 0 && st.inconclusive == 0);
  return rec;
}

/// Traced fuzzing: the seed's program stream through the benchmark's own
/// generator and oracle, program by program, for the run's measuring time.
std::string fuzz_stream(const Args& a, SpanLog& log, const Setup& su) {
  std::vector<double> gen_us, run_ms;
  std::uint64_t cycles = 0, instructions = 0, failed = 0;
  fuzz::CoverageMap cov;
  cov.init(su.oracle->coverage_nets());
  const auto t0 = Clock::now();
  double busy = 0;
  for (std::uint64_t i = 0; seconds_since(t0) < a.seconds; ++i) {
    fuzz::AbsProgram p;
    std::vector<std::uint32_t> words;
    gen_us.push_back(1e6 * timed(log, "fuzz.generate", [&] {
                       p = su.gen->generate(util::derive_seed(a.seed, i));
                       words = su.gen->encode_units(p);
                     }));
    fuzz::RunOutcome out;
    const double s = timed(log, "fuzz.oracle_run", [&] { out = su.oracle->run(p, &cov); });
    run_ms.push_back(1e3 * s);
    busy += s;
    cycles += out.cycles;
    instructions += p.size();
    if (out.status != fuzz::RunOutcome::Status::Agree || words.empty()) ++failed;
  }
  Obj rec;
  rec.raw("generate_us", num_array(gen_us))
      .raw("oracle_run_ms", num_array(run_ms))
      .num("oracle_busy_s", busy)
      .num("cycles", cycles)
      .num("instructions", instructions)
      .num("failed", failed);
  return rec.dump();
}

int run(const Args& a) {
  SpanLog log(a.trace);
  fs::create_directories(a.out);
  const bool cheap = a.workload != "ibex_rv32i_warm";
  std::vector<std::string> setup_recs, ops;
  std::unique_ptr<Setup> current;
  // Every set-up and operation record carries the times of three reference
  // passes just before it and three just after it ("ref_s").
  const auto with_ref = [](auto&& f) {
    std::vector<double> ref = {reference_once(), reference_once(), reference_once()};
    Obj rec = f();
    for (int i = 0; i < 3; ++i) ref.push_back(reference_once());
    return rec.raw("ref_s", num_array(ref)).dump();
  };
  for (int i = 0; i < (cheap ? kSetupsCheap : kSetupsPrimed); ++i) {
    current = std::make_unique<Setup>();
    setup_recs.push_back(with_ref([&] { return set_up(a, log, *current); }));
  }
  const Setup& su = *current;
  const auto add_op = [&](auto&& op) {
    ops.push_back(with_ref(op));
    for (int i = 0; cheap && i < kSetupsPerOp; ++i) {
      Setup scratch;
      setup_recs.push_back(with_ref([&] { return set_up(a, log, scratch); }));
    }
  };

  std::string stream = "null";
  const auto t0 = Clock::now();
  if (is_reduction(a.workload)) {
    // Traced runs interleave untraced and traced reductions in the order
    // U T T U U T T U ..., so the tracing overhead is measured on the same
    // process and inputs and drift within the run cancels.
    CheckedNetlists checked;
    int i = 0;
    do {
      const bool traced = a.trace && (i % 4 == 1 || i % 4 == 2);
      add_op([&] { return reduce_once(a, log, su, i, traced, checked); });
      ++i;
    } while (seconds_since(t0) < a.seconds || (a.trace && i < 2));
  } else if (a.trace) {
    stream = fuzz_stream(a, log, su);
    add_op([&] { return fuzz_once(a, log, su, 0); });
  } else {
    int i = 0;
    do {
      add_op([&] { return fuzz_once(a, log, su, i); });
      ++i;
    } while (seconds_since(t0) < a.seconds);
  }
  const double measured = seconds_since(t0);

  if (a.trace) log.write(a.out + "/bench_trace.json");
  Obj doc;
  doc.str("workload", a.workload)
      .num("seed", a.seed)
      .boolean("trace", a.trace)
      .num("measured_s", measured)
      .str("prime_metrics", su.prime_metrics)
      .num("prime_threads", su.prime_threads)
      .num("peak_rss_mb", static_cast<double>(trace::process_peak_rss_bytes()) / (1 << 20))
      .num("reference_checksum", g_reference_checksum)
      .raw("setups", array(setup_recs))
      .raw("ops", array(ops))
      .raw("stream", stream);
  std::ofstream(a.out + "/raw.json") << doc.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      std::cerr << "unknown flag " << k << "\n";
      return 2;
    }
  }
  if (!valid_workload(a.workload) || a.out.empty() || argc % 2 == 0) {
    std::cerr << "usage: pdat_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out DIR\n";
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
