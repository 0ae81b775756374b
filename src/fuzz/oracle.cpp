#include "fuzz/oracle.h"

#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "netlist/netlist.h"
#include "trace/trace.h"

namespace pdat::fuzz {
namespace {

// Step/cycle caps. Programs are loop-free (forward-only control) and at
// most ~2 * max_ops instructions, so a well-formed run halts orders of
// magnitude below these; hitting a cap means a model wedged, which is
// reported as Inconclusive rather than a divergence.
constexpr std::uint64_t kIssSteps = 4096;
constexpr std::uint64_t kTbCycles = 8192;

std::string compare_rv32(const std::vector<iss::Rv32Iss::TraceEntry>& a,
                         const std::vector<iss::Rv32Iss::TraceEntry>& b) {
  std::ostringstream os;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].pc != b[i].pc || a[i].rd != b[i].rd || a[i].rd_value != b[i].rd_value ||
        a[i].mem_write != b[i].mem_write || a[i].mem_addr != b[i].mem_addr ||
        a[i].mem_value != b[i].mem_value || a[i].mem_size != b[i].mem_size) {
      os << "trace entry " << i << ": iss pc=0x" << std::hex << a[i].pc << " rd=x" << std::dec
         << a[i].rd << "=0x" << std::hex << a[i].rd_value << " vs core pc=0x" << b[i].pc
         << " rd=x" << std::dec << b[i].rd << "=0x" << std::hex << b[i].rd_value;
      if (a[i].mem_write || b[i].mem_write) {
        os << " | mem iss [0x" << a[i].mem_addr << "]=0x" << a[i].mem_value << "/" << std::dec
           << a[i].mem_size << " core [0x" << std::hex << b[i].mem_addr << "]=0x"
           << b[i].mem_value << "/" << std::dec << b[i].mem_size;
      }
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    os << "trace length: iss " << a.size() << " vs core " << b.size();
    return os.str();
  }
  return {};
}

/// What the ISS did with one Thumb program, kept for the comparison after
/// the gate-level pass (the ISS itself is freed right away).
struct ThumbGolden {
  std::vector<iss::ThumbIss::RegWrite> reg_writes;
  std::vector<iss::ThumbIss::MemWrite> mem_writes;
  unsigned flags = 0;  // NZCV packed as bits 3..0
};

std::string compare_thumb(const ThumbGolden& iss, const cores::Cm0Testbench& tb, unsigned lane) {
  std::ostringstream os;
  const auto& ra = iss.reg_writes;
  const auto& rb = tb.reg_writes(lane);
  for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
    if (ra[i].reg != rb[i].reg || ra[i].value != rb[i].value) {
      os << "reg stream entry " << i << ": iss r" << ra[i].reg << "=0x" << std::hex
         << ra[i].value << " core r" << std::dec << rb[i].reg << "=0x" << std::hex
         << rb[i].value;
      return os.str();
    }
  }
  if (ra.size() != rb.size()) {
    os << "reg stream length: iss " << ra.size() << " core " << rb.size();
    return os.str();
  }
  const auto& ma = iss.mem_writes;
  const auto& mb = tb.mem_writes(lane);
  for (std::size_t i = 0; i < std::min(ma.size(), mb.size()); ++i) {
    if (ma[i].addr != mb[i].addr || ma[i].value != mb[i].value || ma[i].size != mb[i].size) {
      os << "mem stream entry " << i << ": iss [0x" << std::hex << ma[i].addr << "]=0x"
         << ma[i].value << "/" << std::dec << ma[i].size << " core [0x" << std::hex
         << mb[i].addr << "]=0x" << mb[i].value << "/" << std::dec << mb[i].size;
      return os.str();
    }
  }
  if (ma.size() != mb.size()) {
    os << "mem stream length: iss " << ma.size() << " core " << mb.size();
    return os.str();
  }
  const unsigned core_flags = tb.final_flags(lane);
  if (core_flags != iss.flags) {
    os << "final flags: iss " << iss.flags << " core " << core_flags;
    return os.str();
  }
  return {};
}

void check_batch(const std::vector<const AbsProgram*>& programs,
                 const std::vector<CoverageMap*>& covs) {
  if (programs.size() > Oracle::kMaxBatch)
    throw PdatError("oracle: batch larger than the simulation lane count");
  if (!covs.empty() && covs.size() != programs.size())
    throw PdatError("oracle: one coverage map per program expected");
}

bool any_coverage(const std::vector<CoverageMap*>& covs) {
  return std::any_of(covs.begin(), covs.end(), [](const CoverageMap* c) { return c != nullptr; });
}

/// Runs the `live` lanes through `tb` in one simulation pass: `load(tb,
/// lane)` writes a lane's program, every lane stops at its halt or at
/// kTbCycles, and `diff(tb, lane)` compares a halted lane with its ISS run.
/// Lanes that end Inconclusive or Diverge leave `live`. With `cov` set, the
/// pass's toggle coverage is ORed into covs[lane].
template <class Tb, class Load, class Diff>
void run_pass(Tb& tb, const char* label, std::uint64_t& live, std::vector<RunOutcome>& out,
              LaneCoverage* cov, const std::vector<CoverageMap*>& covs, Load load, Diff diff) {
  if (live == 0) return;
  tb.reset();
  for_each_lane(live, [&](unsigned lane) { load(tb, lane); });
  if (cov != nullptr) cov->init(tb.sim().netlist().num_nets());
  std::uint64_t pass_cycles = 0;
  while (tb.running() != 0 && pass_cycles < kTbCycles) {
    const std::uint64_t ran = tb.running();
    tb.cycle();
    if (cov != nullptr) cov->record(tb.sim(), ran);
    ++pass_cycles;
  }
  std::uint64_t lane_cycles = 0;
  const std::uint64_t capped = tb.running();
  for_each_lane(live, [&](unsigned lane) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    RunOutcome& o = out[lane];
    o.cycles += tb.cycles(lane);
    lane_cycles += tb.cycles(lane);
    if ((capped & bit) != 0) {
      o.status = RunOutcome::Status::Inconclusive;
      o.detail = std::string(label) + ": did not halt";
      live &= ~bit;
      return;
    }
    const std::string d = diff(tb, lane);
    if (!d.empty()) {
      o.status = RunOutcome::Status::Diverge;
      o.detail = std::string(label) + ": " + d;
      live &= ~bit;
    }
  });
  if (cov != nullptr) cov->or_into(covs);
  trace::add(trace::Counter::FuzzSimPasses, 1);
  trace::add(trace::Counter::FuzzPassCycles, pass_cycles);
  trace::add(trace::Counter::FuzzLaneCycles, lane_cycles);
}

}  // namespace

// --- RV32 --------------------------------------------------------------------

Rv32DiffOracle::Rv32DiffOracle(const Rv32Generator& gen, const Netlist& baseline,
                               const Netlist* reduced)
    : gen_(gen),
      base_tb_(baseline),
      red_tb_(reduced ? std::make_unique<cores::IbexTestbench>(*reduced) : nullptr),
      cov_nets_(reduced ? reduced->num_nets() : baseline.num_nets()) {}

std::vector<RunOutcome> Rv32DiffOracle::run_batch(const std::vector<const AbsProgram*>& programs,
                                                  const std::vector<CoverageMap*>& covs) {
  check_batch(programs, covs);
  std::vector<RunOutcome> out(programs.size());
  std::vector<std::vector<std::uint32_t>> words(programs.size());
  std::vector<std::vector<iss::Rv32Iss::TraceEntry>> golden(programs.size());
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    words[i] = gen_.encode_units(*programs[i]);
    iss::Rv32Iss iss;
    iss.load_words(0, words[i]);
    iss.reset();
    iss.set_tracing(true);
    iss.run(kIssSteps);
    if (!iss.halted()) {
      out[i].status = RunOutcome::Status::Inconclusive;
      out[i].detail = "iss: did not halt";
      continue;
    }
    golden[i] = iss.trace();
    live |= std::uint64_t{1} << i;
  }

  auto load = [&](cores::IbexTestbench& tb, unsigned lane) { tb.load_words(lane, 0, words[lane]); };
  auto diff = [&](const cores::IbexTestbench& tb, unsigned lane) {
    return compare_rv32(golden[lane], tb.trace(lane));
  };
  LaneCoverage* cov = any_coverage(covs) ? &lane_cov_ : nullptr;
  run_pass(base_tb_, "baseline", live, out, red_tb_ ? nullptr : cov, covs, load, diff);
  if (red_tb_) run_pass(*red_tb_, "reduced", live, out, cov, covs, load, diff);
  return out;
}

// --- Thumb -------------------------------------------------------------------

ThumbDiffOracle::ThumbDiffOracle(const ThumbGenerator& gen, const Netlist& baseline,
                                 const Netlist* reduced)
    : gen_(gen),
      base_tb_(baseline),
      red_tb_(reduced ? std::make_unique<cores::Cm0Testbench>(*reduced) : nullptr),
      cov_nets_(reduced ? reduced->num_nets() : baseline.num_nets()) {}

std::vector<RunOutcome> ThumbDiffOracle::run_batch(const std::vector<const AbsProgram*>& programs,
                                                   const std::vector<CoverageMap*>& covs) {
  check_batch(programs, covs);
  std::vector<RunOutcome> out(programs.size());
  std::vector<std::vector<std::uint16_t>> halves(programs.size());
  std::vector<ThumbGolden> golden(programs.size());
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (const std::uint32_t u : gen_.encode_units(*programs[i]))
      halves[i].push_back(static_cast<std::uint16_t>(u));
    iss::ThumbIss iss;
    iss.load_halfwords(0, halves[i]);
    iss.reset();
    iss.set_tracing(true);
    iss.run(kIssSteps);
    if (!iss.halted()) {
      out[i].status = RunOutcome::Status::Inconclusive;
      out[i].detail = "iss: did not halt";
      continue;
    }
    golden[i].reg_writes = iss.reg_writes();
    golden[i].mem_writes = iss.mem_writes();
    golden[i].flags = (iss.flag_n() ? 1u : 0) | (iss.flag_z() ? 2u : 0) |
                      (iss.flag_c() ? 4u : 0) | (iss.flag_v() ? 8u : 0);
    live |= std::uint64_t{1} << i;
  }

  auto load = [&](cores::Cm0Testbench& tb, unsigned lane) {
    tb.load_halfwords(lane, 0, halves[lane]);
  };
  auto diff = [&](const cores::Cm0Testbench& tb, unsigned lane) {
    return compare_thumb(golden[lane], tb, lane);
  };
  LaneCoverage* cov = any_coverage(covs) ? &lane_cov_ : nullptr;
  run_pass(base_tb_, "baseline", live, out, red_tb_ ? nullptr : cov, covs, load, diff);
  if (red_tb_) run_pass(*red_tb_, "reduced", live, out, cov, covs, load, diff);
  return out;
}

// --- convenience entry points ------------------------------------------------

FuzzStats fuzz_rv32(const isa::RvSubset& subset, const Netlist& baseline, const Netlist* reduced,
                    const FuzzOptions& opt, const GenOptions& gopt) {
  const Rv32Generator gen(subset, gopt);
  Target target;
  target.gen = &gen;
  target.name = "ibex";
  target.make_oracle = [&] { return std::make_unique<Rv32DiffOracle>(gen, baseline, reduced); };
  return run_fuzz(target, opt);
}

FuzzStats fuzz_thumb(const isa::ThumbSubset& subset, const Netlist& baseline,
                     const Netlist* reduced, const FuzzOptions& opt, const GenOptions& gopt) {
  const ThumbGenerator gen(subset, gopt);
  Target target;
  target.gen = &gen;
  target.name = "cm0";
  target.make_oracle = [&] { return std::make_unique<ThumbDiffOracle>(gen, baseline, reduced); };
  return run_fuzz(target, opt);
}

}  // namespace pdat::fuzz
