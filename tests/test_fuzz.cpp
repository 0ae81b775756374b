// Differential fuzzing subsystem (src/fuzz/): generator subset closure,
// shrinker minimality, oracle agreement on healthy cores, the failpoint-armed
// mutation self-check, and the determinism contract (fixed seed => identical
// stats and byte-identical artifacts at any thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cores/cm0/cm0_core.h"
#include "cores/ibex/ibex_core.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_subsets.h"
#include "opt/optimizer.h"
#include "util/failpoint.h"

using namespace pdat;
using namespace pdat::fuzz;

namespace {

const Netlist& ibex_netlist() {
  static const cores::IbexCore core = [] {
    cores::IbexCore c = cores::build_ibex();
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

const Netlist& cm0_netlist() {
  static const cores::Cm0Core core = [] {
    cores::Cm0Core c = cores::build_cm0();
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

// Stand-ins for reduced cores: same ports, a different netlist, and programs
// on which they diverge from the ISS (no multiplier/divider; a different
// reset stack pointer, which moves every push).
const Netlist& ibex_no_m_netlist() {
  static const cores::IbexCore core = [] {
    cores::IbexConfig cfg;
    cfg.has_m = false;
    cores::IbexCore c = cores::build_ibex(cfg);
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

const Netlist& cm0_low_sp_netlist() {
  static const cores::Cm0Core core = [] {
    cores::Cm0Config cfg;
    cfg.sp_reset = 0x8000;
    cores::Cm0Core c = cores::build_cm0(cfg);
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("pdat_fuzz_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Relative path -> file contents for every regular file under `root`.
std::map<std::string, std::string> dir_contents(const std::filesystem::path& root) {
  std::map<std::string, std::string> out;
  if (!std::filesystem::exists(root)) return out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    std::ifstream is(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    out[std::filesystem::relative(e.path(), root).string()] = ss.str();
  }
  return out;
}

}  // namespace

// --- generators --------------------------------------------------------------

TEST(FuzzGenerator, Rv32SubsetClosureAndDeterminism) {
  const isa::RvSubset subset = isa::rv32_subset_named("rv32imc");
  const Rv32Generator gen(subset);
  const auto& table = isa::rv32_instructions();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AbsProgram p = gen.generate(seed);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p, gen.generate(seed)) << "generate must be a pure function of the seed";
    // Walk the encoded byte stream and check every fetch unit decodes to a
    // subset member (the subset contract, including prologue + terminator).
    const std::vector<std::uint32_t> words = gen.encode_units(p);
    std::vector<std::uint8_t> bytes;
    for (const std::uint32_t w : words)
      for (int k = 0; k < 4; ++k) bytes.push_back(static_cast<std::uint8_t>(w >> (8 * k)));
    std::size_t at = 0;
    while (at + 1 < bytes.size()) {
      const std::uint32_t lo = bytes[at] | (static_cast<std::uint32_t>(bytes[at + 1]) << 8);
      std::uint32_t word = lo;
      std::size_t len = 2;
      if ((lo & 3) == 3) {
        ASSERT_LE(at + 4, bytes.size());
        word |= (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
                (static_cast<std::uint32_t>(bytes[at + 3]) << 24);
        len = 4;
      }
      if (word == 0) break;  // alignment padding after the terminator
      const isa::RvInstrSpec* spec = isa::rv32_decode_spec(word);
      ASSERT_NE(spec, nullptr) << "illegal encoding 0x" << std::hex << word << " at +" << at;
      EXPECT_TRUE(subset.contains(static_cast<int>(spec - table.data())))
          << spec->name << " not in " << subset.name;
      at += len;
    }
  }
}

TEST(FuzzGenerator, ThumbSubsetClosureAndDeterminism) {
  const isa::ThumbSubset subset = isa::thumb_subset_interesting();
  const ThumbGenerator gen(subset);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AbsProgram p = gen.generate(seed);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p, gen.generate(seed));
    const std::vector<std::uint32_t> halves = gen.encode_units(p);
    for (std::size_t i = 0; i < halves.size(); ++i) {
      const auto h = static_cast<std::uint16_t>(halves[i]);
      ASSERT_FALSE(isa::thumb_is_wide_prefix(h))
          << "wide encodings are excluded from generated streams";
      const isa::ThumbInstrSpec* spec = isa::thumb_decode(h);
      ASSERT_NE(spec, nullptr) << "UNDEFINED halfword 0x" << std::hex << h << " at " << i;
      EXPECT_TRUE(subset.contains(spec->name)) << spec->name << " not in " << subset.name;
    }
  }
}

TEST(FuzzGenerator, Rv32RejectsSubsetWithoutTerminator) {
  // risc16 has c.jalr but no ebreak/ecall/c.ebreak: no way to halt.
  const isa::RvSubset none = isa::rv32_subset_from_names("no-halt", {"addi", "add"});
  EXPECT_THROW(Rv32Generator{none}, PdatError);
}

TEST(FuzzGenerator, MutateIsDeterministicAndStaysInSubset) {
  const isa::RvSubset subset = isa::rv32_subset_named("rv32i");
  const Rv32Generator gen(subset);
  AbsProgram p = gen.generate(7);
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const AbsProgram m = gen.mutate(p, seed);
    EXPECT_EQ(m, gen.mutate(p, seed));
    ASSERT_FALSE(m.empty());
    p = m;  // chain mutations
  }
  for (const AbsOp& op : p) {
    if (op.spec >= 0) {
      EXPECT_TRUE(subset.contains(op.spec));
    }
  }
}

// --- serialization -----------------------------------------------------------

TEST(FuzzCorpus, SerializeParseRoundTrip) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"));
  const AbsProgram p = gen.generate(99);
  const std::string text = serialize_program(p, "rv32");
  EXPECT_EQ(parse_program(text, "rv32"), p);
  EXPECT_THROW(parse_program(text, "thumb"), PdatError);
  EXPECT_THROW(parse_program("op 1 2", "rv32"), PdatError);
}

// --- shrinker ----------------------------------------------------------------

TEST(FuzzShrink, DeltaDebugsToMinimalCore) {
  // 40 ops; the "failure" needs the two marked ops (opseed 42 twice).
  AbsProgram p;
  for (int i = 0; i < 40; ++i) p.push_back({i % 5, OpClass::Plain, 7, 1});
  p[11].opseed = 42;
  p[29].opseed = 42;
  auto fails = [](const AbsProgram& cand) {
    int marked = 0;
    for (const AbsOp& op : cand) marked += op.opseed == 42 ? 1 : 0;
    return marked >= 2;
  };
  const ShrinkResult r = shrink_program(p, fails, 400);
  EXPECT_EQ(r.program.size(), 2u);
  EXPECT_TRUE(fails(r.program));
  EXPECT_LE(r.oracle_runs, 400u);
}

TEST(FuzzShrink, CanonicalizesOperandsWhenFailurePersists) {
  AbsProgram p;
  p.push_back({0, OpClass::Plain, 123, 5});
  p.push_back({1, OpClass::Plain, 456, 3});
  auto fails = [](const AbsProgram& cand) { return cand.size() >= 2; };
  const ShrinkResult r = shrink_program(p, fails, 100);
  ASSERT_EQ(r.program.size(), 2u);
  for (const AbsOp& op : r.program) {
    EXPECT_EQ(op.opseed, 0u);
    EXPECT_EQ(op.skip, 1);
  }
}

TEST(FuzzShrink, RespectsBudget) {
  AbsProgram p;
  for (int i = 0; i < 64; ++i) p.push_back({0, OpClass::Plain, 1, 1});
  std::size_t calls = 0;
  auto fails = [&](const AbsProgram&) {
    ++calls;
    return false;  // nothing shrinkable: ddmin probes until the budget dies
  };
  const ShrinkResult r = shrink_program(p, fails, 10);
  EXPECT_EQ(r.oracle_runs, 10u);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(r.program.size(), 64u);
}

// --- oracles -----------------------------------------------------------------

TEST(FuzzOracle, HealthyIbexAgreesWithIss) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AbsProgram p = gen.generate(seed);
    const RunOutcome out = oracle.run(p, nullptr);
    EXPECT_EQ(out.status, RunOutcome::Status::Agree) << "seed " << seed << ": " << out.detail;
  }
}

TEST(FuzzOracle, HealthyCm0AgreesWithIss) {
  const ThumbGenerator gen(isa::thumb_subset_interesting());
  ThumbDiffOracle oracle(gen, cm0_netlist(), nullptr);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AbsProgram p = gen.generate(seed);
    const RunOutcome out = oracle.run(p, nullptr);
    EXPECT_EQ(out.status, RunOutcome::Status::Agree) << "seed " << seed << ": " << out.detail;
  }
}

TEST(FuzzOracle, CoverageAccumulates) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32i"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  CoverageMap cov;
  cov.init(oracle.coverage_nets());
  EXPECT_EQ(cov.covered(), 0u);
  oracle.run(gen.generate(1), &cov);
  const std::size_t after_one = cov.covered();
  EXPECT_GT(after_one, 0u);
  EXPECT_LE(after_one, 2 * cov.nets());
}

// --- lane-parallel batches ---------------------------------------------------

namespace {

bool same_bits(const CoverageMap& a, const CoverageMap& b) {
  CoverageMap x = a;
  CoverageMap y = b;
  return a.nets() == b.nets() && x.merge_count_new(b) == 0 && y.merge_count_new(a) == 0;
}

/// `n` copies of one op: with a multi-cycle op the testbench hits its cycle
/// cap while the ISS halts; with 4200 single-step ops the ISS hits its step
/// cap first.
AbsProgram repeated(int spec, std::size_t n) {
  AbsProgram p;
  for (std::size_t i = 0; i < n; ++i) p.push_back({spec, OpClass::Plain, 0x5eed + i, 0});
  return p;
}

/// Runs `programs` as one batch in identity lane order and in a permuted
/// order, and requires every program's outcome and coverage to equal those
/// of the program run alone. Returns the outcomes run alone.
std::vector<RunOutcome> expect_lane_isolation(Oracle& oracle,
                                              const std::vector<AbsProgram>& programs) {
  std::vector<RunOutcome> alone(programs.size());
  std::vector<CoverageMap> alone_cov(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    alone_cov[i].init(oracle.coverage_nets());
    alone[i] = oracle.run(programs[i], &alone_cov[i]);
  }
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::size_t> permuted(order.rbegin(), order.rend());
  std::rotate(permuted.begin(), permuted.begin() + 5, permuted.end());
  for (const auto& lanes : {order, permuted}) {
    std::vector<const AbsProgram*> batch;
    std::vector<CoverageMap> cov(lanes.size());
    std::vector<CoverageMap*> covs;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      batch.push_back(&programs[lanes[lane]]);
      cov[lane].init(oracle.coverage_nets());
      covs.push_back(&cov[lane]);
    }
    const std::vector<RunOutcome> out = oracle.run_batch(batch, covs);
    EXPECT_EQ(out.size(), lanes.size());
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      const std::size_t p = lanes[lane];
      EXPECT_EQ(out[lane].status, alone[p].status) << "program " << p << " in lane " << lane;
      EXPECT_EQ(out[lane].detail, alone[p].detail) << "program " << p << " in lane " << lane;
      EXPECT_EQ(out[lane].cycles, alone[p].cycles) << "program " << p << " in lane " << lane;
      EXPECT_TRUE(same_bits(cov[lane], alone_cov[p])) << "program " << p << " in lane " << lane;
    }
  }
  return alone;
}

bool has_status(const std::vector<RunOutcome>& outs, RunOutcome::Status s,
                const std::string& detail_prefix) {
  return std::any_of(outs.begin(), outs.end(), [&](const RunOutcome& o) {
    return o.status == s && o.detail.rfind(detail_prefix, 0) == 0;
  });
}

/// 32 programs: 29 generated or mutated, then lane 29 runs `slow` (or one
/// more generated program when `slow` is empty), lane 30 one the ISS cannot
/// finish, and lane 31 a duplicate of lane 3.
template <class Gen>
std::vector<AbsProgram> lane_test_programs(const Gen& gen, const AbsProgram& slow,
                                           int plain_spec) {
  std::vector<AbsProgram> programs;
  for (std::uint64_t seed = 1; programs.size() < 29; ++seed) {
    programs.push_back(seed % 4 == 0 ? gen.mutate(gen.generate(seed), seed) : gen.generate(seed));
  }
  programs.push_back(slow.empty() ? gen.generate(100) : slow);
  programs.push_back(repeated(plain_spec, 4200));
  programs.push_back(programs[3]);
  return programs;
}

}  // namespace

TEST(FuzzBatch, IbexLanesMatchProgramsRunAlone) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"));
  const int addi = isa::rv32_instr_index("addi");
  {
    // Baseline only, decoder fault armed: lanes with R-type ops diverge.
    util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
    Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
    const auto outs = expect_lane_isolation(oracle, lane_test_programs(gen, {}, addi));
    EXPECT_TRUE(has_status(outs, RunOutcome::Status::Agree, ""));
    EXPECT_TRUE(has_status(outs, RunOutcome::Status::Diverge, "baseline: "));
    EXPECT_EQ(outs[30].detail, "iss: did not halt");
    EXPECT_EQ(outs[30].cycles, 0u);
  }
  // With a reduced core (coverage from it): M-extension lanes diverge there.
  Rv32DiffOracle oracle(gen, ibex_netlist(), &ibex_no_m_netlist());
  const auto outs = expect_lane_isolation(oracle, lane_test_programs(gen, {}, addi));
  EXPECT_TRUE(has_status(outs, RunOutcome::Status::Agree, ""));
  EXPECT_TRUE(has_status(outs, RunOutcome::Status::Diverge, "reduced: "));
  EXPECT_EQ(outs[30].detail, "iss: did not halt");
}

TEST(FuzzBatch, Cm0LanesMatchProgramsRunAlone) {
  const ThumbGenerator gen(isa::thumb_subset_all());
  const int movs = isa::thumb_instr_index("movs.i8");
  {
    // Baseline only, decoder fault armed: lanes with DP-register ops
    // diverge, and 300 32-cycle multiplies outlast the testbench's cycle cap
    // (one capped lane keeps every pass at the full cap, so only this
    // variant has one).
    util::ScopedFailpoint fp("cm0_tb.fetch_fault", "enospc");
    ThumbDiffOracle oracle(gen, cm0_netlist(), nullptr);
    const auto outs = expect_lane_isolation(
        oracle, lane_test_programs(gen, repeated(isa::thumb_instr_index("muls"), 300), movs));
    EXPECT_TRUE(has_status(outs, RunOutcome::Status::Agree, ""));
    EXPECT_TRUE(has_status(outs, RunOutcome::Status::Diverge, "baseline: "));
    EXPECT_EQ(outs[29].detail, "baseline: did not halt");
    EXPECT_EQ(outs[29].cycles, 8192u);
    EXPECT_EQ(outs[30].detail, "iss: did not halt");
    EXPECT_EQ(outs[30].cycles, 0u);
  }
  ThumbDiffOracle oracle(gen, cm0_netlist(), &cm0_low_sp_netlist());
  const auto outs = expect_lane_isolation(oracle, lane_test_programs(gen, {}, movs));
  EXPECT_TRUE(has_status(outs, RunOutcome::Status::Agree, ""));
  EXPECT_TRUE(has_status(outs, RunOutcome::Status::Diverge, "reduced: "));
}

// --- the loop: mutation self-check + determinism -----------------------------

namespace {

FuzzStats fuzz_ibex_baseline(std::uint64_t seed, std::size_t iterations, int threads,
                             const std::string& out_dir) {
  FuzzOptions fopt;
  fopt.seed = seed;
  fopt.iterations = iterations;
  fopt.threads = threads;
  fopt.out_dir = out_dir;
  fopt.max_divergences = 2;
  return fuzz_rv32(isa::rv32_subset_named("rv32i"), ibex_netlist(), nullptr, fopt);
}

}  // namespace

TEST(FuzzLoop, MutationSelfCheckFindsAndShrinksInjectedDecoderFault) {
  // Arm the decoder-fault chaos hook: fetched R-type words get a corrupted
  // rs2 index in the testbench but not in the ISS. The fuzzer must notice
  // within a bounded budget and shrink the divergence to <= 8 instructions.
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const FuzzStats stats = fuzz_ibex_baseline(1, 48, 1, "");
  ASSERT_GE(stats.divergences, 1u) << "armed decoder fault not detected in 48 programs";
  ASSERT_FALSE(stats.findings.empty());
  for (const FuzzFinding& f : stats.findings) {
    EXPECT_LE(f.shrunk.size(), 8u) << "shrunk reproducer too large: " << f.detail;
    EXPECT_FALSE(f.detail.empty());
  }
  // Deterministic: the same seed finds and shrinks to the same reproducer.
  const FuzzStats again = fuzz_ibex_baseline(1, 48, 1, "");
  ASSERT_EQ(again.findings.size(), stats.findings.size());
  for (std::size_t i = 0; i < stats.findings.size(); ++i) {
    EXPECT_EQ(again.findings[i].shrunk, stats.findings[i].shrunk);
    EXPECT_EQ(again.findings[i].detail, stats.findings[i].detail);
  }
}

TEST(FuzzLoop, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");  // exercise repro paths too
  const auto dir1 = fresh_dir("t1");
  const auto dir4 = fresh_dir("t4");
  const FuzzStats s1 = fuzz_ibex_baseline(3, 48, 1, dir1.string());
  const FuzzStats s4 = fuzz_ibex_baseline(3, 48, 4, dir4.string());

  EXPECT_EQ(s1.programs, s4.programs);
  EXPECT_EQ(s1.divergences, s4.divergences);
  EXPECT_EQ(s1.inconclusive, s4.inconclusive);
  EXPECT_EQ(s1.corpus_retained, s4.corpus_retained);
  EXPECT_EQ(s1.covered_pairs, s4.covered_pairs);
  EXPECT_EQ(s1.shrink_runs, s4.shrink_runs);
  ASSERT_EQ(s1.findings.size(), s4.findings.size());
  for (std::size_t i = 0; i < s1.findings.size(); ++i) {
    EXPECT_EQ(s1.findings[i].shrunk, s4.findings[i].shrunk);
  }

  const auto c1 = dir_contents(dir1);
  const auto c4 = dir_contents(dir4);
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c1, c4) << "corpus/coverage/reproducers must not depend on the thread count";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir4);
}

namespace {

/// FNV-1a over every (relative path, contents) pair of a directory.
std::uint64_t digest_dir(const std::filesystem::path& root) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const std::string& s) {
    for (const unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  for (const auto& [path, content] : dir_contents(root)) {
    mix(path);
    mix(content);
  }
  return h;
}

}  // namespace

// Fixed-seed results recorded with the program-at-a-time oracle that ran one
// program per simulation pass. The thread-count test above compares two arms
// of the current code; this pins both to the recorded history, so a change
// that moves the campaign (generation, scheduling, coverage, shrinking) shows.
TEST(FuzzLoop, GoldenCampaignsMatchRecordedResults) {
  FuzzOptions fopt;
  fopt.seed = 11;
  fopt.iterations = 64;
  const FuzzStats ibex =
      fuzz_rv32(isa::rv32_subset_named("rv32imc"), ibex_netlist(), nullptr, fopt);
  EXPECT_EQ(ibex.programs, 64u);
  EXPECT_EQ(ibex.instructions, 1420u);
  EXPECT_EQ(ibex.corpus_retained, 35u);
  EXPECT_EQ(ibex.covered_pairs, 18771u);

  // Includes one divergence of the unmodified CM0 (final N flag after a
  // single op), which the recorded run also found.
  const FuzzStats cm0 = fuzz_thumb(isa::thumb_subset_interesting(), cm0_netlist(), nullptr, fopt);
  EXPECT_EQ(cm0.programs, 64u);
  EXPECT_EQ(cm0.instructions, 1354u);
  EXPECT_EQ(cm0.corpus_retained, 26u);
  EXPECT_EQ(cm0.covered_pairs, 12903u);
  EXPECT_EQ(cm0.divergences, 1u);

  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const auto dir = fresh_dir("golden");
  fuzz_ibex_baseline(3, 48, 1, dir.string());
  EXPECT_EQ(dir_contents(dir).size(), 21u);
  EXPECT_EQ(digest_dir(dir), 0x95cc1e2c245c5640ull)
      << "corpus/coverage/reproducers of the seed-3 armed run changed";
  std::filesystem::remove_all(dir);
}

TEST(FuzzLoop, ZeroIterationsRunsNoOraclesAndWritesNothing) {
  const auto dir = fresh_dir("zero");
  FuzzOptions fopt;
  fopt.iterations = 0;
  fopt.out_dir = dir.string();
  Target target;  // no generator, no oracle factory: must not be touched
  const FuzzStats stats = run_fuzz(target, fopt);
  EXPECT_EQ(stats.programs, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(FuzzLoop, RetainedCorpusCoversNewTogglesOnly) {
  const auto dir = fresh_dir("corpus");
  const FuzzStats stats = fuzz_ibex_baseline(5, 32, 2, dir.string());
  EXPECT_GT(stats.corpus_retained, 0u);
  EXPECT_LT(stats.corpus_retained, stats.programs) << "coverage gate retained everything";
  // The corpus on disk matches the stats, and the coverage report's summary
  // lines agree with the returned numbers.
  std::size_t hex_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir / "corpus")) {
    hex_files += e.path().extension() == ".hex" ? 1 : 0;
  }
  EXPECT_EQ(hex_files, stats.corpus_retained);
  std::ifstream cov(dir / "coverage.txt");
  std::stringstream ss;
  ss << cov.rdbuf();
  EXPECT_NE(ss.str().find("covered_pairs " + std::to_string(stats.covered_pairs)),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FuzzLoop, ShrunkReproducerReplaysAsDivergent) {
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const auto dir = fresh_dir("replay");
  const FuzzStats stats = fuzz_ibex_baseline(1, 48, 1, dir.string());
  ASSERT_FALSE(stats.findings.empty());

  std::ifstream in(dir / "repro_00.prog");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const AbsProgram replayed = parse_program(ss.str(), "rv32");
  EXPECT_EQ(replayed, stats.findings[0].shrunk);

  const Rv32Generator gen(isa::rv32_subset_named("rv32i"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  EXPECT_EQ(oracle.run(replayed, nullptr).status, RunOutcome::Status::Diverge);
  // ... and with the failpoint disarmed the same program agrees again.
  util::failpoint_clear("ibex_tb.fetch_fault");
  EXPECT_EQ(oracle.run(replayed, nullptr).status, RunOutcome::Status::Agree);
  util::failpoint_set("ibex_tb.fetch_fault", "enospc");  // ScopedFailpoint dtor clears
  std::filesystem::remove_all(dir);
}

TEST(FuzzLoop, Cm0MutationSelfCheck) {
  util::ScopedFailpoint fp("cm0_tb.fetch_fault", "enospc");
  FuzzOptions fopt;
  fopt.seed = 1;
  fopt.iterations = 48;
  fopt.max_divergences = 1;
  const FuzzStats stats =
      fuzz_thumb(isa::thumb_subset_interesting(), cm0_netlist(), nullptr, fopt);
  ASSERT_GE(stats.divergences, 1u) << "armed CM0 decoder fault not detected";
  ASSERT_FALSE(stats.findings.empty());
  EXPECT_LE(stats.findings[0].shrunk.size(), 8u);
}
