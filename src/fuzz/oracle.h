// Differential oracles: each program through three models, its first
// divergence wins.
//
// Each oracle owns its gate-level testbenches (BitSim construction levelizes
// the netlist, which is expensive) and reuses them across batches. A batch
// runs as one simulation pass per core with one program per lane; every
// lane has its own memory and every gate evaluates bitwise, so a program's
// outcome, cycle count and coverage do not depend on its lane or on the
// other programs of the batch. The ISS golden model is scalar and built
// fresh for each program. Gate toggle coverage is recorded from the
// *reduced* core when one is configured — the fuzzer's job is to exercise
// the reduced machine — and from the baseline otherwise.
#pragma once

#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_tb.h"
#include "fuzz/generator.h"

namespace pdat::fuzz {

/// ISS + baseline Ibex bitsim (+ reduced Ibex bitsim when non-null).
class Rv32DiffOracle : public Oracle {
 public:
  Rv32DiffOracle(const Rv32Generator& gen, const Netlist& baseline, const Netlist* reduced);

  std::size_t coverage_nets() const override { return cov_nets_; }
  std::vector<RunOutcome> run_batch(const std::vector<const AbsProgram*>& programs,
                                    const std::vector<CoverageMap*>& covs) override;

 private:
  const Rv32Generator& gen_;
  cores::IbexTestbench base_tb_;
  std::unique_ptr<cores::IbexTestbench> red_tb_;
  std::size_t cov_nets_;
  LaneCoverage lane_cov_;
};

/// ISS + baseline CM0 bitsim (+ reduced CM0 bitsim when non-null).
class ThumbDiffOracle : public Oracle {
 public:
  ThumbDiffOracle(const ThumbGenerator& gen, const Netlist& baseline, const Netlist* reduced);

  std::size_t coverage_nets() const override { return cov_nets_; }
  std::vector<RunOutcome> run_batch(const std::vector<const AbsProgram*>& programs,
                                    const std::vector<CoverageMap*>& covs) override;

 private:
  const ThumbGenerator& gen_;
  cores::Cm0Testbench base_tb_;
  std::unique_ptr<cores::Cm0Testbench> red_tb_;
  std::size_t cov_nets_;
  LaneCoverage lane_cov_;
};

/// Convenience entry points: build the generator + target and run the loop.
/// `reduced` may be null (baseline-only fuzzing, e.g. with w_illegal > 0).
/// The netlists must outlive the call.
FuzzStats fuzz_rv32(const isa::RvSubset& subset, const Netlist& baseline, const Netlist* reduced,
                    const FuzzOptions& opt, const GenOptions& gopt = {});
FuzzStats fuzz_thumb(const isa::ThumbSubset& subset, const Netlist& baseline,
                     const Netlist* reduced, const FuzzOptions& opt, const GenOptions& gopt = {});

}  // namespace pdat::fuzz
