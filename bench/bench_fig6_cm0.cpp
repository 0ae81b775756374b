// Reproduces Figure 6: PDAT on the *obfuscated* Cortex-M0-like netlist.
// Because the netlist is obfuscated, only port-based constraints are
// available (the fetched halfword stream). Variants:
//   Full            — the obfuscated netlist as delivered (no PDAT)
//   ARMv6-M         — PDAT with the full ISA (recovers obfuscation overhead)
//   MiBench groups  — per-group instruction subsets
//   MiBench All     — union subset; expected ~equal to ARMv6-M because the
//                     subset mixes 16/32-bit encodings and indirect branches,
//                     which a stateless port constraint cannot separate
//   Interesting     — all-16-bit subset (no muls/hints/wide): the practical
//                     embedded subset, where port constraints do help
#include <iostream>

#include "bench_util.h"
#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "isa/thumb_subsets.h"
#include "opt/obfuscate.h"
#include "workload/mibench_thumb.h"

using namespace pdat;
using namespace pdat::bench;

namespace {

PdatResult pdat_cm0(const Netlist& obfuscated, const isa::ThumbSubset& subset) {
  return run_pdat(obfuscated,
                  [&](Netlist& a) { return restrict_thumb_port(a, "imem_rdata", subset); });
}

}  // namespace

int main() {
  cores::Cm0Core core = cores::build_cm0();
  opt::optimize(core.netlist);
  const std::size_t clear_gates = core.netlist.gate_count();
  opt::obfuscate(core.netlist);
  const Netlist& obf = core.netlist;

  std::vector<VariantRow> rows;
  rows.push_back(make_row("M0 Full (obfuscated)", obf));
  std::cout << "(pre-obfuscation core: " << clear_gates << " gates)\n";

  struct V {
    std::string label;
    isa::ThumbSubset subset;
  };
  std::vector<V> variants = {
      {"ARMv6-M (full ISA)", isa::thumb_subset_all()},
      {"MiBench networking", workload::thumb_group_subset("networking")},
      {"MiBench security", workload::thumb_group_subset("security")},
      {"MiBench automotive", workload::thumb_group_subset("automotive")},
      {"MiBench All", workload::thumb_group_subset("all")},
      {"Interesting subset", isa::thumb_subset_interesting()},
  };
  PdatResult kept_all;
  for (const auto& v : variants) {
    Timer t;
    PdatResult res = pdat_cm0(obf, v.subset);
    rows.push_back(make_row(v.label, res, t.seconds()));
    if (v.label == "MiBench All") kept_all = std::move(res);
  }

  // Lockstep-verify the MiBench-All reduced core on every thumb kernel.
  for (const auto& k : workload::mibench_thumb_kernels()) {
    const auto prog = isa::assemble_thumb(k.source);
    const std::string err = cores::cm0_cosim_against_iss(kept_all.transformed, prog.halves,
                                                         2000000);
    if (!err.empty()) {
      std::cout << "!! thumb kernel " << k.name << " diverged on reduced core: " << err << "\n";
      return 1;
    }
  }

  print_variant_table(std::cout, rows, "Figure 6: obfuscated Cortex-M0 variants",
                      "M0 Full (obfuscated)");
  std::cout << "All thumb kernels verified in lockstep on the MiBench-All core.\n"
            << "Paper shape: ~20% area / ~18% gates recovered by PDAT with the full\n"
               "ISA (much of it obfuscation overhead); 'MiBench All' ~= 'ARMv6-M'\n"
               "because port-based constraints cannot exclude wide-encoding halves;\n"
               "the all-16-bit 'interesting subset' is ~20-23% below the baseline.\n";
  return 0;
}
