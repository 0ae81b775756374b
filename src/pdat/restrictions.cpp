#include "pdat/restrictions.h"

#include "isa/rv32_isa.h"
#include "synth/builder.h"

namespace pdat {

RestrictionResult restrict_isa_cutpoint(Netlist& analysis, const std::vector<NetId>& instr_reg_q,
                                        const isa::RvSubset& subset) {
  if (instr_reg_q.size() != 32) throw PdatError("cutpoint restriction expects 32 bits");
  RestrictionResult res;
  for (NetId n : instr_reg_q) {
    cut_net(analysis, n);
    res.cut_nets.push_back(n);
  }
  synth::Builder b(analysis);
  const NetId ok = isa::build_subset_matcher(b, instr_reg_q, subset);
  res.env.add_assume(ok);
  res.env.drivers.push_back(std::make_shared<SampledWordDriver>(
      instr_reg_q, [subset](Rng& rng) { return isa::sample_subset_word(subset, rng); }));
  return res;
}

RestrictionResult restrict_isa_port(Netlist& analysis, const std::string& port_name,
                                    const isa::RvSubset& subset) {
  const Port* port = analysis.find_input(port_name);
  if (port == nullptr || port->bits.size() != 32) {
    throw PdatError("restrict_isa_port: no 32-bit input named " + port_name);
  }
  RestrictionResult res;
  const std::vector<NetId> bits = port->bits;
  synth::Builder b(analysis);
  const NetId ok = isa::build_subset_matcher(b, bits, subset);
  res.env.add_assume(ok);
  res.env.drivers.push_back(std::make_shared<SampledWordDriver>(
      bits, [subset](Rng& rng) { return isa::sample_subset_word(subset, rng); }));
  return res;
}

namespace {

/// Samples one subset halfword stream per slot.
class ThumbHalfwordDriver final : public StimulusDriver {
 public:
  ThumbHalfwordDriver(std::vector<NetId> bits, isa::ThumbSubset subset)
      : bits_(std::move(bits)), subset_(std::move(subset)) {}
  void drive(BitSim& sim, Rng& rng) override {
    std::uint64_t slots[64];
    for (int i = 0; i < 64; ++i) {
      slots[i] = isa::sample_thumb_halfword(subset_, rng, pend_[i], has_[i]);
    }
    Port tmp;
    tmp.bits = bits_;
    sim.set_port_per_slot(tmp, slots);
  }
  std::vector<NetId> owned_nets() const override { return bits_; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<ThumbHalfwordDriver>(*this);
  }

 private:
  std::vector<NetId> bits_;
  isa::ThumbSubset subset_;
  std::uint32_t pend_[64] = {};  // per slot: second halfword of a wide encoding
  bool has_[64] = {};
};

}  // namespace

RestrictionResult restrict_thumb_port(Netlist& analysis, const std::string& port_name,
                                      const isa::ThumbSubset& subset) {
  const Port* port = analysis.find_input(port_name);
  if (port == nullptr || port->bits.size() != 16) {
    throw PdatError("restrict_thumb_port: no 16-bit input named " + port_name);
  }
  RestrictionResult res;
  const std::vector<NetId> bits = port->bits;
  synth::Builder b(analysis);
  res.env.add_assume(isa::build_thumb_halfword_matcher(b, bits, subset));
  res.env.drivers.push_back(std::make_shared<ThumbHalfwordDriver>(bits, subset));
  return res;
}

void strengthen_subset_membership(Netlist& analysis, RestrictionResult& r,
                                  const std::vector<NetId>& regs, const isa::RvSubset& subset) {
  synth::Builder b(analysis);
  GateProperty p;
  p.kind = PropKind::Const1;
  p.target = isa::build_subset_matcher(b, regs, subset);
  p.rewireable = false;
  r.strengthen.push_back(p);
}

void restrict_word_aligned(Netlist& analysis, Environment& env, NetId req,
                           const std::vector<NetId>& addr_low2) {
  synth::Builder b(analysis);
  const NetId aligned = b.nor_(addr_low2.at(0), addr_low2.at(1));
  env.add_assume(b.implies(req, aligned));
}

void restrict_cut_to_zero(Netlist& analysis, RestrictionResult& r,
                          const std::vector<NetId>& nets) {
  synth::Builder b(analysis);
  for (NetId n : nets) {
    cut_net(analysis, n);
    r.cut_nets.push_back(n);
    r.env.add_assume(b.not_(n));
  }
  r.env.drivers.push_back(std::make_shared<ConstantDriver>(nets, false));
}

}  // namespace pdat
