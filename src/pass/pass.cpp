#include "pass/pass.hpp"

#include <mutex>
#include <string>
#include <utility>

#include "mig/axioms.hpp"
#include "pass/seq.hpp"
#include "util/error.hpp"

namespace rlim::pass {

namespace {

/// A mig axiom pass: rewrites the graph in place, returns its rule firings.
using AxiomFn = std::size_t (*)(mig::Mig&);

/// Built-in passes wrap the mig axiom functions, whose contract is exactly
/// the Pass contract.
class AxiomPass final : public Pass {
public:
  AxiomPass(std::string_view name, AxiomFn fn, util::Params params)
      : name_(name), fn_(fn), params_(std::move(params)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const util::Params& params() const override { return params_; }

  void run(mig::Mig& graph, PassStats& stats) const override {
    stats.applications += fn_(graph);
  }

private:
  std::string_view name_;
  AxiomFn fn_;
  util::Params params_;
};

PassFactory axiom_factory(std::string_view name, AxiomFn fn) {
  return [name, fn](const util::Params& params) -> PassPtr {
    return std::make_shared<AxiomPass>(name, fn, params);
  };
}

}  // namespace

util::Registry<PassFactory>& passes() {
  static auto* registry = [] {
    auto* reg = new util::Registry<PassFactory>("rewriting pass");
    reg->add({"maj",
              "Ω.M — dead-gate removal + re-strashing (construction already "
              "applies the majority rules)",
              {}},
             axiom_factory("maj", mig::pass_majority));
    reg->add({"dist", "Ω.D (R→L) — distributivity, merges shared child gates",
              {}},
             axiom_factory("dist", mig::pass_distributivity_rl));
    reg->add({"assoc",
              "Ω.A — associativity-rebalance, applied when the swap "
              "simplifies or shares",
              {}},
             axiom_factory("assoc", mig::pass_associativity));
    reg->add({"comp",
              "Ψ.C — complement-canonicalize (complementary associativity; "
              "Algorithm 1 only)",
              {}},
             axiom_factory("comp", mig::pass_comp_assoc));
    reg->add({"inv",
              "Ω.I (R→L, variants 1–3) — inverter-propagate toward ≤1 "
              "complemented fanin",
              {}},
             axiom_factory("inv", mig::pass_inv_reduce));
    reg->add({"inv3",
              "Ω.I (R→L) — flip only fully-complemented gates ⟨x̄ȳz̄⟩",
              {}},
             axiom_factory("inv3", mig::pass_inv_three));
    reg->add({"relief",
              "Ω.A wear-target relief — level balancing, the paper's "
              "§III-B.4 objective",
              {}},
             axiom_factory("relief", mig::pass_level_balance));
    // Ω.M on a graph built by create_maj removes exactly the dead gates, so
    // `cleanup` and `maj` share one implementation under two keys.
    reg->add({"cleanup", "dead-node elimination + re-strash", {}},
             axiom_factory("cleanup", mig::pass_majority));
    return reg;
  }();
  return *registry;
}

PassPtr make_pass(const util::PolicySpec& spec) { return passes().make(spec); }

void ensure_registered() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)passes();          // force built-in pass registration
    register_seq_rewrite();  // pass/seq.cpp: the `seq` flow + aliases
  });
}

}  // namespace rlim::pass
