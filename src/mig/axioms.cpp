#include "mig/axioms.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

namespace rlim::mig {

namespace {

/// Incremental graph rebuilder shared by all passes. Gates are visited in
/// topological (index) order; visited gates record their replacement signal
/// in `map`, so later gates and the POs pick transformations up
/// transparently. Gates absorbed into a fused replacement are skipped.
class Rebuilder {
public:
  explicit Rebuilder(const Mig& old) : old_(old), map_(old.num_nodes()), mapped_(old.num_nodes(), false) {
    // Most passes change a small fraction of the graph, so the rebuilt
    // arenas end up near the old sizes — pre-sizing removes the growth
    // reallocations from every rewrite cycle.
    fresh_.reserve(old.num_pis(), old.num_gates(), old.num_pos());
    map_[0] = Signal::constant(false);
    mapped_[0] = true;
    for (std::uint32_t pi = 1; pi <= old.num_pis(); ++pi) {
      map_[pi] = fresh_.create_pi(old.pi_name(pi - 1));
      mapped_[pi] = true;
    }
  }

  [[nodiscard]] Signal remap(Signal s) const {
    assert(mapped_[s.index()] && "reference to an absorbed/unmapped node");
    return map_[s.index()] ^ s.is_complemented();
  }

  void set_map(std::uint32_t old_gate, Signal replacement) {
    map_[old_gate] = replacement;
    mapped_[old_gate] = true;
  }

  /// Default rebuild of one gate through the strashing constructor.
  void rebuild_default(std::uint32_t gate) {
    const auto& fanin = old_.fanins(gate);
    set_map(gate, fresh_.create_maj(remap(fanin[0]), remap(fanin[1]), remap(fanin[2])));
  }

  Mig finish() {
    for (std::uint32_t i = 0; i < old_.num_pos(); ++i) {
      fresh_.create_po(remap(old_.po_at(i)), old_.po_name(i));
    }
    return std::move(fresh_);
  }

  [[nodiscard]] Mig& fresh() { return fresh_; }

private:
  const Mig& old_;
  Mig fresh_;
  std::vector<Signal> map_;
  std::vector<bool> mapped_;
};

/// Which gates a pass visits. On a graph without dead gates (the common case
/// after the flows' initial cleanup) every gate is live and the reachability
/// walk is skipped.
class Liveness {
public:
  explicit Liveness(const Mig& mig) : any_dead_(mig.has_dead_gates()) {
    if (any_dead_) {
      reachable_ = mig.reachable_from_pos();
    }
  }

  [[nodiscard]] bool operator()(std::uint32_t gate) const {
    return !any_dead_ || reachable_[gate];
  }
  [[nodiscard]] bool any_dead() const { return any_dead_; }

private:
  bool any_dead_;
  std::vector<bool> reachable_;
};

/// The rewrites one pass decided on, in ascending gate order. A plan claims
/// its gate and the child gates it absorbs, so plans never overlap. The claim
/// bits are allocated on the first plan: a pass that plans nothing allocates
/// nothing per node.
template <typename Plan>
class Plans {
public:
  struct Entry {
    std::uint32_t gate;
    Plan plan;
  };

  explicit Plans(std::uint32_t num_nodes) : num_nodes_(num_nodes) {}

  [[nodiscard]] bool claimed(std::uint32_t node) const {
    return !claimed_.empty() && claimed_[node];
  }

  void add(std::uint32_t gate, const Plan& plan,
           std::initializer_list<std::uint32_t> absorbed) {
    if (claimed_.empty()) {
      claimed_.assign(num_nodes_, false);
    }
    claimed_[gate] = true;
    for (const auto child : absorbed) {
      claimed_[child] = true;
    }
    entries_.push_back(Entry{gate, plan});
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

private:
  std::uint32_t num_nodes_;
  std::vector<bool> claimed_;
  std::vector<Entry> entries_;
};

/// Common loop of the planning passes. `match(gate, plans)` inspects one
/// live, unclaimed gate and may add a plan for it; `apply(rebuild, plan)`
/// builds a planned gate's replacement in the fresh graph. Returns the
/// number of plans (the pass's rule firings).
template <typename Plan, typename Match, typename Apply>
std::size_t plan_and_rebuild(Mig& mig, Match match, Apply apply) {
  const Liveness live(mig);
  Plans<Plan> plans(mig.num_nodes());
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (live(gate) && !plans.claimed(gate)) {
      match(gate, plans);
    }
  }
  const auto& entries = plans.entries();
  if (entries.empty() && !live.any_dead()) {
    return 0;  // identity: nothing fires and there is no dead logic to drop
  }

  Rebuilder rebuild(mig);
  auto next = entries.begin();
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!live(gate)) {
      continue;
    }
    if (next != entries.end() && next->gate == gate) {
      rebuild.set_map(gate, apply(rebuild, next->plan));
      ++next;
    } else if (!plans.claimed(gate)) {  // claimed, unplanned gates are absorbed
      rebuild.rebuild_default(gate);
    }
  }
  const auto applications = entries.size();
  mig = rebuild.finish();
  return applications;
}

/// Trivial Ω.M simplification oracle for a candidate triple (no graph access).
bool triple_simplifies(Signal a, Signal b, Signal c) {
  return a == b || a == !b || a == c || a == !c || b == c || b == !c;
}

/// Complemented fanins among a candidate triple, constants excluded.
int noncost_complements(std::span<const Signal> fanins) {
  int count = 0;
  for (const auto f : fanins) {
    if (!f.is_constant() && f.is_complemented()) {
      ++count;
    }
  }
  return count;
}

/// The two signals of a gate's fanin triple other than `u`, or nullopt when
/// `u` is not among them.
std::optional<std::array<Signal, 2>> others(const std::array<Signal, 3>& fanin,
                                            Signal u) {
  std::array<Signal, 2> rest{};
  std::size_t count = 0;
  for (const auto s : fanin) {
    if (s != u) {
      if (count == 2) {
        return std::nullopt;  // u is not a fanin
      }
      rest[count++] = s;
    }
  }
  if (count != 2) {
    return std::nullopt;  // u appears more than once (cannot happen after Ω.M)
  }
  return rest;
}

/// Ω.A swap plan shared by associativity and level balancing:
/// ⟨x u ⟨y u z⟩⟩ → ⟨z u ⟨y u x⟩⟩.
struct SwapPlan {
  Signal y, u, x, z;  // new inner = ⟨y u x⟩, new outer = ⟨z u inner⟩
};

Signal apply_swap(Rebuilder& rebuild, const SwapPlan& plan) {
  auto& fresh = rebuild.fresh();
  const auto inner = fresh.create_maj(rebuild.remap(plan.y), rebuild.remap(plan.u),
                                      rebuild.remap(plan.x));
  return fresh.create_maj(rebuild.remap(plan.z), rebuild.remap(plan.u), inner);
}

}  // namespace

std::size_t pass_majority(Mig& mig) {
  if (!mig.has_dead_gates()) {
    return 0;
  }
  const auto before = mig.num_gates();
  mig = mig.cleanup();
  return before - mig.num_gates();
}

std::size_t pass_distributivity_rl(Mig& mig) {
  struct Plan {
    Signal x, y, u, v, z;
  };
  const auto fanouts = mig.fanout_counts();
  const auto match = [&](std::uint32_t gate, Plans<Plan>& plans) {
    const auto& fanin = mig.fanins(gate);
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        const auto si = fanin[i];
        const auto sj = fanin[j];
        const auto gi = si.index();
        const auto gj = sj.index();
        if (!mig.is_gate(gi) || !mig.is_gate(gj) || gi == gj) {
          continue;
        }
        if (si.is_complemented() != sj.is_complemented()) {
          continue;
        }
        if (fanouts[gi] != 1 || fanouts[gj] != 1 || plans.claimed(gi) ||
            plans.claimed(gj)) {
          continue;
        }
        const bool flip = si.is_complemented();
        std::array<Signal, 3> effective_i{};
        std::array<Signal, 3> effective_j{};
        for (int k = 0; k < 3; ++k) {
          effective_i[k] = mig.fanins(gi)[k] ^ flip;
          effective_j[k] = mig.fanins(gj)[k] ^ flip;
        }
        // Intersect the effective fanin sets (each holds 3 distinct signals,
        // and the two sets differ, so at most 2 are common).
        std::array<Signal, 2> common{};
        std::size_t num_common = 0;
        std::optional<Signal> only_i;
        std::optional<Signal> only_j;
        for (const auto s : effective_i) {
          if (std::find(effective_j.begin(), effective_j.end(), s) != effective_j.end()) {
            common[num_common++] = s;
          } else {
            only_i = s;
          }
        }
        if (num_common != 2 || !only_i) {
          continue;
        }
        for (const auto s : effective_j) {
          if (std::find(effective_i.begin(), effective_i.end(), s) == effective_i.end()) {
            only_j = s;
          }
        }
        assert(only_j);
        const auto z = fanin[3 - i - j];
        plans.add(gate, Plan{common[0], common[1], *only_i, *only_j, z}, {gi, gj});
        return;
      }
    }
  };
  const auto apply = [](Rebuilder& rebuild, const Plan& plan) {
    auto& fresh = rebuild.fresh();
    const auto inner = fresh.create_maj(rebuild.remap(plan.u), rebuild.remap(plan.v),
                                        rebuild.remap(plan.z));
    return fresh.create_maj(rebuild.remap(plan.x), rebuild.remap(plan.y), inner);
  };
  return plan_and_rebuild<Plan>(mig, match, apply);
}

std::size_t pass_associativity(Mig& mig) {
  const auto fanouts = mig.fanout_counts();
  const auto match = [&](std::uint32_t gate, Plans<SwapPlan>& plans) {
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || plans.claimed(child)) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      for (int uo = 0; uo < 2; ++uo) {
        const auto u = outer_rest[uo];
        const auto x = outer_rest[1 - uo];
        const auto inner_rest = others(mig.fanins(child), u);
        if (!inner_rest) {
          continue;
        }
        for (int zo = 0; zo < 2; ++zo) {
          const auto z = (*inner_rest)[zo];  // moved out
          const auto y = (*inner_rest)[1 - zo];
          // A strash hit only helps when it shares an *existing* gate — a hit
          // on the inner gate being rewritten is a degenerate no-op match.
          const auto hit = mig.find_maj(y, u, x);
          const bool shares = hit && hit->index() != child;
          if (triple_simplifies(y, u, x) || shares) {
            plans.add(gate, SwapPlan{y, u, x, z}, {child});
            return;
          }
        }
      }
    }
  };
  return plan_and_rebuild<SwapPlan>(mig, match, apply_swap);
}

std::size_t pass_comp_assoc(Mig& mig) {
  struct Plan {
    Signal x, u;                  // outer fanins kept
    std::array<Signal, 3> inner;  // new inner fanins (x̄ replaced by u)
  };
  const auto fanouts = mig.fanout_counts();
  const auto match = [&](std::uint32_t gate, Plans<Plan>& plans) {
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || plans.claimed(child)) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      const auto& inner = mig.fanins(child);
      for (int xo = 0; xo < 2; ++xo) {
        const auto x = outer_rest[xo];
        const auto u = outer_rest[1 - xo];
        const auto complement_of_x = std::find(inner.begin(), inner.end(), !x);
        if (complement_of_x == inner.end()) {
          continue;
        }
        std::array<Signal, 3> replaced = inner;
        replaced[static_cast<std::size_t>(complement_of_x - inner.begin())] = u;
        const auto hit = mig.find_maj(replaced[0], replaced[1], replaced[2]);
        const bool exists = hit && hit->index() != child;
        const bool fewer_complements =
            noncost_complements(replaced) < noncost_complements(inner);
        if (exists || fewer_complements) {
          plans.add(gate, Plan{x, u, replaced}, {child});
          return;
        }
      }
    }
  };
  const auto apply = [](Rebuilder& rebuild, const Plan& plan) {
    auto& fresh = rebuild.fresh();
    const auto inner =
        fresh.create_maj(rebuild.remap(plan.inner[0]), rebuild.remap(plan.inner[1]),
                         rebuild.remap(plan.inner[2]));
    return fresh.create_maj(rebuild.remap(plan.x), rebuild.remap(plan.u), inner);
  };
  return plan_and_rebuild<Plan>(mig, match, apply);
}

namespace {

/// Ω.I flip of every gate with at least `min_complements` complemented
/// non-constant fanins, seen through the rebuild map (so flips cascade).
/// With no such gate in the input the map stays the identity and nothing
/// fires, which is why the scan over the stored complement counts suffices.
std::size_t flip_pass(Mig& mig, int min_complements) {
  const Liveness live(mig);
  if (!live.any_dead()) {
    bool any = false;
    for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes() && !any; ++gate) {
      any = mig.complement_count(gate) >= min_complements;
    }
    if (!any) {
      return 0;
    }
  }
  Rebuilder rebuild(mig);
  std::size_t applications = 0;
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!live(gate)) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    const std::array<Signal, 3> mapped{rebuild.remap(fanin[0]), rebuild.remap(fanin[1]),
                                       rebuild.remap(fanin[2])};
    if (noncost_complements(mapped) >= min_complements) {
      // ⟨x̄ȳz̄⟩ = ¬⟨xyz⟩ — flip all three fanins, complement the output; the
      // complement cascades to fanouts through the rebuild map.
      const auto flipped =
          rebuild.fresh().create_maj(!mapped[0], !mapped[1], !mapped[2]);
      rebuild.set_map(gate, !flipped);
      ++applications;
    } else {
      rebuild.set_map(gate,
                      rebuild.fresh().create_maj(mapped[0], mapped[1], mapped[2]));
    }
  }
  mig = rebuild.finish();
  return applications;
}

}  // namespace

std::size_t pass_inv_reduce(Mig& mig) { return flip_pass(mig, 2); }

std::size_t pass_inv_three(Mig& mig) { return flip_pass(mig, 3); }

std::size_t pass_level_balance(Mig& mig) {
  const auto fanouts = mig.fanout_counts();
  const auto levels = mig.levels();
  const auto match = [&](std::uint32_t gate, Plans<SwapPlan>& plans) {
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || plans.claimed(child)) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      for (int uo = 0; uo < 2; ++uo) {
        const auto u = outer_rest[uo];
        const auto x = outer_rest[1 - uo];
        const auto inner_rest = others(mig.fanins(child), u);
        if (!inner_rest) {
          continue;
        }
        // Move the deeper inner operand out when it beats the outer one:
        // its path through this cone shortens by one level.
        const auto& rest = *inner_rest;
        const auto deeper = levels[rest[0].index()] >= levels[rest[1].index()] ? 0 : 1;
        const auto z = rest[deeper];
        const auto y = rest[1 - deeper];
        if (levels[z.index()] > levels[x.index()]) {
          plans.add(gate, SwapPlan{y, u, x, z}, {child});
          return;
        }
      }
    }
  };
  return plan_and_rebuild<SwapPlan>(mig, match, apply_swap);
}

}  // namespace rlim::mig
