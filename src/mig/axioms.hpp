#pragma once

#include <cstddef>

#include "mig/mig.hpp"

namespace rlim::mig {

// Every axiom pass rewrites its graph in place and returns the number of rule
// firings. A pass first finds its candidates. When nothing fires and the
// graph has no dead gates, it leaves the graph untouched: every stored gate
// already has sorted, non-trivial, strashed fanins, so rebuilding it would
// give back the same graph. Otherwise the pass rebuilds the graph, dropping
// dead logic. All passes are equivalence-preserving by construction; the
// property test suite re-verifies this by simulation.

/// Ω.M — dead-gate removal plus re-strashing. `create_maj` already applies
/// the trivial Ω.M rules (duplicate and complementary fanin pairs, constant
/// folding) when a gate is built, so no stored gate can simplify further:
/// this pass is exactly `Mig::cleanup()` and returns the number of dead gates
/// removed (0 on a graph without dead gates, which it leaves untouched).
std::size_t pass_majority(Mig& mig);

/// Ω.D (right→left) — ⟨⟨xyu⟩⟨xyv⟩z⟩ → ⟨xy⟨uvz⟩⟩ when the two child gates
/// share exactly two (effective) fanins and are both single-fanout; saves one
/// gate per firing. The both-children-complemented variant is matched through
/// the Ω.I flip of the childrens' effective fanins.
std::size_t pass_distributivity_rl(Mig& mig);

/// Ω.A — ⟨xu⟨yuz⟩⟩ = ⟨zu⟨yux⟩⟩, applied when the swapped inner gate
/// simplifies trivially or already exists (sharing); reshapes the graph and
/// exposes further Ω.M / Ω.D reductions.
std::size_t pass_associativity(Mig& mig);

/// Ψ.C (complementary associativity) — ⟨x u ⟨y x̄ z⟩⟩ = ⟨x u ⟨y u z⟩⟩,
/// applied when the new inner gate already exists or when it lowers the
/// inner gate's complemented-fanin count. Part of the original PLiM flow
/// (Algorithm 1) only — the endurance-aware flow drops it because removing a
/// *single* complemented edge destroys the RM3-ideal pattern.
std::size_t pass_comp_assoc(Mig& mig);

/// Ω.I (right→left, variants 1–3) [19] — gates with two or three
/// complemented non-constant fanins are flipped (⟨x̄ȳz̄⟩ = ¬⟨xyz⟩ and the
/// 2-complement corollaries), pushing the complement to the fanout edges and
/// normalizing toward the RM3-ideal of at most one complemented fanin.
std::size_t pass_inv_reduce(Mig& mig);

/// Ω.I (right→left) — only the fully complemented case ⟨x̄ȳz̄⟩ → ¬⟨xyz⟩
/// ("costly nodes with three inverted children", paper Algorithm 2 step 9).
std::size_t pass_inv_three(Mig& mig);

/// Level balancing via Ω.A — the paper's closing §III-B.4 suggestion
/// ("the issue of blocked RRAMs could be considered as an objective during
/// MIG rewriting to keep the level differences between connected nodes
/// low"): ⟨xu⟨yuz⟩⟩ → ⟨zu⟨yux⟩⟩ whenever the displaced inner operand z sits
/// deeper than the outer operand x, pulling deep operands up and shrinking
/// fanout level gaps. The paper predicts (and bench/ablation_level_rewriting
/// measures) that this trades instruction count for shorter storage
/// durations.
std::size_t pass_level_balance(Mig& mig);

}  // namespace rlim::mig
