#include "mig/rewriting.hpp"

#include <chrono>
#include <functional>
#include <span>

#include "mig/axioms.hpp"
#include "util/enum_names.hpp"
#include "util/error.hpp"

namespace rlim::mig {

namespace {

constexpr util::EnumTable kRewriteKindNames{
    std::string_view("rewrite kind"),
    std::array{
        util::EnumName<RewriteKind>{RewriteKind::None, "none"},
        util::EnumName<RewriteKind>{RewriteKind::Plim21, "plim21"},
        util::EnumName<RewriteKind>{RewriteKind::Endurance, "endurance"},
        util::EnumName<RewriteKind>{RewriteKind::LevelBalanced,
                                    "level-balanced"},
        // Registry-key spelling accepted as a parse alias.
        util::EnumName<RewriteKind>{RewriteKind::LevelBalanced,
                                    "level_balanced"},
    }};

}  // namespace

std::string to_string(RewriteKind kind) {
  return std::string(kRewriteKindNames.name(kind));
}

RewriteKind parse_rewrite_kind(std::string_view name) {
  return kRewriteKindNames.parse(name);
}

namespace {

/// One pipeline position of an enum-era flow: the axiom pass plus the key it
/// shares with the rlim::pass registry, so per-pass telemetry and the seq
/// aliases name the steps identically.
struct FlowStep {
  std::string_view name;
  std::size_t (*fn)(Mig&);
};

constexpr FlowStep kMaj{"maj", pass_majority};
constexpr FlowStep kDist{"dist", pass_distributivity_rl};
constexpr FlowStep kAssoc{"assoc", pass_associativity};
constexpr FlowStep kComp{"comp", pass_comp_assoc};
constexpr FlowStep kInv{"inv", pass_inv_reduce};
constexpr FlowStep kInvThree{"inv3", pass_inv_three};
constexpr FlowStep kRelief{"relief", pass_level_balance};

Mig run_flow(const Mig& mig, std::span<const FlowStep> steps, int effort,
             RewriteStats* stats) {
  require(effort >= 0, "rewrite: effort must be non-negative");
  RewriteStats local;
  local.initial_gates = mig.num_gates();
  local.initial_complement_edges = mig.complement_edge_count();
  local.per_pass.resize(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    local.per_pass[i].name = steps[i].name;
  }

  Mig current = mig.cleanup();
  for (int cycle = 0; cycle < effort; ++cycle) {
    std::size_t cycle_applications = 0;
    const auto gates_before = current.num_gates();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      auto& slot = local.per_pass[i];
      const auto pass_gates = current.num_gates();
      const auto pass_edges = current.complement_edge_count();
      const auto pass_depth = current.depth();
      const auto started = std::chrono::steady_clock::now();
      const auto applications = steps[i].fn(current);
      const auto finished = std::chrono::steady_clock::now();
      cycle_applications += applications;
      ++slot.runs;
      slot.applications += applications;
      slot.gate_delta += static_cast<std::int64_t>(current.num_gates()) -
                         static_cast<std::int64_t>(pass_gates);
      slot.complement_delta +=
          static_cast<std::int64_t>(current.complement_edge_count()) -
          static_cast<std::int64_t>(pass_edges);
      slot.depth_delta += static_cast<std::int64_t>(current.depth()) -
                          static_cast<std::int64_t>(pass_depth);
      slot.wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                               started)
              .count());
    }
    ++local.cycles_run;
    local.total_applications += cycle_applications;
    if (cycle_applications == 0 && current.num_gates() == gates_before) {
      break;  // fixpoint: further cycles cannot change the graph
    }
  }

  local.final_gates = current.num_gates();
  local.final_complement_edges = current.complement_edge_count();
  if (stats != nullptr) {
    *stats = std::move(local);
  }
  return current;
}

constexpr FlowStep kPlim21Flow[] = {
    kMaj, kDist,         // step 2
    kAssoc, kComp,       // step 3
    kMaj, kDist,         // step 4
    kInv,                // step 5
    kInvThree,           // step 6
};

constexpr FlowStep kEnduranceFlow[] = {
    kMaj, kDist,         // step 2
    kInv,                // step 3
    kInvThree,           // step 4
    kAssoc,              // step 5
    kInv,                // step 6
    kInvThree,           // step 7
    kMaj, kDist,         // step 8
    kInvThree,           // step 9
};

constexpr FlowStep kLevelBalancedFlow[] = {
    kMaj, kDist,
    kInv, kInvThree,
    kRelief,             // §III-B.4 objective
    kInv, kInvThree,
    kMaj, kDist,
    kInvThree,
};

template <std::size_t N>
constexpr std::array<std::string_view, N> step_names(
    const FlowStep (&steps)[N]) {
  std::array<std::string_view, N> names{};
  for (std::size_t i = 0; i < N; ++i) {
    names[i] = steps[i].name;
  }
  return names;
}

constexpr auto kPlim21Names = step_names(kPlim21Flow);
constexpr auto kEnduranceNames = step_names(kEnduranceFlow);
constexpr auto kLevelBalancedNames = step_names(kLevelBalancedFlow);

}  // namespace

std::span<const std::string_view> flow_pass_keys(RewriteKind kind) {
  switch (kind) {
    case RewriteKind::None: return {};
    case RewriteKind::Plim21: return kPlim21Names;
    case RewriteKind::Endurance: return kEnduranceNames;
    case RewriteKind::LevelBalanced: return kLevelBalancedNames;
  }
  throw Error("flow_pass_keys: unknown kind");
}

Mig rewrite_plim21(const Mig& mig, int effort, RewriteStats* stats) {
  return run_flow(mig, kPlim21Flow, effort, stats);
}

Mig rewrite_endurance(const Mig& mig, int effort, RewriteStats* stats) {
  return run_flow(mig, kEnduranceFlow, effort, stats);
}

Mig rewrite_level_balanced(const Mig& mig, int effort, RewriteStats* stats) {
  return run_flow(mig, kLevelBalancedFlow, effort, stats);
}

Mig rewrite(const Mig& mig, RewriteKind kind, int effort, RewriteStats* stats) {
  switch (kind) {
    case RewriteKind::None: {
      if (stats != nullptr) {
        *stats = RewriteStats{};
        stats->initial_gates = stats->final_gates = mig.num_gates();
        stats->initial_complement_edges = stats->final_complement_edges =
            mig.complement_edge_count();
      }
      return mig.cleanup();
    }
    case RewriteKind::Plim21:
      return rewrite_plim21(mig, effort, stats);
    case RewriteKind::Endurance:
      return rewrite_endurance(mig, effort, stats);
    case RewriteKind::LevelBalanced:
      return rewrite_level_balanced(mig, effort, stats);
  }
  throw Error("rewrite: unknown kind");
}

namespace {

/// Shared by every effort-driven flow: read + validate the effort parameter,
/// bind it into a RewriteFn over the enum dispatch.
RewriteFactory effort_flow(RewriteKind kind) {
  return [kind](const util::Params& params) -> RewriteFn {
    const int effort = util::param_int(params, "effort");
    require(effort >= 0, "rewrite flow '" + std::string(rewrite_key(kind)) +
                             "': effort must be non-negative");
    return [kind, effort](const Mig& mig, RewriteStats* stats) {
      return rewrite(mig, kind, effort, stats);
    };
  };
}

}  // namespace

util::Registry<RewriteFactory>& rewrites() {
  static auto* registry = [] {
    auto* reg = new util::Registry<RewriteFactory>("rewrite flow");
    const util::ParamInfo effort{"effort", "5",
                                 "rewriting cycles before the fixpoint check"};
    reg->add({"none", "compile the MIG as constructed (cleanup only)", {}},
             [](const util::Params&) -> RewriteFn {
               return [](const Mig& mig, RewriteStats* stats) {
                 return rewrite(mig, RewriteKind::None, 0, stats);
               };
             });
    reg->add({"plim21",
              "paper Algorithm 1 — the original PLiM compiler flow [21]",
              {effort}},
             effort_flow(RewriteKind::Plim21));
    reg->add({"endurance", "paper Algorithm 2 — endurance-aware rewriting",
              {effort}},
             effort_flow(RewriteKind::Endurance));
    reg->add({"level_balanced",
              "Algorithm 2 + level balancing (the paper's §III-B.4 direction)",
              {effort}},
             effort_flow(RewriteKind::LevelBalanced));
    return reg;
  }();
  return *registry;
}

RewriteFn make_rewrite(const util::PolicySpec& spec) {
  return rewrites().make(spec);
}

std::string_view rewrite_key(RewriteKind kind) {
  switch (kind) {
    case RewriteKind::None: return "none";
    case RewriteKind::Plim21: return "plim21";
    case RewriteKind::Endurance: return "endurance";
    case RewriteKind::LevelBalanced: return "level_balanced";
  }
  throw Error("rewrite_key: unknown kind");
}

}  // namespace rlim::mig
