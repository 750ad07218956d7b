#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"

namespace rlim::mig {

/// Bit-parallel MIG simulation: each node value is a 64-bit word, so one
/// pass evaluates 64 input patterns at once.

/// Simulates all nodes. `pi_values[i]` is the word for PI i.
/// Returns one word per node (index-aligned with the graph).
std::vector<std::uint64_t> simulate_nodes(const Mig& mig,
                                          std::span<const std::uint64_t> pi_values);

/// Simulates and extracts the PO words.
std::vector<std::uint64_t> simulate(const Mig& mig,
                                    std::span<const std::uint64_t> pi_values);

/// simulate() into caller-owned scratch: `node_values` is resized to
/// num_nodes() and `po_values` to num_pos(), so buffers reused across calls
/// allocate only on the first one.
void simulate_into(const Mig& mig, std::span<const std::uint64_t> pi_values,
                   std::vector<std::uint64_t>& node_values,
                   std::vector<std::uint64_t>& po_values);

/// PI word patterns for exhaustive simulation: chunk `chunk` of variable `pi`
/// out of 2^num_pis rows, 64 rows per chunk. Variables 0..5 use the classic
/// alternating masks; higher variables are constant per chunk.
std::uint64_t exhaustive_pattern(std::uint32_t pi, std::uint64_t chunk);

/// Monte-Carlo equivalence check with `rounds` random 64-pattern words.
/// Both graphs must have the same PI/PO profile (else returns false).
bool equivalent_random(const Mig& a, const Mig& b, unsigned rounds,
                       std::uint64_t seed);

/// Exhaustive equivalence check; requires num_pis() <= max_pis (default 16).
/// Throws rlim::Error when the graphs are too large.
bool equivalent_exhaustive(const Mig& a, const Mig& b, std::uint32_t max_pis = 16);

/// Truth table of PO `po` for graphs with <= 6 PIs, packed in one word
/// (row r = bit r).
std::uint64_t truth_table(const Mig& mig, std::uint32_t po);

/// Order-independent simulation signature over `rounds` random words:
/// useful as a cheap regression fingerprint of the implemented function.
std::uint64_t simulation_signature(const Mig& mig, unsigned rounds,
                                   std::uint64_t seed);

}  // namespace rlim::mig
