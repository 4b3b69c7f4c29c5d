// Fast performance estimate used inside the RSP exploration loop (paper
// §4): instead of fully rescheduling every candidate, count per cycle how
// many critical operations the *initial* (base) context issues and compare
// with the candidate's shared-unit capacity (RS stall bound), and account
// for the extra latency of pipelined multiplications along the longest
// multiplication chain (RP stall bound). The paper calls this "an upper
// bound of the performance", i.e. an optimistic cycle count, and the exact
// number comes from full rescheduling afterwards.
//
// The optimism is a property of the paper's model, not a guarantee of this
// implementation: the estimate ignores dependences and routing, but the
// exact step reschedules with a greedy list scheduler, which can beat the
// base schedule's pattern. On the paper suite estimate <= exact holds for
// every standard architecture; on generated kernels it can fail (e.g.
// gen:10891816 on 0 row + 1 column unit, 1 stage: estimate 106 cycles,
// exact 92). The estimate only filters candidates (the step-3 reject checks
// and the ε-relaxed Pareto filter); survivors are measured exactly.
//
// The work splits in two. `make_estimate_profile` runs once per kernel and
// keeps everything that does not depend on the target: the base length,
// the longest multiplication chain, the distinct per-cycle sets of
// multiplication sites, and the cycle sequence run-length encoded over
// those sets. `estimate_performance(profile, target)` then costs one
// bipartite matching per distinct set plus O(1) per run — a
// modulo-scheduled loop repeats a handful of cycle patterns, so a design
// point no longer pays per base cycle.
#pragma once

#include <vector>

#include "arch/presets.hpp"
#include "sched/context.hpp"

namespace rsp::core {

struct PerfEstimate {
  int base_cycles = 0;
  int rs_stall_bound = 0;   ///< extra cycles from lacking shared units
  int rp_overhead = 0;      ///< extra cycles from multi-cycle multiplication
  int estimated_cycles() const {
    return base_cycles + rs_stall_bound + rp_overhead;
  }
};

/// The target-independent half of the estimate for one base context.
struct EstimateProfile {
  /// One distinct set of multiplication sites issued in a single cycle.
  struct Pattern {
    std::vector<arch::PeCoord> sites;  ///< sorted; repeats allowed
    int max_row_sites = 0;             ///< sites in the busiest row
    int max_col_sites = 0;             ///< sites in the busiest column
  };
  /// `length` consecutive base cycles issuing `pattern`'s sites
  /// (-1: no multiplications).
  struct Run {
    int pattern = -1;
    int length = 0;
  };

  arch::ArraySpec array;
  int base_length = 0;
  int longest_mult_chain = 0;
  std::vector<Pattern> patterns;
  std::vector<Run> runs;  ///< cover cycles [0, base_length) in order
};

/// Builds the profile of a base-architecture context. Throws
/// InvalidArgumentError when `base_context` shares its multipliers.
EstimateProfile make_estimate_profile(
    const sched::ConfigurationContext& base_context);

/// Estimates the cycle count of `target` from a base-context profile
/// without rescheduling. `target` must share the profile's array geometry.
PerfEstimate estimate_performance(const EstimateProfile& profile,
                                  const arch::Architecture& target);

/// Convenience overload: profiles `base_context` and estimates once.
PerfEstimate estimate_performance(const sched::ConfigurationContext& base_context,
                                  const arch::Architecture& target);

/// Longest chain of dependent multiplications in the context (the RP
/// overhead multiplies this by stages-1).
int longest_mult_chain(const sched::ConfigurationContext& context);

}  // namespace rsp::core
