#include "core/estimate.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rsp::core {

int longest_mult_chain(const sched::ConfigurationContext& context) {
  // DP over ops in index order (operands reference earlier indices).
  const auto& ops = context.ops();
  std::vector<int> depth(ops.size(), 0);
  int best = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    int in_depth = 0;
    for (const sched::ProgOperand& o : ops[i].operands) {
      if (o.is_imm()) continue;
      in_depth = std::max(in_depth, depth[static_cast<std::size_t>(o.producer)]);
    }
    depth[i] = in_depth + (ir::is_critical_op(ops[i].kind) ? 1 : 0);
    best = std::max(best, depth[i]);
  }
  return best;
}

namespace {

/// Maximum number of one cycle's multiplications the row/column unit pools
/// can serve: a bipartite b-matching (Kuhn's augmenting paths) where the
/// site at PE(r,c) may take a unit of row pool r or of column pool c. The
/// units of one pool are interchangeable, so the search walks pools (rows,
/// then columns, with their capacities) instead of individual units and
/// allocates nothing per visit. Exact, so the derived stall bound stays the
/// model's optimistic one.
int max_served(const std::vector<arch::PeCoord>& sites,
               const arch::Architecture& target) {
  const int rows = target.array.rows;
  const int upr = target.sharing.units_per_row;
  const int upc = target.sharing.units_per_col;
  const auto pools = static_cast<std::size_t>(rows + target.array.cols);
  std::vector<int> load(pools, 0);           // units taken per pool
  std::vector<std::size_t> seen(pools, 0);   // last search visiting a pool
  std::vector<int> owner(sites.size(), -1);  // pool serving each site
  std::size_t search = 0;

  const auto augment = [&](auto&& self, std::size_t m) -> bool {
    for (const int pool : {upr > 0 ? sites[m].row : -1,
                           upc > 0 ? rows + sites[m].col : -1}) {
      if (pool < 0 || seen[static_cast<std::size_t>(pool)] == search)
        continue;
      seen[static_cast<std::size_t>(pool)] = search;
      if (load[static_cast<std::size_t>(pool)] < (pool < rows ? upr : upc)) {
        ++load[static_cast<std::size_t>(pool)];
        owner[m] = pool;
        return true;
      }
      // Full: succeed if one occupant can move to its other pool.
      for (std::size_t o = 0; o < sites.size(); ++o)
        if (owner[o] == pool && self(self, o)) {
          owner[m] = pool;
          return true;
        }
    }
    return false;
  };
  int served = 0;
  for (std::size_t m = 0; m < sites.size(); ++m) {
    ++search;
    if (augment(augment, m)) ++served;
  }
  return served;
}

}  // namespace

EstimateProfile make_estimate_profile(
    const sched::ConfigurationContext& base_context) {
  if (base_context.architecture().shares_multiplier())
    throw InvalidArgumentError(
        "estimate_performance expects the base-architecture context");

  EstimateProfile profile;
  profile.array = base_context.architecture().array;
  profile.base_length = base_context.length();
  profile.longest_mult_chain = longest_mult_chain(base_context);

  // Multiplication sites by (cycle, PE): each cycle's sites end up
  // contiguous and sorted, which makes equal cycle patterns equal vectors.
  std::vector<std::pair<int, arch::PeCoord>> sites;
  for (const sched::ScheduledOp& op : base_context.ops())
    if (ir::is_critical_op(op.kind)) sites.emplace_back(op.cycle, op.pe);
  std::sort(sites.begin(), sites.end());

  const auto append = [&profile](int pattern, int length) {
    if (!profile.runs.empty() && profile.runs.back().pattern == pattern)
      profile.runs.back().length += length;
    else
      profile.runs.push_back({pattern, length});
  };
  std::map<std::vector<arch::PeCoord>, int> pattern_ids;
  std::vector<arch::PeCoord> cycle_sites;
  std::vector<int> per_col(static_cast<std::size_t>(profile.array.cols));
  int next_cycle = 0;  // first cycle no run covers yet
  for (std::size_t i = 0; i < sites.size();) {
    const int cycle = sites[i].first;
    cycle_sites.clear();
    for (; i < sites.size() && sites[i].first == cycle; ++i)
      cycle_sites.push_back(sites[i].second);
    if (cycle > next_cycle) append(-1, cycle - next_cycle);

    auto it = pattern_ids.find(cycle_sites);
    if (it == pattern_ids.end()) {
      it = pattern_ids
               .emplace(cycle_sites, static_cast<int>(profile.patterns.size()))
               .first;
      EstimateProfile::Pattern pattern;
      std::fill(per_col.begin(), per_col.end(), 0);
      int row_run = 0;
      for (std::size_t s = 0; s < cycle_sites.size(); ++s) {
        // Sorted by row first, so one row's sites are adjacent.
        row_run = s > 0 && cycle_sites[s - 1].row == cycle_sites[s].row
                      ? row_run + 1
                      : 1;
        pattern.max_row_sites = std::max(pattern.max_row_sites, row_run);
        pattern.max_col_sites =
            std::max(pattern.max_col_sites,
                     ++per_col[static_cast<std::size_t>(cycle_sites[s].col)]);
      }
      pattern.sites = cycle_sites;
      profile.patterns.push_back(std::move(pattern));
    }
    append(it->second, 1);
    next_cycle = cycle + 1;
  }
  if (profile.base_length > next_cycle)
    append(-1, profile.base_length - next_cycle);
  return profile;
}

PerfEstimate estimate_performance(const EstimateProfile& profile,
                                  const arch::Architecture& target) {
  if (profile.array != target.array)
    throw InvalidArgumentError("array geometries differ");

  PerfEstimate est;
  est.base_cycles = profile.base_length;

  if (target.shares_multiplier()) {
    const int capacity = target.sharing.total_units(target.array);
    RSP_ASSERT(capacity > 0);
    const int upr = target.sharing.units_per_row;
    const int upc = target.sharing.units_per_col;

    // Demand minus what the unit pools can reach, once per distinct
    // pattern. A pattern no row (or no column) oversubscribes fits whole.
    std::vector<int> unserved(profile.patterns.size(), 0);
    for (std::size_t p = 0; p < profile.patterns.size(); ++p) {
      const EstimateProfile::Pattern& pattern = profile.patterns[p];
      if (pattern.max_row_sites > upr && pattern.max_col_sites > upc)
        unserved[p] = static_cast<int>(pattern.sites.size()) -
                      max_served(pattern.sites, target);
    }

    // Backlog model: each cycle serves what the unit pools can reach; the
    // surplus queues and may drain into later spare capacity. Only the
    // final backlog forces extra cycles. Dependences and operand routing
    // are ignored. A run of L equal cycles applies one cycle's update L
    // times, which has a closed form: with no spare capacity the backlog
    // grows by L·surplus; otherwise each cycle adds surplus − spare and
    // clamps at zero, and a constant step clamps at most once at the end.
    long backlog = 0;
    for (const EstimateProfile::Run& run : profile.runs) {
      const int demand =
          run.pattern < 0
              ? 0
              : static_cast<int>(
                    profile.patterns[static_cast<std::size_t>(run.pattern)]
                        .sites.size());
      const long surplus =
          run.pattern < 0 ? 0 : unserved[static_cast<std::size_t>(run.pattern)];
      const long length = run.length;
      if (demand >= capacity)
        backlog += length * surplus;
      else
        backlog = std::max<long>(
            0, backlog + length * (surplus - (capacity - demand)));
    }
    est.rs_stall_bound = static_cast<int>((backlog + capacity - 1) / capacity);
  }
  if (target.pipelines_multiplier()) {
    est.rp_overhead =
        (target.sharing.pipeline_stages - 1) * profile.longest_mult_chain;
  }
  return est;
}

PerfEstimate estimate_performance(
    const sched::ConfigurationContext& base_context,
    const arch::Architecture& target) {
  return estimate_performance(make_estimate_profile(base_context), target);
}

}  // namespace rsp::core
