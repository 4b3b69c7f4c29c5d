// Schedule statistics: lengths, stalls and multiplier pressure.
#pragma once

#include <vector>

#include "sched/context.hpp"
#include "sched/program.hpp"
#include "sched/scheduler.hpp"

namespace rsp::sched {

struct ScheduleStats {
  int length = 0;                 ///< cycles
  int max_mults_per_cycle = 0;    ///< Table 3 "Mult No"
  std::int64_t total_mults = 0;
  std::int64_t total_ops = 0;
  std::vector<int> mult_histogram;  ///< mult issues per cycle
};

ScheduleStats stats_of(const ConfigurationContext& context);

/// Cycles and stall decomposition of one (program, architecture) pair.
///
/// `stalls` follows the paper's accounting: the difference between the
/// schedule under the real unit counts and the schedule under the same
/// pipelining with unlimited units. For the base architecture it is 0 by
/// definition; for RS it equals cycles − base cycles; for RSP the pipeline
/// stretching is part of `cycles` but not of `stalls`.
struct PerfPoint {
  int cycles = 0;
  int stalls = 0;
  int nostall_cycles = 0;  ///< schedule length with unlimited units
};

/// The PerfPoint of a pair whose real schedule on `architecture` already
/// ran and is `cycles` long. When the multiplier is shared, the free run —
/// the schedule length on unlimited_units(architecture) — comes from the
/// program's memo for architecture.mult_latency(), measured length-only on
/// first use. Unlimited units never stall an issue (see unlimited_units),
/// so the free run depends only on the program and the latency, never on
/// the unit counts: every design point of one pipeline depth shares it.
PerfPoint perf_point(int cycles, const ContextScheduler& scheduler,
                     const PlacedProgram& program,
                     const arch::Architecture& architecture);

/// Measures a pair with a length-only schedule (see perf_point).
PerfPoint measure(const ContextScheduler& scheduler,
                  const PlacedProgram& program,
                  const arch::Architecture& architecture);

}  // namespace rsp::sched
