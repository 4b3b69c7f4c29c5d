// Context scheduler: resource-constrained list scheduling of a placed
// program on a concrete architecture. This single pass realises:
//
//   * the base configuration context (base architecture: every PE owns a
//     multiplier, nothing to contend for except PEs and data buses);
//   * the paper's RS rearrangement rule — "shared resources are assigned to
//     PEs in the order of loop iteration; if shared resources lack, the
//     operations in later loop iterations are moved to the next cycle" —
//     via priority-ordered greedy unit assignment;
//   * the paper's RP rearrangement rule — "operations dependent on the
//     output of pipelined resources stall together; overlapped cycles of
//     consecutive pipelined operations are removed" — via the multi-cycle
//     multiplier latency and the units' one-issue-per-cycle pipelining.
//
// Resources modelled per cycle: one op per PE, `read_buses_per_row` loads
// and `write_buses_per_row` stores per row, and one issue per shared
// multiplier unit.
//
// One first-fit loop serves two entry points: `schedule` builds the full
// ConfigurationContext, `schedule_length` keeps only each op's issue cycle
// and latency and returns the two numbers step-5 measurement reads.
#pragma once

#include "arch/presets.hpp"
#include "sched/context.hpp"
#include "sched/program.hpp"

namespace rsp::sched {

struct SchedulerOptions {
  /// Safety valve: abort if a schedule exceeds this many cycles.
  int max_cycles = 1 << 20;
};

/// What a schedule's length-only run yields: the ConfigurationContext's
/// length() and max_critical_issues_per_cycle(), without the context.
struct ScheduleLength {
  int length = 0;
  int max_critical_issues = 0;
};

class ContextScheduler {
 public:
  explicit ContextScheduler(SchedulerOptions options = {})
      : options_(options) {}

  /// Schedules `program` on `architecture`.
  ConfigurationContext schedule(const PlacedProgram& program,
                                const arch::Architecture& architecture) const;

  /// The same schedule, measured only: equal to the length and peak
  /// critical issues of schedule(program, architecture), and throws what
  /// it throws, but builds no ScheduledOp.
  ScheduleLength schedule_length(const PlacedProgram& program,
                                 const arch::Architecture& architecture) const;

 private:
  /// The first-fit loop behind both entry points; fills `out` (one
  /// ScheduledOp per program op) when non-null.
  ScheduleLength run(const PlacedProgram& program,
                     const arch::Architecture& architecture,
                     std::vector<ScheduledOp>* out) const;

  SchedulerOptions options_;
};

/// The architecture with the same pipelining but effectively unlimited
/// shared units (one per PE in each row pool), used as the stall-free
/// reference when counting RS stalls.
///
/// Its unit check never binds: a row issues at most `cols` multiplications
/// per cycle (one per PE) and its pool holds `cols` units that every PE of
/// the row reaches. A program's schedule on it therefore depends only on
/// the program and mult_latency() — not on the real unit counts — which is
/// what lets each program memoize its free runs per latency
/// (PlacedProgram::free_run_memo, filled by sched::perf_point).
arch::Architecture unlimited_units(const arch::Architecture& a);

}  // namespace rsp::sched
