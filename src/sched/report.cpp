#include "sched/report.hpp"

namespace rsp::sched {

ScheduleStats stats_of(const ConfigurationContext& context) {
  ScheduleStats s;
  s.length = context.length();
  s.mult_histogram = context.critical_issues_per_cycle();
  s.max_mults_per_cycle = context.max_critical_issues_per_cycle();
  s.total_ops = context.size();
  for (const ScheduledOp& op : context.ops())
    if (ir::is_critical_op(op.kind)) ++s.total_mults;
  return s;
}

PerfPoint perf_point(int cycles, const ContextScheduler& scheduler,
                     const PlacedProgram& program,
                     const arch::Architecture& architecture) {
  PerfPoint p;
  p.cycles = cycles;
  if (!architecture.shares_multiplier()) {
    p.nostall_cycles = p.cycles;
    p.stalls = 0;
    return p;
  }
  // Racing first uses compute and store the same value.
  std::atomic<int>& memo = program.free_run_memo(architecture.mult_latency());
  p.nostall_cycles = memo.load(std::memory_order_relaxed);
  if (p.nostall_cycles < 0) {
    p.nostall_cycles =
        scheduler.schedule_length(program, unlimited_units(architecture))
            .length;
    memo.store(p.nostall_cycles, std::memory_order_relaxed);
  }
  p.stalls = p.cycles - p.nostall_cycles;
  return p;
}

PerfPoint measure(const ContextScheduler& scheduler,
                  const PlacedProgram& program,
                  const arch::Architecture& architecture) {
  return perf_point(scheduler.schedule_length(program, architecture).length,
                    scheduler, program, architecture);
}

}  // namespace rsp::sched
