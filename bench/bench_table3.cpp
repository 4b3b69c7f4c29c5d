// Regenerates paper Table 3: kernel operation sets and the peak number of
// multiplications the mapped kernel issues in one cycle ("Mult No").
// Measured = statistics of our base-architecture configuration contexts.
#include <iostream>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "bench_common.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "synth/paper_reference.hpp"

int main() {
  using namespace rsp;
  bench::print_header("Table 3: kernels in the experiments (measured vs paper)");

  util::Table table(
      {"Kernel", "Iterations", "Operation set", "Mult/iter", "Mult No", "Paper Mult No"});
  util::CsvWriter csv({"kernel", "iterations", "op_set", "mults_per_iter",
                       "max_mults_per_cycle"});

  const sched::ContextScheduler scheduler;
  for (const kernels::Workload& w : kernels::paper_suite()) {
    const sched::LoopPipeliner mapper(w.array);
    const sched::PlacedProgram program =
        mapper.map(w.kernel, w.hints, w.reduction);
    const arch::Architecture base =
        arch::base_architecture(w.array.rows, w.array.cols);
    const sched::ConfigurationContext context =
        scheduler.schedule(program, base);
    analysis::require_legal(context);
    const sched::ScheduleStats stats = sched::stats_of(context);

    int paper_mult_no = -1;
    for (const auto& info : synth::paper::table3())
      if (info.kernel == w.name) paper_mult_no = info.max_mults_per_cycle;

    table.add_row({w.name, std::to_string(w.kernel.trip_count()),
                   w.kernel.op_set_string(),
                   std::to_string(w.kernel.mults_per_iteration()),
                   std::to_string(stats.max_mults_per_cycle),
                   paper_mult_no >= 0 ? std::to_string(paper_mult_no) : "-"});
    csv.add_row({w.name, std::to_string(w.kernel.trip_count()),
                 w.kernel.op_set_string(),
                 std::to_string(w.kernel.mults_per_iteration()),
                 std::to_string(stats.max_mults_per_cycle)});
  }

  std::cout << table.render();
  std::cout << "\nSAD is the multiplication-free kernel; 2D-FDCT has the"
               " highest multiplier pressure.\n";
  bench::maybe_write_csv(csv, "table3");
  return 0;
}
