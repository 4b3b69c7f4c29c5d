// RSP evaluation: cycles, stalls, execution time and delay reduction of a
// placed program across architectures — the machinery behind the paper's
// Tables 4 and 5:
//   ET(ns) = cycles × system clock period
//   DR(%)  = 100 · (ET_base − ET) / ET_base
//   stalls = cycles − cycles(same pipelining, unlimited units)
#pragma once

#include <string>
#include <vector>

#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "synth/synthesis.hpp"

namespace rsp::core {

struct EvalResult {
  std::string arch_name;
  int cycles = 0;
  int stalls = 0;            ///< RS-style stalls (resource lack)
  double clock_ns = 0.0;
  double execution_time_ns = 0.0;
  double delay_reduction_percent = 0.0;  ///< vs the base architecture
  int max_mults_per_cycle = 0;           ///< measured on this context
};

/// Scheduling-only measurement of one (program, architecture) pair.
struct MeasuredPerf {
  sched::PerfPoint perf;
  int max_critical_issues = 0;  ///< peak critical-resource issues per cycle
};

/// Measures a pair with a single length-only schedule serving both the
/// PerfPoint and the issue-width column, plus the program's memoized free
/// run (sched::perf_point). Shared by the serial evaluator and
/// runtime::ParallelExplorer so the two paths cannot drift.
MeasuredPerf measure_perf(const sched::ContextScheduler& scheduler,
                          const sched::PlacedProgram& program,
                          const arch::Architecture& architecture);

/// Assembles the EvalResult row (delay reduction left 0) from a
/// measurement — the single definition of the row's derived fields.
EvalResult make_eval_result(const arch::Architecture& architecture,
                            const MeasuredPerf& measured, double clock_ns);

class RspEvaluator {
 public:
  explicit RspEvaluator(synth::SynthesisModel synth = synth::SynthesisModel(),
                        sched::SchedulerOptions options = {})
      : synth_(std::move(synth)), scheduler_(options) {}

  const synth::SynthesisModel& synthesis() const { return synth_; }
  const sched::ContextScheduler& scheduler() const { return scheduler_; }

  /// Evaluates one architecture. `base_et_ns` <= 0 means "this is the base";
  /// pass the base's ET to fill the delay-reduction column.
  EvalResult evaluate(const sched::PlacedProgram& program,
                      const arch::Architecture& architecture,
                      double base_et_ns = 0.0) const;

  /// Evaluates one architecture without the delay-reduction column. Rows
  /// produced this way are position-independent, so parallel runtimes can
  /// compute them in any order and fill the column afterwards with
  /// `apply_delay_reductions` — bit-identical to the serial path.
  EvalResult evaluate_raw(const sched::PlacedProgram& program,
                          const arch::Architecture& architecture) const;

  /// Fills `delay_reduction_percent` of rows[1..] against rows[0] (the
  /// base); rows[0] keeps 0. Uses the exact formula of `evaluate`.
  static void apply_delay_reductions(std::vector<EvalResult>& rows);

  /// Evaluates the whole suite; the first entry must be the base
  /// architecture (delay reductions are computed against it).
  std::vector<EvalResult> evaluate_suite(
      const sched::PlacedProgram& program,
      const std::vector<arch::Architecture>& suite) const;

 private:
  synth::SynthesisModel synth_;
  sched::ContextScheduler scheduler_;
};

}  // namespace rsp::core
