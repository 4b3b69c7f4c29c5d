#include <gtest/gtest.h>

#include "analysis/verifier.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sched/steady_state.hpp"

namespace rsp::sched {
namespace {

ConfigurationContext context_for(const kernels::Workload& w,
                                 const arch::Architecture& a) {
  const LoopPipeliner mapper(w.array);
  const ContextScheduler scheduler;
  return scheduler.schedule(mapper.map(w.kernel, w.hints, w.reduction), a);
}

TEST(SteadyState, IiBoundedByLatency) {
  for (const auto& w : kernels::paper_suite()) {
    for (const arch::Architecture& a : arch::standard_suite()) {
      const SteadyState ss = analyze_steady_state(context_for(w, a));
      EXPECT_GE(ss.initiation_interval, 1) << w.name << " " << a.name;
      EXPECT_LE(ss.initiation_interval, ss.latency) << w.name << " " << a.name;
      EXPECT_GT(ss.ops_per_cycle, 0.0);
    }
  }
}

TEST(SteadyState, OverlappedRunsAreStructurallyLegal) {
  // Materialise two runs offset by the computed II and re-run the full
  // legality checker on the union — the analysis must never understate.
  const auto w = kernels::find_workload("MVM");
  for (const arch::Architecture& a :
       {arch::base_architecture(), arch::rs_architecture(1),
        arch::rsp_architecture(2)}) {
    const ConfigurationContext ctx = context_for(w, a);
    const SteadyState ss = analyze_steady_state(ctx);

    std::vector<ScheduledOp> merged = ctx.ops();
    const ProgIndex n = ctx.size();
    for (const ScheduledOp& op : ctx.ops()) {
      ScheduledOp shifted = op;
      shifted.cycle += ss.initiation_interval;
      // Rebase intra-run references to the second copy.
      for (ProgOperand& o : shifted.operands)
        if (!o.is_imm()) o.producer += n;
      for (ProgIndex& d : shifted.order_deps) d += n;
      merged.push_back(shifted);
    }
    const analysis::LintReport rep =
        analysis::check_legality(ConfigurationContext(a, merged));
    EXPECT_TRUE(rep.clean()) << a.name << ": "
                             << (rep.clean() ? ""
                                             : rep.diagnostics.front().message);
  }
}

TEST(SteadyState, SharingTightensTheInterval) {
  // Fewer multipliers → unit slots busier → the next run must wait at
  // least as long as on the base architecture.
  const auto w = kernels::find_workload("2D-FDCT");
  const SteadyState base =
      analyze_steady_state(context_for(w, arch::base_architecture()));
  const SteadyState rs1 =
      analyze_steady_state(context_for(w, arch::rs_architecture(1)));
  EXPECT_GE(rs1.initiation_interval, base.initiation_interval);
}

TEST(SteadyState, ThroughputImprovesOverSerialReruns) {
  // For at least the pipeline-friendly kernels, II < latency: back-to-back
  // tiles overlap and the array streams.
  const auto w = kernels::make_matmul(4);
  const SteadyState ss =
      analyze_steady_state(context_for(w, arch::base_architecture(4, 4)));
  EXPECT_LT(ss.initiation_interval, ss.latency);
}

TEST(SteadyState, BottleneckNamesAreStable) {
  EXPECT_STREQ(to_string(SteadyState::Bottleneck::kPe), "PE");
  EXPECT_STREQ(to_string(SteadyState::Bottleneck::kSharedUnit),
               "shared unit");
  EXPECT_STREQ(to_string(SteadyState::Bottleneck::kNone), "none");
}

}  // namespace
}  // namespace rsp::sched
