#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/verifier.hpp"
#include "dse/explorer.hpp"
#include "gen/generator.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace rsp::sched {
namespace {

PlacedProgram place(const kernels::Workload& w) {
  LoopPipeliner mapper(w.array);
  return mapper.map(w.kernel, w.hints, w.reduction);
}

arch::Architecture base_for(const kernels::Workload& w) {
  return arch::base_architecture(w.array.rows, w.array.cols);
}

// ------------------------------------------------------------- base rules
TEST(Scheduler, BaseScheduleIsLegalForEveryKernel) {
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
    const analysis::LintReport rep = analysis::check_legality(ctx);
    EXPECT_TRUE(rep.clean()) << w.name << ": "
                             << (rep.clean() ? ""
                                             : rep.diagnostics.front().message);
  }
}

TEST(Scheduler, DeterministicAcrossRuns) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("FFT");
  const PlacedProgram p = place(w);
  const ConfigurationContext a = s.schedule(p, arch::rsp_architecture(1));
  const ConfigurationContext b = s.schedule(p, arch::rsp_architecture(1));
  ASSERT_EQ(a.size(), b.size());
  for (ProgIndex i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.op(i).cycle, b.op(i).cycle);
    EXPECT_EQ(a.op(i).unit.has_value(), b.op(i).unit.has_value());
    if (a.op(i).unit) {
      EXPECT_EQ(*a.op(i).unit, *b.op(i).unit);
    }
  }
}

TEST(Scheduler, NotBeforeRespected) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("ICCG");
  const PlacedProgram p = place(w);
  const ConfigurationContext ctx = s.schedule(p, base_for(w));
  for (ProgIndex i = 0; i < p.size(); ++i)
    EXPECT_GE(ctx.op(i).cycle, p.op(i).not_before);
}

TEST(Scheduler, RejectsGeometryMismatch) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);  // 4×4 program
  EXPECT_THROW(s.schedule(place(w), arch::base_architecture(8, 8)),
               InvalidArgumentError);
}

// ------------------------------------------------------- sharing semantics
TEST(Scheduler, SharedMultsCarryUnits) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("MVM");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rs_architecture(2));
  int mults = 0;
  for (const ScheduledOp& op : ctx.ops()) {
    if (ir::is_critical_op(op.kind)) {
      ++mults;
      ASSERT_TRUE(op.unit.has_value());
      // Unit reachable: row pool of the op's own row.
      EXPECT_EQ(op.unit->pool, arch::SharedUnitId::Pool::kRow);
      EXPECT_EQ(op.unit->line, op.pe.row);
    } else {
      EXPECT_FALSE(op.unit.has_value());
    }
  }
  EXPECT_EQ(mults, 64);
}

TEST(Scheduler, BaseMultsCarryNoUnit) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("MVM");
  const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
  for (const ScheduledOp& op : ctx.ops()) EXPECT_FALSE(op.unit.has_value());
}

TEST(Scheduler, RsWithEnoughUnitsMatchesBaseCycles) {
  // RS rescheduling with unlimited units must not change the schedule
  // length (same latencies, sharing constraint not binding).
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const PlacedProgram p = place(w);
    const int base_len = s.schedule(p, base_for(w)).length();
    const arch::Architecture unlimited =
        unlimited_units(arch::rs_architecture(1, w.array.rows, w.array.cols));
    EXPECT_EQ(s.schedule(p, unlimited).length(), base_len) << w.name;
  }
}

TEST(Scheduler, StallsNonNegativeAndMonotoneInSharing) {
  // Fewer shared units can never shorten the schedule: RS#1 >= RS#2 >= RS#3
  // >= RS#4 in cycles (pools only grow from #1 to #4).
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const PlacedProgram p = place(w);
    int prev = std::numeric_limits<int>::max();
    for (int v = 1; v <= 4; ++v) {
      const int len =
          s.schedule(p, arch::rs_architecture(v, w.array.rows, w.array.cols))
              .length();
      EXPECT_LE(len, prev) << w.name << " RS#" << v;
      prev = len;
    }
  }
}

TEST(Scheduler, UnitNeverDoubleIssued) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("2D-FDCT");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rsp_architecture(1));
  std::set<std::pair<std::string, int>> issues;
  for (const ScheduledOp& op : ctx.ops()) {
    if (!op.unit) continue;
    EXPECT_TRUE(
        issues.emplace(arch::to_string(*op.unit), op.cycle).second);
  }
}

// ---------------------------------------------------- pipelining semantics
TEST(Scheduler, RspLatencyAppliedToMults) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("FFT");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rsp_architecture(2));
  for (const ScheduledOp& op : ctx.ops())
    EXPECT_EQ(op.latency, ir::is_critical_op(op.kind) ? 2 : 1);
}

TEST(Scheduler, DeeperPipeliningNeverShortensSchedule) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("Hydro");
  const PlacedProgram p = place(w);
  int prev = 0;
  for (int stages = 2; stages <= 4; ++stages) {
    const int len =
        s.schedule(p, arch::rsp_architecture(2, 8, 8, stages)).length();
    EXPECT_GE(len, prev);
    prev = len;
  }
}

TEST(Scheduler, PipeliningReducesPeakUnitDemand) {
  // The Fig. 2 → Fig. 6 claim: the same matmul needs 8 concurrent
  // multipliers un-pipelined but only 4 once the multiplier is 2-stage
  // pipelined (the PE occupies both stages, staggering the bursts).
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const PlacedProgram p = place(w);

  const arch::Architecture base = arch::base_architecture(4, 4);
  const int base_peak =
      s.schedule(p, base).max_critical_issues_per_cycle();
  EXPECT_EQ(base_peak, 8);

  // Pipelining halves the peak issue demand even with unlimited units: the
  // PE occupies both multiplication stages, so the column bursts stagger.
  const arch::Architecture rsp_unlimited = unlimited_units(
      arch::custom_architecture("RSP-unl", 4, 4, 1, 0, 2));
  const int rsp_peak =
      s.schedule(p, rsp_unlimited).max_critical_issues_per_cycle();
  EXPECT_LE(rsp_peak, 4);

  // Hence 4 pipelined multipliers (1 per row) suffice without any stall.
  const PerfPoint rsp =
      measure(s, p, arch::custom_architecture("RSP-4u", 4, 4, 1, 0, 2));
  EXPECT_EQ(rsp.stalls, 0);
}

// ------------------------------------------------------------ perf points
TEST(Scheduler, MeasureDecomposesStalls) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("State");
  const PlacedProgram p = place(w);
  const PerfPoint base = measure(s, p, base_for(w));
  EXPECT_EQ(base.stalls, 0);
  EXPECT_EQ(base.cycles, base.nostall_cycles);
  const PerfPoint rs1 = measure(s, p, arch::rs_architecture(1));
  EXPECT_EQ(rs1.cycles, rs1.nostall_cycles + rs1.stalls);
  EXPECT_GT(rs1.stalls, 0);  // State hammers RS#1 (paper: 15 stalls)
  const PerfPoint rs4 = measure(s, p, arch::rs_architecture(4));
  EXPECT_EQ(rs4.stalls, 0);
}

// ------------------------------------------------------------------ stats
TEST(Stats, HistogramSumsToTotalMults) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("Hydro");
  const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
  const ScheduleStats st = stats_of(ctx);
  long total = 0;
  for (int c : st.mult_histogram) total += c;
  EXPECT_EQ(total, st.total_mults);
  EXPECT_EQ(st.total_mults, 32 * 3);  // 3 mults × 32 iterations
  EXPECT_EQ(st.max_mults_per_cycle, 6);  // the Table 3 value
}

// ----------------------------------------------------------------- pretty
TEST(Pretty, RendersStagesForPipelinedMults) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::custom_architecture("RSP", 4, 4, 2, 0, 2));
  const std::string grid = render_schedule(ctx);
  EXPECT_NE(grid.find("1*"), std::string::npos);
  EXPECT_NE(grid.find("2*"), std::string::npos);
  EXPECT_NE(grid.find("Ld"), std::string::npos);
  const std::string base_grid =
      render_schedule(s.schedule(place(w), arch::base_architecture(4, 4)));
  EXPECT_EQ(base_grid.find("1*"), std::string::npos);
  EXPECT_NE(base_grid.find("*"), std::string::npos);
}

TEST(Pretty, PerPeViewListsEveryPe) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::base_architecture(4, 4));
  PrettyOptions opt;
  opt.per_pe = true;
  const std::string grid = render_schedule(ctx, opt);
  EXPECT_NE(grid.find("(3,3)"), std::string::npos);
}

// ---------------------------------------------------------------- encode
TEST(Encode, ConfigCacheReflectsSchedule) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("ICCG");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rs_architecture(1));
  const arch::ConfigCache cache = ctx.encode();
  EXPECT_EQ(cache.context_length(), std::max(ctx.length(), 1));
  // Every scheduled op occupies exactly one non-idle word.
  int words = 0;
  for (int t = 0; t < cache.context_length(); ++t)
    for (int r = 0; r < 8; ++r)
      for (int c = 0; c < 8; ++c)
        if (cache.word({r, c}, t).opcode != 0) ++words;
  EXPECT_EQ(words, ctx.size());
}

// ------------------------------------------------ length-only measurement
void expect_length_matches(const ContextScheduler& s, const PlacedProgram& p,
                           const arch::Architecture& a,
                           const std::string& what) {
  const ConfigurationContext ctx = s.schedule(p, a);
  const ScheduleLength len = s.schedule_length(p, a);
  EXPECT_EQ(len.length, ctx.length()) << what << " on " << a.name;
  EXPECT_EQ(len.max_critical_issues, ctx.max_critical_issues_per_cycle())
      << what << " on " << a.name;
}

/// The step-1 programs and Pareto-survivor architectures of one
/// dse-style domain.
struct SurvivorSet {
  std::vector<std::string> names;
  std::vector<PlacedProgram> programs;
  std::vector<arch::Architecture> survivors;
};

/// Two domains shaped like the benchmark's dse requests: six generated
/// kernels of one array geometry each, prepared on the 8/8/4 grid.
const std::vector<SurvivorSet>& generated_survivor_sets() {
  static const std::vector<SurvivorSet> sets = [] {
    dse::ExplorerConfig config;
    config.max_units_per_row = 8;
    config.max_units_per_col = 8;
    config.max_stages = 4;
    std::map<std::pair<int, int>, std::vector<kernels::Workload>> buckets;
    std::vector<SurvivorSet> out;
    for (std::uint64_t seed = 1; out.size() < 2; ++seed) {
      gen::GeneratorConfig gen_config;
      gen_config.seed = seed;
      kernels::Workload w = gen::generate_workload(gen_config);
      std::vector<kernels::Workload>& bucket =
          buckets[{w.array.rows, w.array.cols}];
      bucket.push_back(std::move(w));
      if (bucket.size() < 6) continue;
      const dse::PreparedExploration prep =
          dse::Explorer(bucket.front().array, config).prepare(bucket);
      SurvivorSet set;
      set.names = prep.kernel_names;
      for (const auto& program : prep.programs)
        set.programs.push_back(*program);
      for (const dse::Candidate* c : prep.result.pareto_points())
        set.survivors.push_back(c->architecture);
      out.push_back(std::move(set));
      bucket.clear();
    }
    return out;
  }();
  return sets;
}

TEST(Scheduler, LengthOnlyMatchesFullSchedule) {
  const ContextScheduler s;
  for (const kernels::Workload& w : kernels::full_catalogue()) {
    const PlacedProgram p = place(w);
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols))
      expect_length_matches(s, p, a, w.name);
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    gen::GeneratorConfig config;
    config.seed = seed;
    const kernels::Workload w = gen::generate_workload(config);
    const PlacedProgram p = place(w);
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols))
      expect_length_matches(s, p, a, w.name);
  }
  std::size_t survivors = 0;
  for (const SurvivorSet& set : generated_survivor_sets()) {
    survivors += set.survivors.size();
    for (std::size_t k = 0; k < set.programs.size(); ++k)
      for (const arch::Architecture& a : set.survivors)
        expect_length_matches(s, set.programs[k], a, set.names[k]);
  }
  EXPECT_GT(survivors, 2u);
}

TEST(Scheduler, FreeRunDependsOnlyOnLatency) {
  const ContextScheduler s;
  std::size_t shared_survivors = 0;
  for (const SurvivorSet& set : generated_survivor_sets()) {
    for (std::size_t k = 0; k < set.programs.size(); ++k) {
      // The program's memo keeps one free run per pipeline depth: the
      // first survivor of each depth fills the slot that the later ones,
      // with other unit counts, read back.
      const PlacedProgram& program = set.programs[k];
      for (const arch::Architecture& a : set.survivors) {
        if (!a.shares_multiplier()) continue;
        ++shared_survivors;
        const int expected = s.schedule(program, unlimited_units(a)).length();
        const PerfPoint p = measure(s, program, a);
        EXPECT_EQ(p.nostall_cycles, expected)
            << set.names[k] << " on " << a.name;
        EXPECT_EQ(p.cycles, s.schedule(program, a).length());
        EXPECT_EQ(p.stalls, p.cycles - expected);
        EXPECT_EQ(program.free_run_memo(a.mult_latency()).load(), expected);
      }
    }
  }
  EXPECT_GT(shared_survivors, 2u);
}

TEST(Scheduler, ValidatedOnceStillRejectsBadProgram) {
  const ContextScheduler s;
  const arch::Architecture base = arch::base_architecture();
  const arch::Architecture rs = arch::rs_architecture(1);
  const auto load = [](std::int64_t priority) {
    ProgramOp op;
    op.kind = ir::OpKind::kLoad;
    op.array = "a";
    op.priority = priority;
    return op;
  };
  const auto add_one = [](ProgIndex producer, std::int64_t priority) {
    ProgramOp op;
    op.kind = ir::OpKind::kAdd;
    op.operands = {ProgOperand{producer, 0}, ProgOperand{kNoProducer, 1}};
    op.priority = priority;
    return op;
  };

  // Priority does not increase along the load → add edge: every call
  // validates afresh, since a failed validation caches nothing.
  PlacedProgram bad{arch::ArraySpec{}};
  const ProgIndex l = bad.add(load(5));
  bad.add(add_one(l, 5));
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(s.schedule(bad, base), InvalidArgumentError) << call;
    EXPECT_THROW(s.schedule_length(bad, rs), InvalidArgumentError) << call;
    EXPECT_THROW(measure(s, bad, rs), InvalidArgumentError) << call;
    EXPECT_THROW(bad.fingerprint(), InvalidArgumentError) << call;
  }

  // A valid program caches its order; a copy shares it until add(), which
  // must validate the new op on the copy's next schedule.
  PlacedProgram good{arch::ArraySpec{}};
  const ProgIndex g = good.add(load(0));
  good.add(add_one(g, 1));
  EXPECT_EQ(s.schedule(good, base).length(), 2);
  PlacedProgram copy = good;
  EXPECT_EQ(&copy.priority_order(), &good.priority_order());
  EXPECT_EQ(&copy.free_run_memo(2), &good.free_run_memo(2));
  PlacedProgram grown = good;
  grown.add(add_one(g, 2));
  EXPECT_NE(grown.fingerprint(), good.fingerprint());
  EXPECT_NE(&grown.free_run_memo(2), &good.free_run_memo(2));
  copy.add(add_one(g, 0));
  EXPECT_THROW(s.schedule(copy, base), InvalidArgumentError);
  EXPECT_THROW(measure(s, copy, rs), InvalidArgumentError);
  EXPECT_EQ(s.schedule(good, base).length(), 2);
}

}  // namespace
}  // namespace rsp::sched
