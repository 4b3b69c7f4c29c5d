// The scheduler contract (analysis::check_legality) must catch every class
// of violation; these tests build small illegal contexts by hand and check
// the precise diagnosis: the first finding's rule id and locus.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "analysis/verifier.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace rsp::sched {
namespace {

using analysis::Diagnostic;
using analysis::LintReport;
using analysis::Locus;

ScheduledOp make_op(ir::OpKind kind, arch::PeCoord pe, int cycle,
                    int latency = 1) {
  ScheduledOp op;
  op.kind = kind;
  op.pe = pe;
  op.cycle = cycle;
  op.latency = latency;
  if (ir::is_memory_op(kind)) {
    op.array = "x";
    op.address = 0;
  }
  if (ir::op_arity(kind) >= 1) op.operands.resize(ir::op_arity(kind));
  return op;
}

/// Checks `ops` on `a` and expects the first finding to be `rule` at
/// `locus`; returns the report for further assertions.
LintReport expect_first(const arch::Architecture& a,
                        const std::vector<ScheduledOp>& ops,
                        const std::string& rule, const Locus& locus) {
  const ConfigurationContext ctx(a, ops);
  const LintReport rep = analysis::check_legality(ctx);
  EXPECT_FALSE(rep.clean());
  if (rep.diagnostics.empty()) return rep;
  const Diagnostic& d = rep.diagnostics.front();
  EXPECT_EQ(d.rule, rule) << d.message;
  EXPECT_EQ(d.severity, analysis::Severity::kError);
  EXPECT_EQ(d.locus, locus) << "op " << d.locus.op << " cycle "
                            << d.locus.cycle << " pe (" << d.locus.pe_row
                            << ", " << d.locus.pe_col << ")";
  EXPECT_FALSE(d.hint.empty());
  return rep;
}

TEST(Legality, AcceptsMinimalLegalContext) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kLoad, {0, 0}, 0));
  auto add = make_op(ir::OpKind::kAbs, {0, 0}, 1);
  add.operands[0] = ProgOperand{0, 0};
  ops.push_back(add);
  const ConfigurationContext ctx(a, ops);
  EXPECT_TRUE(analysis::check_legality(ctx).diagnostics.empty());
  EXPECT_NO_THROW(analysis::require_legal(ctx));
}

TEST(Legality, CatchesUseBeforeReady) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kLoad, {0, 0}, 3));
  auto abs = make_op(ir::OpKind::kAbs, {0, 1}, 3);  // same cycle as producer
  abs.operands[0] = ProgOperand{0, 0};
  ops.push_back(abs);
  expect_first(a, ops, "RSP-S006", Locus{1, 3, 0, 1});
  try {
    analysis::require_legal(ConfigurationContext(a, ops));
    FAIL() << "expected rsp::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("RSP-S006"), std::string::npos)
        << e.what();
  }
}

TEST(Legality, CatchesPeDoubleBooking) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  expect_first(a, ops, "RSP-S001", Locus{1, 5, 2, 2});
}

TEST(Legality, CatchesPipelinedPeOverlap) {
  // On RSP, a mult occupies its PE for both stages; an op in the second
  // stage cycle collides.
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0, 2);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 1));
  expect_first(a, ops, "RSP-S001", Locus{1, 1, 0, 0});
}

TEST(Legality, CatchesReadBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();  // 2 read buses
  std::vector<ScheduledOp> ops;
  for (int c = 0; c < 3; ++c)
    ops.push_back(make_op(ir::OpKind::kLoad, {4, c}, 7));
  expect_first(a, ops, "RSP-S002", Locus{2, 7, 4, 2});
}

TEST(Legality, CatchesWriteBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();  // 1 write bus
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {1, 0}, 0));
  ops.push_back(make_op(ir::OpKind::kConst, {1, 1}, 0));
  for (int c = 0; c < 2; ++c) {
    auto st = make_op(ir::OpKind::kStore, {1, c}, 2);
    st.operands[0] = ProgOperand{c, 0};
    ops.push_back(st);
  }
  expect_first(a, ops, "RSP-S003", Locus{3, 2, 1, 1});
}

TEST(Legality, CatchesMissingUnitOnSharingArchitecture) {
  const arch::Architecture a = arch::rs_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  ops.push_back(mult);  // no unit assigned
  expect_first(a, ops, "RSP-S004", Locus{0, 0, 0, 0});
}

TEST(Legality, CatchesUnreachableUnit) {
  const arch::Architecture a = arch::rs_architecture(1);  // row pools only
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 5, 0};
  ops.push_back(mult);  // row 5's unit from a row 0 PE
  expect_first(a, ops, "RSP-W008", Locus{0, 0, 0, 0});
}

TEST(Legality, CatchesUnitDoubleIssue) {
  const arch::Architecture a = arch::rs_architecture(1);
  std::vector<ScheduledOp> ops;
  for (int c = 0; c < 2; ++c) {
    auto mult = make_op(ir::OpKind::kMult, {0, c}, 0);
    mult.operands = {ProgOperand{}, ProgOperand{}};
    mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
    ops.push_back(mult);
  }
  expect_first(a, ops, "RSP-S005", Locus{1, 0, 0, 1});
}

TEST(Legality, CatchesUnitOnNonSharingArchitecture) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  const LintReport rep = expect_first(a, ops, "RSP-C002", Locus{0, 0, 0, 0});
  ASSERT_FALSE(rep.diagnostics.empty());
  EXPECT_NE(rep.diagnostics.front().message.find("shares nothing"),
            std::string::npos);
}

TEST(Legality, CatchesWrongLatency) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0, /*latency=*/1);  // must be 2
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  expect_first(a, ops, "RSP-C001", Locus{0, 0, 0, 0});
}

TEST(Legality, CatchesUnroutableOperand) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  auto abs = make_op(ir::OpKind::kAbs, {3, 5}, 2);  // diagonal, >1 hop
  abs.operands[0] = ProgOperand{0, 0};
  ops.push_back(abs);
  expect_first(a, ops, "RSP-W007", Locus{1, 2, 3, 5});
}

TEST(Legality, CatchesMemoryOrderingViolation) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  auto st = make_op(ir::OpKind::kStore, {0, 0}, 2);
  st.operands[0] = ProgOperand{0, 0};
  ops.push_back(st);
  auto ld = make_op(ir::OpKind::kLoad, {0, 1}, 2);  // same cycle as store
  ld.order_deps = {1};
  ops.push_back(ld);
  expect_first(a, ops, "RSP-C003", Locus{2, 2, 0, 1});
}

TEST(Legality, ContextRejectsNegativeCycleOrLatency) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> bad_cycle = {make_op(ir::OpKind::kConst, {0, 0}, -1)};
  EXPECT_THROW(ConfigurationContext(a, bad_cycle), InvalidArgumentError);
  std::vector<ScheduledOp> bad_lat = {
      make_op(ir::OpKind::kConst, {0, 0}, 0, 0)};
  EXPECT_THROW(ConfigurationContext(a, bad_lat), InvalidArgumentError);
}

TEST(Legality, ReportAggregatesMultipleViolations) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));  // PE clash
  for (int c = 0; c < 3; ++c)
    ops.push_back(make_op(ir::OpKind::kLoad, {1, c}, 0));  // bus clash
  const LintReport rep = expect_first(a, ops, "RSP-S001", Locus{1, 0, 0, 0});
  ASSERT_EQ(rep.diagnostics.size(), 2u);
  EXPECT_EQ(rep.diagnostics[1].rule, "RSP-S002");
  EXPECT_EQ(rep.diagnostics[1].locus, (Locus{4, 0, 1, 2}));
}

// ------------------------------------------- mutations of real schedules

/// One single-field mutation of a scheduler-legal op list. Returns the
/// rule the contract must report, or "" when the schedule offers no site.
using Mutation =
    std::function<std::string(const arch::Architecture&,
                              std::vector<ScheduledOp>&)>;

std::string consumer_one_cycle_early(const arch::Architecture&,
                                     std::vector<ScheduledOp>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i)
    for (const ProgOperand& o : ops[i].operands) {
      if (o.is_imm()) continue;
      const auto p = static_cast<std::size_t>(o.producer);
      const ScheduledOp& prod = ops[p];
      if (ops[i].cycle != prod.cycle + prod.latency || ops[i].cycle == 0)
        continue;
      const int early = --ops[i].cycle;
      // Still replayed after its producer: issued but not ready (S006);
      // otherwise it reads the producer's initial 0 (W001).
      return prod.cycle < early || (prod.cycle == early && p < i)
                 ? "RSP-S006"
                 : "RSP-W001";
    }
  return "";
}

std::string third_load_in_a_row_cycle(const arch::Architecture& a,
                                      std::vector<ScheduledOp>& ops) {
  std::map<std::pair<int, int>, int> loads;  // (row, cycle) -> count
  for (const ScheduledOp& op : ops)
    if (op.kind == ir::OpKind::kLoad) ++loads[{op.pe.row, op.cycle}];
  for (const auto& [slot, count] : loads) {
    if (count != a.array.read_buses_per_row) continue;
    for (ScheduledOp& op : ops)
      if (op.kind == ir::OpKind::kLoad && op.pe.row == slot.first &&
          op.cycle != slot.second) {
        op.cycle = slot.second;
        return "RSP-S002";
      }
  }
  return "";
}

std::string dropped_unit(const arch::Architecture&,
                         std::vector<ScheduledOp>& ops) {
  for (ScheduledOp& op : ops)
    if (op.unit) {
      op.unit.reset();
      return "RSP-S004";
    }
  return "";
}

std::string wrong_latency(const arch::Architecture&,
                          std::vector<ScheduledOp>& ops) {
  ++ops.front().latency;
  return "RSP-C001";
}

std::string reversed_order_dep(const arch::Architecture&,
                               std::vector<ScheduledOp>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (!ops[i].order_deps.empty()) {
      // The predecessor now also waits for its successor.
      ops[static_cast<std::size_t>(ops[i].order_deps.front())]
          .order_deps.push_back(static_cast<ProgIndex>(i));
      return "RSP-C003";
    }
  return "";
}

std::string unroutable_pe(const arch::Architecture& a,
                          std::vector<ScheduledOp>& ops) {
  if (a.array.rows < 3 || a.array.cols < 3) return "";
  for (ScheduledOp& op : ops)
    for (const ProgOperand& o : op.operands) {
      if (o.is_imm()) continue;
      const arch::PeCoord from = ops[static_cast<std::size_t>(o.producer)].pe;
      // Two rows and two columns away: no same-PE, neighbour or line hop.
      op.pe = {(from.row + 2) % a.array.rows, (from.col + 2) % a.array.cols};
      return "RSP-W007";
    }
  return "";
}

TEST(Legality, CatalogueMutationsAreRejectedWithTheirRule) {
  const std::map<std::string, Mutation> mutations = {
      {"consumer one cycle early", consumer_one_cycle_early},
      {"third load in a row cycle", third_load_in_a_row_cycle},
      {"dropped unit", dropped_unit},
      {"wrong latency", wrong_latency},
      {"reversed order dependency", reversed_order_dep},
      {"op on an unroutable PE", unroutable_pe}};
  std::map<std::string, int> applied;
  for (const kernels::Workload& w : kernels::full_catalogue()) {
    const sched::LoopPipeliner mapper(w.array);
    const PlacedProgram program = mapper.map(w.kernel, w.hints, w.reduction);
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols)) {
      const ConfigurationContext legal =
          ContextScheduler().schedule(program, a);
      ASSERT_TRUE(analysis::check_legality(legal).clean())
          << w.name << " on " << a.name;
      for (const auto& [name, mutate] : mutations) {
        std::vector<ScheduledOp> ops = legal.ops();
        const std::string rule = mutate(a, ops);
        if (rule.empty()) continue;
        ++applied[name];
        const ConfigurationContext ctx(a, ops);
        const LintReport contract = analysis::check_legality(ctx);
        const auto has_rule = [&](const Diagnostic& d) {
          return d.rule == rule;
        };
        EXPECT_TRUE(std::any_of(contract.diagnostics.begin(),
                                contract.diagnostics.end(), has_rule))
            << name << " on " << w.name << "/" << a.name << ": no " << rule;
        EXPECT_THROW(analysis::require_legal(ctx), Error);
        // The contract is a superset of the linter's errors.
        for (const Diagnostic& d : analysis::lint_context(ctx).diagnostics) {
          if (d.severity != analysis::Severity::kError) continue;
          EXPECT_NE(std::find(contract.diagnostics.begin(),
                              contract.diagnostics.end(), d),
                    contract.diagnostics.end())
              << name << " on " << w.name << "/" << a.name << ": lint "
              << d.rule << " missing from the contract";
        }
      }
    }
  }
  // Every mutation found a site somewhere in the catalogue.
  for (const auto& [name, mutate] : mutations)
    EXPECT_GT(applied[name], 0) << name;
}

}  // namespace
}  // namespace rsp::sched
