// Integration: mapper → scheduler → cycle simulator, checked against the
// independent golden model for every kernel on every one of the paper's
// nine architectures (81 combinations + matmul variants). The same matrix
// pins down the PR-6 bit-identity guarantee: the event engine
// (sim::SimProgram) must produce the same SimResult, final memory, and VCD
// bytes as the dense reference loop everywhere.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "ir/interp.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsp {
namespace {

arch::Architecture arch_by_name(const std::string& name, int rows, int cols) {
  if (name == "Base") return arch::base_architecture(rows, cols);
  const int variant = name.back() - '0';
  if (name.find("RSP") == 0) return arch::rsp_architecture(variant, rows, cols);
  return arch::rs_architecture(variant, rows, cols);
}

class KernelOnArch
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(KernelOnArch, SimulatorMatchesGoldenModel) {
  const auto [kernel_name, arch_name] = GetParam();
  const kernels::Workload w = kernels::find_workload(kernel_name);
  const arch::Architecture a =
      arch_by_name(arch_name, w.array.rows, w.array.cols);

  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler scheduler;
  const sched::ConfigurationContext context = scheduler.schedule(program, a);
  analysis::require_legal(context);

  ir::Memory sim_mem, event_mem, golden_mem;
  w.setup(sim_mem);
  w.setup(event_mem);
  w.setup(golden_mem);
  const sim::Machine machine;
  const sim::SimResult result = machine.run(context, sim_mem);
  w.golden(golden_mem);

  EXPECT_TRUE(sim_mem == golden_mem)
      << kernel_name << " on " << arch_name
      << ": simulated memory differs from the golden model";

  // PR-6 bit-identity: the event engine must reproduce the dense engine's
  // SimResult, final memory, and VCD dump exactly.
  const sim::Machine event_machine(ir::DatapathMode::kExact,
                                   sim::SimEngine::kEvent);
  const sim::SimResult event_result = event_machine.run(context, event_mem);
  EXPECT_TRUE(event_result == result)
      << kernel_name << " on " << arch_name
      << ": event-engine SimResult differs from the dense engine";
  EXPECT_TRUE(event_mem == sim_mem)
      << kernel_name << " on " << arch_name
      << ": event-engine final memory differs from the dense engine";
  EXPECT_EQ(sim::to_vcd(context, event_result), sim::to_vcd(context, result))
      << kernel_name << " on " << arch_name
      << ": event-engine VCD dump differs from the dense engine";

  // Utilisation sanity.
  EXPECT_EQ(result.stats.cycles, context.length());
  EXPECT_GT(result.stats.pe_utilization(), 0.0);
  EXPECT_LE(result.stats.pe_utilization(), 1.0);
  if (a.shares_multiplier() && result.stats.mult_ops > 0) {
    EXPECT_EQ(result.stats.shared_unit_issues, result.stats.mult_ops);
    EXPECT_LE(result.stats.shared_unit_utilization(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, KernelOnArch,
    ::testing::Combine(
        ::testing::Values("Hydro", "ICCG", "Tri-diagonal", "Inner product",
                          "State", "2D-FDCT", "SAD", "MVM", "FFT"),
        ::testing::Values("Base", "RS#1", "RS#2", "RS#3", "RS#4", "RSP#1",
                          "RSP#2", "RSP#3", "RSP#4")),
    [](const auto& info) {
      std::string n =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// ------------------------------------------------------------- matmul demo
TEST(Simulator, MatmulFig2AndFig6ProduceIdenticalResults) {
  const kernels::Workload w = kernels::make_matmul(4);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;

  ir::Memory base_mem, rsp_mem, golden;
  w.setup(base_mem);
  w.setup(rsp_mem);
  w.setup(golden);
  w.golden(golden);

  const sim::Machine machine;
  machine.run(s.schedule(p, arch::base_architecture(4, 4)), base_mem);
  machine.run(
      s.schedule(p, arch::custom_architecture("RSP", 4, 4, 1, 0, 2)),
      rsp_mem);
  EXPECT_TRUE(base_mem == golden);
  EXPECT_TRUE(rsp_mem == golden);
}

TEST(Simulator, DeeperPipelinesStillCorrect) {
  const kernels::Workload w = kernels::find_workload("FFT");
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  for (int stages = 2; stages <= 4; ++stages) {
    ir::Memory mem, golden;
    w.setup(mem);
    w.setup(golden);
    w.golden(golden);
    sim::Machine machine;
    machine.run(
        s.schedule(p, arch::rsp_architecture(2, 8, 8, stages)), mem);
    EXPECT_TRUE(mem == golden) << stages << " stages";
  }
}

// ------------------------------------------------------ structural checks
//
// Every structural refusal is asserted on both engines: the event engine
// hoists the legality replay into SimProgram::compile, and it must reject
// exactly the schedules the dense per-cycle loop rejects.
const sim::SimEngine kBothEngines[] = {sim::SimEngine::kDense,
                                       sim::SimEngine::kEvent};

TEST(Simulator, RefusesDoubleBookedPe) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  for (int i = 0; i < 2; ++i) {
    sched::ScheduledOp op;
    op.kind = ir::OpKind::kConst;
    op.pe = {0, 0};
    op.cycle = 0;
    ops.push_back(op);
  }
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine)
                     .run(sched::ConfigurationContext(a, ops), mem),
                 Error)
        << sim::engine_name(engine);
  }
}

TEST(Simulator, RefusesOperandConsumedBeforeReady) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<sched::ScheduledOp> ops;
  sched::ScheduledOp mult;
  mult.kind = ir::OpKind::kMult;
  mult.pe = {0, 0};
  mult.cycle = 0;
  mult.latency = 2;
  mult.operands = {sched::ProgOperand{}, sched::ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  sched::ScheduledOp abs;
  abs.kind = ir::OpKind::kAbs;
  abs.pe = {0, 1};
  abs.cycle = 1;  // result only ready at cycle 2
  abs.operands = {sched::ProgOperand{0, 0}};
  ops.push_back(abs);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine)
                     .run(sched::ConfigurationContext(a, ops), mem),
                 Error)
        << sim::engine_name(engine);
  }
}

TEST(Simulator, RefusesBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  for (int c = 0; c < 3; ++c) {
    sched::ScheduledOp ld;
    ld.kind = ir::OpKind::kLoad;
    ld.pe = {0, c};
    ld.cycle = 0;
    ld.array = "x";
    ld.address = c;
    ops.push_back(ld);
  }
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    mem.allocate("x", 8);
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine)
                     .run(sched::ConfigurationContext(a, ops), mem),
                 Error)
        << sim::engine_name(engine);
  }
}

TEST(Simulator, Wrap16ModeAppliesDatapathWidth) {
  // A kernel whose adds overflow 16 bits behaves differently in kWrap16.
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  sched::ScheduledOp big;
  big.kind = ir::OpKind::kConst;
  big.pe = {0, 0};
  big.cycle = 0;
  big.imm = 0x7fff;
  ops.push_back(big);
  sched::ScheduledOp add;
  add.kind = ir::OpKind::kAdd;
  add.pe = {0, 0};
  add.cycle = 1;
  add.operands = {sched::ProgOperand{0, 0}, sched::ProgOperand{-1, 1}};
  ops.push_back(add);
  const sched::ConfigurationContext ctx(a, ops);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    const auto exact =
        sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem);
    EXPECT_EQ(exact.values[1], 0x8000) << sim::engine_name(engine);
    const auto wrapped =
        sim::Machine(ir::DatapathMode::kWrap16, engine).run(ctx, mem);
    EXPECT_EQ(wrapped.values[1], -32768) << sim::engine_name(engine);
  }
}

// --------------------------------------------------- engine selection API
TEST(Simulator, EngineNamesRoundTrip) {
  EXPECT_STREQ(sim::engine_name(sim::SimEngine::kDense), "dense");
  EXPECT_STREQ(sim::engine_name(sim::SimEngine::kEvent), "event");
  EXPECT_EQ(sim::parse_sim_engine("dense"), sim::SimEngine::kDense);
  EXPECT_EQ(sim::parse_sim_engine("event"), sim::SimEngine::kEvent);
  try {
    sim::parse_sim_engine("fast");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("'fast'"), std::string::npos);
  }
}

// ------------------------------------------------- entry-point validation
TEST(SimulatorValidation, ContextRejectsNegativeCycleNamingOp) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;
  ops[1].pe = {0, 1};
  ops[1].cycle = -3;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("op 1"), std::string::npos)
        << e.what();
  }
}

TEST(SimulatorValidation, ContextRejectsNonPositiveLatencyNamingOp) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].latency = 0;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("op 0"), std::string::npos)
        << e.what();
  }
}

TEST(SimulatorValidation, RejectsOperandProducerOutOfRange) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kAbs;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;
  ops[1].operands = {sched::ProgOperand{5, 0}};  // only ops 0..1 exist
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    try {
      sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem);
      FAIL() << "expected InvalidArgumentError (" << sim::engine_name(engine)
             << ")";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("producer 5"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SimulatorValidation, RejectsStoreWithoutValueOperand) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kStore;
  ops[0].array = "x";
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    mem.allocate("x", 4);
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem),
                 InvalidArgumentError)
        << sim::engine_name(engine);
  }
}

TEST(SimulatorValidation, RejectsOpPlacedOutsideArray) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].pe = {9, 9};  // 8x8 array
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem),
                 InvalidArgumentError)
        << sim::engine_name(engine);
  }
}

TEST(SimulatorValidation, RejectsSharedUnitOutsidePools) {
  const arch::Architecture a = arch::rsp_architecture(1);  // 1 unit per row
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;
  ops[0].latency = a.mult_latency();
  ops[0].operands = {sched::ProgOperand{}, sched::ProgOperand{}};
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 3};
  const sched::ConfigurationContext ctx(a, ops);
  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    EXPECT_THROW(sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem),
                 InvalidArgumentError)
        << sim::engine_name(engine);
  }
}

// --------------------------------------------------- SimProgram lifecycle
TEST(SimProgram, CompileOnceRunManyOnSparseSchedule) {
  // A deliberately sparse schedule: two issues, padded to 64 cycles by the
  // trailing op's latency... (cycle 0 const, cycle 60 add).
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].imm = 21;
  ops[1].kind = ir::OpKind::kAdd;
  ops[1].pe = {0, 1};
  ops[1].cycle = 60;
  ops[1].latency = 4;
  ops[1].operands = {sched::ProgOperand{0, 0}, sched::ProgOperand{-1, 21}};
  const sched::ConfigurationContext ctx(a, ops);

  const sim::SimProgram program = sim::SimProgram::compile(ctx);
  EXPECT_EQ(program.size(), 2);
  EXPECT_EQ(program.total_cycles(), 64);
  EXPECT_EQ(program.active_cycle_count(), 2);  // only cycles 0 and 60 issue

  ir::Memory mem_a, mem_b;
  const sim::SimResult first = program.run(mem_a);
  EXPECT_EQ(first.values[1], 42);
  EXPECT_TRUE(program.static_stats() == first.stats);

  // The compiled program is immutable: a second run is bit-identical.
  const sim::SimResult second = program.run(mem_b);
  EXPECT_TRUE(second == first);
  EXPECT_TRUE(mem_a == mem_b);
}

// ---------------------------------------------------- VCD golden file
TEST(Simulator, VcdDumpMatchesCheckedInGolden) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const arch::Architecture a =
      arch_by_name("RSP#4", w.array.rows, w.array.cols);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ConfigurationContext context =
      sched::ContextScheduler().schedule(program, a);

  std::string expected;
  {
    std::ifstream in(RSP_TEST_DATA_DIR "/sad_rsp4_golden.vcd",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing tests/data/sad_rsp4_golden.vcd";
    std::ostringstream buf;
    buf << in.rdbuf();
    expected = buf.str();
  }

  for (const sim::SimEngine engine : kBothEngines) {
    ir::Memory mem;
    w.setup(mem);
    const sim::SimResult result =
        sim::Machine(ir::DatapathMode::kExact, engine).run(context, mem);
    EXPECT_EQ(sim::to_vcd(context, result), expected)
        << sim::engine_name(engine)
        << ": VCD dump drifted from the checked-in golden file";
  }
}

// ------------------------------------------- randomized equivalence check
//
// Legal-by-construction schedule generator: walks cycles in order and only
// emits issues that respect the same constraints the simulator enforces
// (PE occupancy, bus budgets, shared-unit arbitration, operand readiness),
// so every generated schedule must run to completion on both engines.
sched::ConfigurationContext random_context(util::Rng& rng,
                                           const arch::Architecture& a) {
  const arch::ArraySpec& array = a.array;
  const int length = static_cast<int>(rng.uniform(8, 24));
  const double density = 0.10 + 0.35 * rng.uniform01();
  constexpr int kArraySize = 32;

  std::vector<sched::ScheduledOp> ops;
  std::vector<int> pe_busy_until(static_cast<std::size_t>(array.num_pes()), 0);
  std::vector<int> ready_at;  // per emitted op

  for (int t = 0; t < length; ++t) {
    std::vector<int> row_reads(static_cast<std::size_t>(array.rows), 0);
    std::vector<int> row_writes(static_cast<std::size_t>(array.rows), 0);
    std::set<std::string> unit_taken;

    // Producers whose results are consumable this cycle.
    std::vector<int> ready;
    for (std::size_t i = 0; i < ready_at.size(); ++i)
      if (ready_at[i] <= t && ir::produces_value(ops[i].kind))
        ready.push_back(static_cast<int>(i));

    auto operand = [&]() {
      if (!ready.empty() && rng.chance(0.5)) {
        const int producer = ready[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(ready.size()) - 1))];
        return sched::ProgOperand{producer, 0};
      }
      return sched::ProgOperand{-1, rng.uniform(-50, 50)};
    };

    for (int pe = 0; pe < array.num_pes(); ++pe) {
      if (pe_busy_until[static_cast<std::size_t>(pe)] > t) continue;
      if (!rng.chance(density)) continue;
      const arch::PeCoord coord = array.coord(pe);

      sched::ScheduledOp op;
      op.pe = coord;
      op.cycle = t;
      const std::int64_t roll = rng.uniform(0, 9);
      switch (roll) {
        case 0:
        case 1:
          op.kind = ir::OpKind::kConst;
          op.imm = rng.uniform(-100, 100);
          break;
        case 2:
          op.kind = ir::OpKind::kAdd;
          op.operands = {operand(), operand()};
          break;
        case 3:
          op.kind = ir::OpKind::kSub;
          op.operands = {operand(), operand()};
          break;
        case 4:
          op.kind = ir::OpKind::kAbs;
          op.operands = {operand()};
          break;
        case 5:
          op.kind = ir::OpKind::kShift;
          op.operands = {operand()};
          op.imm = rng.uniform(-3, 3);
          break;
        case 6:
        case 7:
          op.kind = ir::OpKind::kMult;
          op.operands = {operand(), operand()};
          break;
        case 8:
          op.kind = ir::OpKind::kLoad;
          op.array = "m";
          op.address = rng.uniform(0, kArraySize - 1);
          break;
        default:
          op.kind = ir::OpKind::kStore;
          op.array = "m";
          op.address = rng.uniform(0, kArraySize - 1);
          op.operands = {operand()};
          break;
      }

      // Enforce the structural budgets the simulator checks; demote to a
      // kConst when a resource is exhausted so density stays high.
      if (op.kind == ir::OpKind::kLoad &&
          row_reads[static_cast<std::size_t>(coord.row)] >=
              array.read_buses_per_row) {
        op = sched::ScheduledOp{};
        op.kind = ir::OpKind::kConst;
        op.pe = coord;
        op.cycle = t;
      }
      if (op.kind == ir::OpKind::kStore &&
          row_writes[static_cast<std::size_t>(coord.row)] >=
              array.write_buses_per_row) {
        op = sched::ScheduledOp{};
        op.kind = ir::OpKind::kConst;
        op.pe = coord;
        op.cycle = t;
      }
      if (op.kind == ir::OpKind::kMult && a.shares_multiplier()) {
        bool placed = false;
        for (const arch::SharedUnitId& unit :
             a.sharing.reachable_units(array, coord)) {
          if (unit_taken.insert(arch::to_string(unit)).second) {
            op.unit = unit;
            placed = true;
            break;
          }
        }
        if (!placed) {  // every reachable unit already issued this cycle
          op.kind = ir::OpKind::kAdd;
          if (op.operands.size() != 2) op.operands.resize(2);
        }
      }

      op.latency = op.kind == ir::OpKind::kMult ? a.mult_latency() : 1;
      if (op.kind == ir::OpKind::kLoad)
        ++row_reads[static_cast<std::size_t>(coord.row)];
      if (op.kind == ir::OpKind::kStore)
        ++row_writes[static_cast<std::size_t>(coord.row)];
      pe_busy_until[static_cast<std::size_t>(pe)] =
          t + (ir::is_critical_op(op.kind) ? op.latency : 1);
      ready_at.push_back(t + op.latency);
      ops.push_back(std::move(op));
    }
  }

  if (ops.empty()) {  // degenerate draw: keep the context constructible
    sched::ScheduledOp op;
    op.kind = ir::OpKind::kConst;
    ops.push_back(op);
  }
  return sched::ConfigurationContext(a, std::move(ops));
}

TEST(SimulatorProperty, EventEngineMatchesDenseOnRandomSchedules) {
  util::Rng rng(0x5eed20260808ull);
  const arch::Architecture archs[] = {
      arch::base_architecture(4, 4), arch::rs_architecture(2, 4, 4),
      arch::rsp_architecture(1, 4, 4), arch::rsp_architecture(4, 4, 4)};
  int total_ops = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const arch::Architecture& a = archs[trial % 4];
    const ir::DatapathMode mode =
        trial % 3 == 0 ? ir::DatapathMode::kWrap16 : ir::DatapathMode::kExact;
    const sched::ConfigurationContext ctx = random_context(rng, a);
    total_ops += static_cast<int>(ctx.size());

    ir::Memory dense_mem, event_mem;
    dense_mem.allocate("m", 32);
    event_mem.allocate("m", 32);
    for (int i = 0; i < 32; ++i) {
      dense_mem.write("m", i, i * 3 - 7);
      event_mem.write("m", i, i * 3 - 7);
    }

    const sim::SimResult dense =
        sim::Machine(mode, sim::SimEngine::kDense).run(ctx, dense_mem);
    const sim::SimResult event =
        sim::Machine(mode, sim::SimEngine::kEvent).run(ctx, event_mem);
    EXPECT_TRUE(event == dense)
        << "trial " << trial << " on " << a.name << ": SimResult diverged";
    EXPECT_TRUE(event_mem == dense_mem)
        << "trial " << trial << " on " << a.name << ": final memory diverged";
  }
  EXPECT_GT(total_ops, 500) << "generator produced suspiciously few ops";
}

}  // namespace
}  // namespace rsp
