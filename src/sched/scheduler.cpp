#include "sched/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::sched {

namespace {

/// Flat cycles × slots occupancy counts, grown geometrically in whole
/// cycles; cells past the end read 0 (nothing taken there yet).
class SlotTable {
 public:
  explicit SlotTable(int slots_per_cycle)
      : slots_(static_cast<std::size_t>(slots_per_cycle)) {}

  int used(int cycle, int slot) const {
    const std::size_t i = at(cycle, slot);
    return i < cells_.size() ? cells_[i] : 0;
  }

  /// Takes one use of (cycle, slot); returns the uses there now.
  int take(int cycle, int slot) {
    const std::size_t i = at(cycle, slot);
    if (i >= cells_.size())
      cells_.resize(std::max(2 * cells_.size(),
                             (static_cast<std::size_t>(cycle) + 1) * slots_),
                    0);
    return ++cells_[i];
  }

 private:
  std::size_t at(int cycle, int slot) const {
    return static_cast<std::size_t>(cycle) * slots_ +
           static_cast<std::size_t>(slot);
  }

  std::size_t slots_;
  std::vector<int> cells_;
};

}  // namespace

arch::Architecture unlimited_units(const arch::Architecture& a) {
  if (!a.shares_multiplier()) return a;
  arch::Architecture u = a;
  u.name = a.name + "-unlimited";
  // One unit per PE of each row is always enough: a row can issue at most
  // `cols` multiplications per cycle.
  u.sharing.units_per_row = a.array.cols;
  u.sharing.units_per_col = 0;
  u.validate();
  return u;
}

ConfigurationContext ContextScheduler::schedule(
    const PlacedProgram& program, const arch::Architecture& architecture)
    const {
  std::vector<ScheduledOp> scheduled;
  run(program, architecture, &scheduled);
  return ConfigurationContext(architecture, std::move(scheduled));
}

ScheduleLength ContextScheduler::schedule_length(
    const PlacedProgram& program, const arch::Architecture& architecture)
    const {
  return run(program, architecture, nullptr);
}

ScheduleLength ContextScheduler::run(const PlacedProgram& program,
                                     const arch::Architecture& architecture,
                                     std::vector<ScheduledOp>* out) const {
  architecture.validate();
  // Scheduling order: by priority (stable on index for determinism),
  // validated and sorted once per program.
  const std::vector<ProgIndex>& order = program.priority_order();
  if (program.array() != architecture.array)
    throw InvalidArgumentError(
        "program was placed for a different array geometry");

  const arch::ArraySpec& array = architecture.array;
  const bool shared = architecture.shares_multiplier();
  const int mult_latency = architecture.mult_latency();
  const std::vector<ProgramOp>& ops = program.ops();

  // Occupancy: PEs, row read buses, row write buses, shared units, and
  // the multiplications issued per cycle (for the peak).
  SlotTable pe_busy(array.num_pes());
  SlotTable read_bus(array.rows);
  SlotTable write_bus(array.rows);
  SlotTable mult_issues(1);
  // Shared unit slot numbering: row pools first, then column pools. A PE
  // reaches its row pool then its column pool, each in index order — the
  // order of arch::SharingPlan::reachable_units, which first-fit follows.
  const int units_per_row = architecture.sharing.units_per_row;
  const int units_per_col = architecture.sharing.units_per_col;
  const int row_units = array.rows * units_per_row;
  SlotTable unit_busy(std::max(row_units + array.cols * units_per_col, 1));
  const auto free_unit = [&](int t, const arch::PeCoord& pe) {
    for (int u = 0; u < units_per_row; ++u)
      if (unit_busy.used(t, pe.row * units_per_row + u) == 0)
        return pe.row * units_per_row + u;
    for (int u = 0; u < units_per_col; ++u)
      if (unit_busy.used(t, row_units + pe.col * units_per_col + u) == 0)
        return row_units + pe.col * units_per_col + u;
    return -1;
  };

  // Per op: the cycle its result is consumable (issue + latency), -1 until
  // scheduled.
  std::vector<int> done_at(ops.size(), -1);
  if (out != nullptr) out->assign(ops.size(), ScheduledOp{});
  ScheduleLength result;

  for (const ProgIndex idx : order) {
    const ProgramOp& op = ops[static_cast<std::size_t>(idx)];

    // Earliest cycle by dataflow and memory ordering.
    int ready = 0;
    for (const ProgOperand& o : op.operands) {
      if (o.is_imm()) continue;
      const int pd = done_at[static_cast<std::size_t>(o.producer)];
      RSP_ASSERT_MSG(pd >= 0, "producer scheduled after consumer");
      ready = std::max(ready, pd);
    }
    for (const ProgIndex d : op.order_deps) {
      const int pd = done_at[static_cast<std::size_t>(d)];
      RSP_ASSERT_MSG(pd >= 0, "order dep scheduled after consumer");
      ready = std::max(ready, pd);
    }

    const bool is_mult = ir::is_critical_op(op.kind);
    const bool needs_unit = is_mult && shared;
    const int pe_slot = array.linear(op.pe);
    // A multi-cycle (pipelined) operation keeps its issuing PE busy for all
    // stages: the PE waits for the product to return through the bus switch
    // (paper Fig. 6 — the 1*/2* stage pair occupies the PE's slots).
    const int latency = is_mult ? mult_latency : 1;
    int t = std::max(ready, op.not_before);
    int unit = -1;
    for (;; ++t) {
      if (t > options_.max_cycles)
        throw InternalError("schedule exceeds max_cycles — livelock?");
      bool pe_free = true;
      for (int s = 0; s < latency && pe_free; ++s)
        pe_free = pe_busy.used(t + s, pe_slot) == 0;
      if (!pe_free) continue;
      if (op.kind == ir::OpKind::kLoad &&
          read_bus.used(t, op.pe.row) >= array.read_buses_per_row)
        continue;
      if (op.kind == ir::OpKind::kStore &&
          write_bus.used(t, op.pe.row) >= array.write_buses_per_row)
        continue;
      if (needs_unit) {
        unit = free_unit(t, op.pe);
        if (unit < 0) continue;  // RS stall: bump to the next cycle
      }
      break;
    }

    // Commit.
    for (int s = 0; s < latency; ++s) pe_busy.take(t + s, pe_slot);
    if (op.kind == ir::OpKind::kLoad) read_bus.take(t, op.pe.row);
    if (op.kind == ir::OpKind::kStore) write_bus.take(t, op.pe.row);
    if (unit >= 0) unit_busy.take(t, unit);
    if (is_mult)
      result.max_critical_issues =
          std::max(result.max_critical_issues, mult_issues.take(t, 0));
    done_at[static_cast<std::size_t>(idx)] = t + latency;
    result.length = std::max(result.length, t + latency);

    if (out == nullptr) continue;
    ScheduledOp& dst = (*out)[static_cast<std::size_t>(idx)];
    dst.kind = op.kind;
    dst.pe = op.pe;
    dst.cycle = t;
    dst.latency = latency;
    dst.priority = op.priority;
    dst.iter = op.iter;
    dst.source = op.source;
    dst.operands = op.operands;
    dst.order_deps = op.order_deps;
    dst.imm = op.imm;
    dst.array = op.array;
    dst.address = op.address;
    if (unit >= 0)
      dst.unit = unit < row_units
                   ? arch::SharedUnitId{arch::SharedUnitId::Pool::kRow,
                                        unit / units_per_row,
                                        unit % units_per_row}
                   : arch::SharedUnitId{arch::SharedUnitId::Pool::kColumn,
                                        (unit - row_units) / units_per_col,
                                        (unit - row_units) % units_per_col};
  }
  return result;
}

}  // namespace rsp::sched
