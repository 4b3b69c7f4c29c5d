#include "analysis/verifier.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "ir/op.hpp"
#include "util/error.hpp"

namespace rsp::analysis {

const char* severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

int LintReport::error_count() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::kError) ++n;
  return n;
}

int LintReport::warning_count() const {
  return static_cast<int>(diagnostics.size()) - error_count();
}

util::Json LintReport::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("errors", static_cast<double>(error_count()));
  doc.set("warnings", static_cast<double>(warning_count()));
  util::Json list = util::Json::array();
  for (const Diagnostic& d : diagnostics) {
    util::Json entry = util::Json::object();
    entry.set("rule", d.rule);
    entry.set("severity", severity_name(d.severity));
    if (d.locus.op >= 0) entry.set("op", static_cast<double>(d.locus.op));
    if (d.locus.cycle >= 0)
      entry.set("cycle", static_cast<double>(d.locus.cycle));
    if (d.locus.pe_row >= 0 && d.locus.pe_col >= 0) {
      util::Json pe = util::Json::array();
      pe.push(static_cast<double>(d.locus.pe_row));
      pe.push(static_cast<double>(d.locus.pe_col));
      entry.set("pe", std::move(pe));
    }
    entry.set("message", d.message);
    entry.set("hint", d.hint);
    list.push(std::move(entry));
  }
  doc.set("diagnostics", std::move(list));
  return doc;
}

namespace {

struct Finding {
  const char* rule;
  Severity severity;
  Locus locus;
  std::string message;
};

using EmitFn = std::function<void(Finding)>;

/// One-line fix hint per rule id (docs/ANALYSIS.md mirrors this table).
const char* hint_for(const std::string& rule) {
  if (rule == "RSP-V001") return "issue cycles must lie in [0, length)";
  if (rule == "RSP-V002") return "every op occupies at least one cycle";
  if (rule == "RSP-V003") return "place the op on a PE inside the array";
  if (rule == "RSP-V004")
    return "operand producers must index an op of this program";
  if (rule == "RSP-V005") return "give the store a value operand";
  if (rule == "RSP-V006")
    return "shared-unit line/index must fit the architecture's pools";
  if (rule == "RSP-V007")
    return "order dependencies must index an op of this program";
  if (rule == "RSP-S001")
    return "a PE issues one op per cycle and blocks for every stage of a "
           "multi-cycle op";
  if (rule == "RSP-S002")
    return "stagger the loads: a row has read_buses_per_row load slots per "
           "cycle";
  if (rule == "RSP-S003")
    return "stagger the stores: a row has write_buses_per_row store slots "
           "per cycle";
  if (rule == "RSP-S004")
    return "on a resource-shared architecture every critical op needs a "
           "shared-unit assignment";
  if (rule == "RSP-S005")
    return "a shared unit accepts one issue per cycle; pick another unit or "
           "cycle";
  if (rule == "RSP-S006")
    return "delay the consumer until producer cycle + latency";
  if (rule == "RSP-W001")
    return "the consumer reads the producer's initial 0; issue the producer "
           "earlier if the value is meant to flow";
  if (rule == "RSP-W002") return "drop the op or route its value somewhere";
  if (rule == "RSP-W003")
    return "loop-carried values must flow from earlier iterations to later "
           "ones";
  if (rule == "RSP-W004")
    return "the last store in index order wins; merge or reorder the stores";
  if (rule == "RSP-W005")
    return "same-cycle load/store on one address depends on issue order; "
           "separate them by a cycle";
  if (rule == "RSP-W006")
    return "no unit assignment can serve this many critical issues in one "
           "cycle; lower the per-cycle pressure or add shared units";
  if (rule == "RSP-W007")
    return "producer and consumer PEs need a same-PE/neighbour/row/column "
           "link; move one of them or insert a route op";
  if (rule == "RSP-W008")
    return "a PE reaches only its own row pool and column pool; pick a unit "
           "on the op's row or column";
  if (rule == "RSP-C001")
    return "a multiplication takes the architecture's multiplier latency "
           "(its pipeline stages), every other op one cycle";
  if (rule == "RSP-C002")
    return "only critical ops on a resource-shared architecture take a "
           "shared unit; drop the assignment";
  if (rule == "RSP-C003")
    return "issue the memory op after its ordering predecessor completes";
  return "";
}

// Dense integer slot of a shared unit: row pools first (rows ×
// units_per_row, row-major), then column pools. Callers bounds-check
// line/index first, so the slot is in [0, sharing.total_units(array)).
int unit_slot(const arch::SharingPlan& sharing, const arch::ArraySpec& array,
              const arch::SharedUnitId& unit) {
  if (unit.pool == arch::SharedUnitId::Pool::kRow)
    return unit.line * sharing.units_per_row + unit.index;
  return array.rows * sharing.units_per_row +
         unit.line * sharing.units_per_col + unit.index;
}

bool unit_in_pools(const arch::Architecture& a, const arch::SharedUnitId& u) {
  const bool row_pool = u.pool == arch::SharedUnitId::Pool::kRow;
  const int lines = row_pool ? a.array.rows : a.array.cols;
  const int pool_size =
      row_pool ? a.sharing.units_per_row : a.sharing.units_per_col;
  return u.line >= 0 && u.line < lines && u.index >= 0 && u.index < pool_size;
}

/// An in-pools unit is reachable iff it sits on the PE's own row or column
/// pool (arch::SharingPlan::reachable_units, without building the list).
bool unit_reachable(const arch::PeCoord& pe, const arch::SharedUnitId& u) {
  return u.line == (u.pool == arch::SharedUnitId::Pool::kRow ? pe.row : pe.col);
}

/// Which rule set a pass runs. kLint is the full linter: simulator errors
/// plus every warning. kContract is the scheduler contract: the simulator
/// errors, W001/W007/W008 promoted to errors, readiness over every operand
/// and the contract-only RSP-C rules; the lint-only W002-W006 are skipped.
enum class Profile { kLint, kContract };

Locus locus_of(std::size_t i, const sched::ScheduledOp& op) {
  return Locus{static_cast<int>(i), op.cycle, op.pe.row, op.pe.col};
}

/// Per-op validation rules, op-index order, with each op's checks in the
/// exact order `sim::validate_context` historically ran them. When
/// `pre_construction` is set the cycle/latency rules use the
/// ConfigurationContext constructor's messages instead (those inputs never
/// reach validate_context: the constructor rejects them first).
/// `skip_replay[i]` is set when op i cannot safely take part in the
/// structural replay (bad cycle, latency or placement).
void validation_pass(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops, int length,
                     bool pre_construction, const EmitFn& emit,
                     std::vector<char>& skip_replay) {
  const auto size = static_cast<sched::ProgIndex>(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const sched::ScheduledOp& op = ops[i];
    if (op.cycle < 0 || op.cycle >= length) {
      skip_replay[i] = 1;
      const std::string message =
          pre_construction && op.cycle < 0
              ? "op " + std::to_string(i) + " has negative issue cycle " +
                    std::to_string(op.cycle)
              : "simulator: op " + std::to_string(i) + " issue cycle " +
                    std::to_string(op.cycle) + " out of range [0, " +
                    std::to_string(length) + ")";
      emit({"RSP-V001", Severity::kError, locus_of(i, op), message});
    }
    if (op.latency < 1) {
      skip_replay[i] = 1;
      const std::string message =
          pre_construction
              ? "op " + std::to_string(i) + " has latency " +
                    std::to_string(op.latency) + "; latency must be >= 1"
              : "simulator: op " + std::to_string(i) + " latency " +
                    std::to_string(op.latency) + " must be >= 1";
      emit({"RSP-V002", Severity::kError, locus_of(i, op), message});
    }
    if (!a.array.contains(op.pe)) {
      skip_replay[i] = 1;
      emit({"RSP-V003", Severity::kError, locus_of(i, op),
            "simulator: op " + std::to_string(i) + " placed on PE (" +
                std::to_string(op.pe.row) + ", " + std::to_string(op.pe.col) +
                ") outside the " + std::to_string(a.array.rows) + "x" +
                std::to_string(a.array.cols) + " array"});
    }
    for (const sched::ProgOperand& o : op.operands)
      if (!o.is_imm() && (o.producer < 0 || o.producer >= size))
        emit({"RSP-V004", Severity::kError, locus_of(i, op),
              "simulator: op " + std::to_string(i) +
                  " operand references producer " +
                  std::to_string(o.producer) + " out of range [0, " +
                  std::to_string(size) + ")"});
    if (op.kind == ir::OpKind::kStore && op.operands.empty())
      emit({"RSP-V005", Severity::kError, locus_of(i, op),
            "simulator: store op " + std::to_string(i) +
                " has no value operand"});
    if (ir::is_critical_op(op.kind) && a.shares_multiplier() && op.unit &&
        !unit_in_pools(a, *op.unit))
      emit({"RSP-V006", Severity::kError, locus_of(i, op),
            "simulator: op " + std::to_string(i) + " names shared unit " +
                arch::to_string(*op.unit) +
                " outside the architecture's pools"});
    for (const sched::ProgIndex d : op.order_deps)
      if (d < 0 || d >= size)
        emit({"RSP-V007", Severity::kError, locus_of(i, op),
              "simulator: op " + std::to_string(i) +
                  " order dependency " + std::to_string(d) +
                  " out of range [0, " + std::to_string(size) + ")"});
  }
}

/// Structural-replay rules in issue order (cycle asc, op index asc) over
/// the active cycles of `issues`, message-identical to
/// `sim::SimProgram::compile`'s replay. In full-report mode the index
/// leaves out the ops a failed validation pass marked unreplayable and
/// findings accumulate; in verify mode the emit callback throws at the
/// first finding, reproducing compile's stop-at-first-error behaviour
/// exactly. Idle cycles never touch the check state, so skipping them
/// changes no finding. RSP-S006 checks the operands the engines read
/// (a store's value, the first two of a compute op) unless
/// `every_operand` is set, as the scheduler contract requires.
void structural_pass(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops,
                     const sched::IssueIndex& issues, bool every_operand,
                     const EmitFn& emit) {
  const arch::ArraySpec& array = a.array;
  const auto n = ops.size();
  const int total_units = a.sharing.total_units(array);
  std::vector<int> pe_busy_until(static_cast<std::size_t>(array.num_pes()),
                                 0);
  std::vector<int> ready_at(n, 0);
  std::vector<int> row_reads(static_cast<std::size_t>(array.rows), 0);
  std::vector<int> row_writes(static_cast<std::size_t>(array.rows), 0);
  std::vector<char> unit_taken(static_cast<std::size_t>(total_units), 0);

  for (std::size_t c = 0; c < issues.active_cycles.size(); ++c) {
    const int t = issues.active_cycles[c];
    std::fill(row_reads.begin(), row_reads.end(), 0);
    std::fill(row_writes.begin(), row_writes.end(), 0);
    std::fill(unit_taken.begin(), unit_taken.end(), 0);

    for (std::int64_t s = issues.offsets[c]; s < issues.offsets[c + 1]; ++s) {
      const auto i = static_cast<std::size_t>(
          issues.order[static_cast<std::size_t>(s)]);
      const sched::ScheduledOp& op = ops[i];

      const int pe = array.linear(op.pe);
      if (pe_busy_until[static_cast<std::size_t>(pe)] > t)
        emit({"RSP-S001", Severity::kError, locus_of(i, op),
              "simulator: PE double-booked at cycle " + std::to_string(t)});
      pe_busy_until[static_cast<std::size_t>(pe)] =
          t + (ir::is_critical_op(op.kind) ? op.latency : 1);

      std::size_t reads = 0;  // leading operands the engines read
      switch (op.kind) {
        case ir::OpKind::kLoad:
          if (++row_reads[static_cast<std::size_t>(op.pe.row)] >
              array.read_buses_per_row)
            emit({"RSP-S002", Severity::kError, locus_of(i, op),
                  "simulator: read-bus oversubscribed on row " +
                      std::to_string(op.pe.row) + " at cycle " +
                      std::to_string(t)});
          break;
        case ir::OpKind::kStore:
          if (++row_writes[static_cast<std::size_t>(op.pe.row)] >
              array.write_buses_per_row)
            emit({"RSP-S003", Severity::kError, locus_of(i, op),
                  "simulator: write-bus oversubscribed on row " +
                      std::to_string(op.pe.row) + " at cycle " +
                      std::to_string(t)});
          reads = 1;
          break;
        case ir::OpKind::kNop:
          break;
        default: {
          if (ir::is_critical_op(op.kind) && a.shares_multiplier()) {
            if (!op.unit) {
              emit({"RSP-S004", Severity::kError, locus_of(i, op),
                    "simulator: shared multiply without a unit"});
            } else if (unit_in_pools(a, *op.unit)) {
              const int unit = unit_slot(a.sharing, array, *op.unit);
              if (unit_taken[static_cast<std::size_t>(unit)])
                emit({"RSP-S005", Severity::kError, locus_of(i, op),
                      "simulator: unit " + arch::to_string(*op.unit) +
                          " double-issued at cycle " + std::to_string(t)});
              unit_taken[static_cast<std::size_t>(unit)] = 1;
            }
          }
          reads = 2;
          break;
        }
      }
      if (every_operand || reads > op.operands.size())
        reads = op.operands.size();
      for (std::size_t k = 0; k < reads; ++k) {
        const sched::ProgOperand& o = op.operands[k];
        // A dangling producer is RSP-V004's finding, not this one's.
        if (o.is_imm() || o.producer < 0 ||
            o.producer >= static_cast<sched::ProgIndex>(n))
          continue;
        if (ready_at[static_cast<std::size_t>(o.producer)] > t)
          emit({"RSP-S006", Severity::kError, locus_of(i, op),
                "simulator: operand consumed before ready at cycle " +
                    std::to_string(t)});
      }
      ready_at[i] = t + op.latency;
    }
  }
}

/// Rules beyond the simulator's. Under kLint they are warnings: the
/// engines accept the context and produce deterministic values, but it is
/// almost certainly not what the schedule's author meant. Under kContract
/// W001/W007/W008 are errors (no scheduler output may contain them), the
/// RSP-C rules run, and the lint-only W002-W006 are skipped.
void semantic_pass(const arch::Architecture& a,
                   const std::vector<sched::ScheduledOp>& ops, Profile profile,
                   const EmitFn& emit, const std::vector<char>& skip_replay) {
  const arch::ArraySpec& array = a.array;
  const auto n = ops.size();
  const auto size = static_cast<sched::ProgIndex>(n);
  const bool contract = profile == Profile::kContract;
  const Severity flow = contract ? Severity::kError : Severity::kWarning;
  const auto producer_ok = [&](const sched::ProgOperand& o) {
    return !o.is_imm() && o.producer >= 0 && o.producer < size;
  };

  std::vector<char> consumed(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const sched::ScheduledOp& op = ops[i];
    for (const sched::ProgOperand& o : op.operands) {
      if (!producer_ok(o)) continue;
      const auto p = static_cast<std::size_t>(o.producer);
      consumed[p] = 1;
      const sched::ScheduledOp& prod = ops[p];
      // RSP-W001: the producer issues at (or after) the consumer's slot in
      // replay order, so the consumer silently reads the initial 0 — the
      // silent twin of the RSP-S006 error (producer issued, result not
      // ready yet). Together they cover every operand that is not ready.
      if (prod.cycle > op.cycle || (prod.cycle == op.cycle && p >= i))
        emit({"RSP-W001", flow, locus_of(i, op),
              "op " + std::to_string(i) + " consumes producer " +
                  std::to_string(p) + " which issues at cycle " +
                  std::to_string(prod.cycle) + ", not before cycle " +
                  std::to_string(op.cycle) +
                  "; the consumer reads the initial 0"});
      // RSP-W003: a loop-carried value flowing backwards in iteration space.
      if (!contract && prod.iter >= 0 && op.iter >= 0 && prod.iter > op.iter)
        emit({"RSP-W003", Severity::kWarning, locus_of(i, op),
              "op " + std::to_string(i) + " (iteration " +
                  std::to_string(op.iter) + ") consumes producer " +
                  std::to_string(p) + " from later iteration " +
                  std::to_string(prod.iter)});
      // RSP-W007: the operand has no single-hop route in the interconnect.
      // The simulators move values by index and never check this, so the
      // linter only warns; the scheduler contract rejects it.
      if (!skip_replay[i] && !skip_replay[p] &&
          array.route(prod.pe, op.pe) == arch::RouteKind::kNone)
        emit({"RSP-W007", flow, locus_of(i, op),
              "op " + std::to_string(i) + " cannot receive its operand: no "
                  "single-hop route from producer " + std::to_string(p) +
                  " at PE (" + std::to_string(prod.pe.row) + ", " +
                  std::to_string(prod.pe.col) + ") to PE (" +
                  std::to_string(op.pe.row) + ", " +
                  std::to_string(op.pe.col) + ")"});
    }
    // RSP-W008: a unit that exists but sits on a row/column pool the PE's
    // bus switch does not reach (again simulator-legal: the engines index
    // units globally).
    const bool shared_op = ir::is_critical_op(op.kind) && a.shares_multiplier();
    if (!skip_replay[i] && shared_op && op.unit &&
        unit_in_pools(a, *op.unit) && !unit_reachable(op.pe, *op.unit))
      emit({"RSP-W008", flow, locus_of(i, op),
            "op " + std::to_string(i) + " names shared unit " +
                arch::to_string(*op.unit) + " unreachable from PE (" +
                std::to_string(op.pe.row) + ", " +
                std::to_string(op.pe.col) + ")"});
    if (!contract) continue;

    // RSP-C001: the architecture fixes every latency.
    const int expected = ir::is_critical_op(op.kind) ? a.mult_latency() : 1;
    if (op.latency != expected)
      emit({"RSP-C001", Severity::kError, locus_of(i, op),
            "op " + std::to_string(i) + " (" + ir::op_name(op.kind) +
                ") has latency " + std::to_string(op.latency) +
                ", architecture '" + a.name + "' dictates " +
                std::to_string(expected)});
    // RSP-C002: a unit assignment where nothing can be shared.
    if (op.unit && !shared_op)
      emit({"RSP-C002", Severity::kError, locus_of(i, op),
            "op " + std::to_string(i) + " (" + ir::op_name(op.kind) +
                ") names shared unit " + arch::to_string(*op.unit) +
                (a.shares_multiplier()
                     ? ", but only critical ops issue on shared units"
                     : " on architecture '" + a.name +
                           "', which shares nothing")});
    // RSP-C003: a memory op issued before its ordering predecessor is done.
    for (const sched::ProgIndex d : op.order_deps) {
      if (d < 0 || d >= size) continue;  // RSP-V007
      const sched::ScheduledOp& pred = ops[static_cast<std::size_t>(d)];
      if (op.cycle < pred.cycle + pred.latency)
        emit({"RSP-C003", Severity::kError, locus_of(i, op),
              "op " + std::to_string(i) + " issues at cycle " +
                  std::to_string(op.cycle) + " before memory-order "
                  "predecessor " + std::to_string(d) + " completes at cycle " +
                  std::to_string(pred.cycle + pred.latency)});
    }
  }
  if (contract) return;

  // RSP-W002: dead values.
  for (std::size_t i = 0; i < n; ++i)
    if (ir::produces_value(ops[i].kind) && !consumed[i])
      emit({"RSP-W002", Severity::kWarning, locus_of(i, ops[i]),
            "op " + std::to_string(i) + " (" + ir::op_name(ops[i].kind) +
                ") computes a value no other op consumes"});

  // RSP-W004/W005: same-cycle conflicts on one memory port
  // (array, address). The engines resolve both deterministically in issue
  // order, but the outcome depends on that order, not the dataflow.
  std::map<std::tuple<int, std::string, long>,
           std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      ports;  // (cycle, array, address) -> (load ops, store ops)
  for (std::size_t i = 0; i < n; ++i) {
    const sched::ScheduledOp& op = ops[i];
    if (!ir::is_memory_op(op.kind) || skip_replay[i]) continue;
    auto& [loads, stores] =
        ports[{op.cycle, op.array, static_cast<long>(op.address)}];
    (op.kind == ir::OpKind::kLoad ? loads : stores).push_back(i);
  }
  for (const auto& [port, users] : ports) {
    const auto& [loads, stores] = users;
    const auto& [cycle, name, address] = port;
    if (stores.size() > 1)
      emit({"RSP-W004", Severity::kWarning,
            locus_of(stores[1], ops[stores[1]]),
            "array '" + name + "'[" + std::to_string(address) +
                "] is stored " + std::to_string(stores.size()) +
                " times in cycle " + std::to_string(cycle)});
    if (!stores.empty() && !loads.empty())
      emit({"RSP-W005", Severity::kWarning, locus_of(loads[0], ops[loads[0]]),
            "array '" + name + "'[" + std::to_string(address) +
                "] is both loaded (op " + std::to_string(loads[0]) +
                ") and stored (op " + std::to_string(stores[0]) +
                ") in cycle " + std::to_string(cycle)});
  }

  // RSP-W006: aggregate shared-pool over-subscription — more critical
  // issues in one cycle than physical units exist, so no unit assignment
  // can ever legalise the cycle.
  if (a.shares_multiplier()) {
    const int total_units = a.sharing.total_units(array);
    std::map<int, int> critical_per_cycle;
    for (std::size_t i = 0; i < n; ++i)
      if (!skip_replay[i] && ir::is_critical_op(ops[i].kind))
        ++critical_per_cycle[ops[i].cycle];
    for (const auto& [cycle, count] : critical_per_cycle)
      if (count > total_units)
        emit({"RSP-W006", Severity::kWarning, Locus{-1, cycle, -1, -1},
              "cycle " + std::to_string(cycle) + " issues " +
                  std::to_string(count) +
                  " critical ops but the architecture has only " +
                  std::to_string(total_units) + " shared units"});
  }
}

LintReport lint_impl(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops, int length,
                     bool pre_construction, Profile profile) {
  LintReport report;
  const EmitFn collect = [&report](Finding f) {
    report.diagnostics.push_back(Diagnostic{
        f.rule, f.severity, f.locus, std::move(f.message), hint_for(f.rule)});
  };
  std::vector<char> skip_replay(ops.size(), 0);
  validation_pass(a, ops, length, pre_construction, collect, skip_replay);
  structural_pass(a, ops, sched::build_issue_index(ops, skip_replay),
                  /*every_operand=*/profile == Profile::kContract, collect);
  semantic_pass(a, ops, profile, collect, skip_replay);
  return report;
}

}  // namespace

LintReport lint_schedule(const arch::Architecture& architecture,
                         const std::vector<sched::ScheduledOp>& ops) {
  architecture.validate();
  // The length the ConfigurationContext constructor would compute, over the
  // ops it would accept; rejected ops are diagnosed, not measured.
  int length = 0;
  for (const sched::ScheduledOp& op : ops)
    if (op.cycle >= 0 && op.latency >= 1)
      length = std::max(length, op.cycle + op.latency);
  return lint_impl(architecture, ops, length, /*pre_construction=*/true,
                   Profile::kLint);
}

LintReport lint_context(const sched::ConfigurationContext& context) {
  return lint_impl(context.architecture(), context.ops(), context.length(),
                   /*pre_construction=*/false, Profile::kLint);
}

LintReport check_legality(const sched::ConfigurationContext& context) {
  return lint_impl(context.architecture(), context.ops(), context.length(),
                   /*pre_construction=*/false, Profile::kContract);
}

void require_legal(const sched::ConfigurationContext& context) {
  const LintReport report = check_legality(context);
  if (report.diagnostics.empty()) return;
  const Diagnostic& first = report.diagnostics.front();
  const std::size_t more = report.diagnostics.size() - 1;
  throw Error("illegal configuration context: " + first.rule + ": " +
              first.message +
              (more > 0 ? " (+" + std::to_string(more) + " more)" : ""));
}

void verify_context(const sched::ConfigurationContext& context) {
  const EmitFn raise = [](Finding f) {
    throw InvalidArgumentError(f.message);
  };
  std::vector<char> skip_replay(context.ops().size(), 0);
  validation_pass(context.architecture(), context.ops(), context.length(),
                  /*pre_construction=*/false, raise, skip_replay);
}

sched::IssueIndex verify_structural(
    const sched::ConfigurationContext& context) {
  const EmitFn raise = [](Finding f) { throw Error(f.message); };
  sched::IssueIndex issues = sched::build_issue_index(context.ops());
  structural_pass(context.architecture(), context.ops(), issues,
                  /*every_operand=*/false, raise);
  return issues;
}

}  // namespace rsp::analysis
