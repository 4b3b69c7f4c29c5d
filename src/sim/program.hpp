// Compiled simulation program: the event-driven engine's preprocessing pass.
//
// `SimProgram::compile` lowers a `sched::ConfigurationContext` into an
// immutable struct-of-arrays form executable without any per-cycle
// bookkeeping:
//
//   * op records are flattened into parallel vectors (kind, two operand
//     slots, immediate, interned array id + address) — integer ids
//     everywhere, no per-cycle string keys;
//   * the per-cycle issue lists become one CSR table over the *active*
//     cycles only (sched::IssueIndex, shared with the structural verifier
//     that builds it), so idle cycles cost nothing at compile or run time;
//   * every structural-legality check of the dense reference loop
//     (PE exclusivity, bus budgets, shared-unit arbitration, operand
//     readiness) is replayed once at compile time over exactly the dense
//     visitation order — equivalent because idle cycles never mutate the
//     dense loop's check state — and the utilisation statistics, which are
//     static properties of the schedule, are precomputed alongside.
//
// `run` is then a linear walk over the scheduled ops in dense execution
// order: bit-identical values, stats and final memory by construction (the
// VCD dump depends only on context + SimResult, so it is byte-identical
// too). One compiled program can be run against many independent memories;
// src/runtime/sim_batch.hpp fans that out over a ThreadPool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "sched/context.hpp"
#include "sim/machine.hpp"

namespace rsp::sim {

class SimProgram {
 public:
  /// Compiles (and fully legality-checks) a context. Throws the same
  /// rsp::Error diagnostics the dense engine would raise while executing.
  static SimProgram compile(const sched::ConfigurationContext& context);

  /// Executes the program against `memory`. const and reentrant: safe to
  /// call concurrently from many threads on distinct memories.
  SimResult run(ir::Memory& memory,
                ir::DatapathMode mode = ir::DatapathMode::kExact) const;

  std::int64_t size() const {
    return static_cast<std::int64_t>(kind_.size());
  }
  int total_cycles() const { return total_cycles_; }
  /// Cycles with at least one scheduled issue — the event engine's work set.
  std::int64_t active_cycle_count() const {
    return static_cast<std::int64_t>(issues_.active_cycles.size());
  }
  /// Schedule-static utilisation counters (identical to what a run reports).
  const UtilizationStats& static_stats() const { return stats_; }

 private:
  SimProgram() = default;

  // One operand slot: producer index into the op vectors, or an immediate
  // when producer < 0. An absent operand encodes as immediate 0, matching
  // the dense loop's "missing operand reads as 0" rule.
  std::vector<std::int32_t> producer_a_, producer_b_;
  std::vector<std::int64_t> imm_a_, imm_b_;

  std::vector<ir::OpKind> kind_;
  std::vector<std::int64_t> imm_;      // const value / shift amount
  std::vector<std::int32_t> array_id_; // memory ops; -1 otherwise
  std::vector<std::int64_t> address_;
  std::vector<std::string> array_names_;  // interned, indexed by array_id_

  // Activity list: op indices in dense execution order (issue cycle, then
  // op index), grouped per active cycle.
  sched::IssueIndex issues_;

  int total_cycles_ = 0;
  UtilizationStats stats_;
};

}  // namespace rsp::sim
