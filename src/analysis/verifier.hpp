// Static verifier over placed-and-scheduled programs.
//
// One checking implementation serves three callers:
//   * `lint_*` walk every rule and return a full LintReport — the engine
//     behind `rsp_cli lint` and the v2 protocol `lint` op.
//   * `check_legality` / `require_legal` run the scheduler contract: the
//     simulator's rules plus the stricter ones every scheduler output must
//     satisfy. The service, DSE step 1 and the fuzzer gate contexts here.
//   * `verify_context` / `verify_structural` stop at the first violation
//     and throw exactly what the simulator historically threw
//     (InvalidArgumentError for per-op validation rules, rsp::Error for
//     structural-replay rules). `sim::validate_context` and
//     `sim::SimProgram::compile` delegate here, so a compile-time error and
//     the corresponding lint finding carry identical messages.
//
// The dense reference engine (`Machine::run_dense`) intentionally keeps its
// own inline checks: it is the independent implementation the differential
// tests compare everything else against.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "arch/presets.hpp"
#include "sched/context.hpp"

namespace rsp::analysis {

/// Full lint of a raw schedule that may not even construct a
/// ConfigurationContext (negative cycles, zero latencies). Emits the
/// context constructor's messages for those, then every context rule.
LintReport lint_schedule(const arch::Architecture& architecture,
                         const std::vector<sched::ScheduledOp>& ops);

/// Full lint of a constructed (hence cycle/latency-sane) context.
LintReport lint_context(const sched::ConfigurationContext& context);

/// Scheduler-contract check of a context: the validation and structural
/// rules, readiness over every non-immediate operand, RSP-W001/W007/W008
/// as errors and the contract-only RSP-C001..C003. Skips the lint-only
/// RSP-W002..W006. Every finding is an error, so clean() == legal.
LintReport check_legality(const sched::ConfigurationContext& context);

/// Throws rsp::Error naming the first contract finding's rule id and
/// message if `context` is illegal.
void require_legal(const sched::ConfigurationContext& context);

/// Per-op validation rules (RSP-V*) in op-index order; throws
/// InvalidArgumentError with the first violation's message. This is the
/// body of `sim::validate_context`.
void verify_context(const sched::ConfigurationContext& context);

/// Structural-replay rules (RSP-S*) in issue order (cycle asc, op index
/// asc); throws rsp::Error with the first violation's message, otherwise
/// returns the issue index the replay walked. Call only after
/// `verify_context` passed — the replay indexes arrays with the bounds
/// that pass established. This is the check half of
/// `sim::SimProgram::compile`, which executes through the returned index.
sched::IssueIndex verify_structural(const sched::ConfigurationContext& context);

}  // namespace rsp::analysis
