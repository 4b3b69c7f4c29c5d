// One bounded, deterministic retry/backoff policy for every loop in the
// tree that re-attempts an operation: `api::connect_socket` retries and
// the DSE coordinator's shard redispatch and link reconnects. A single
// policy type gives those loops one vocabulary (attempt budget, base
// backoff, linear/exponential growth, a per-delay cap) and one give-up
// message shape that always names the operation and the budget, instead of
// each call site hand-rolling its own sleep loop and error text.
//
// Delays are pure functions of the attempt count — no jitter, no clock
// reads — so tests can assert worst-case wall time and two runs of the
// same scenario behave identically.
#pragma once

#include <string>

namespace rsp::util {

struct RetryPolicy {
  enum class Backoff { kLinear, kExponential };

  /// Total tries allowed, the first attempt included; 1 = never retry.
  int attempts = 1;
  /// Base delay; the k-th retry waits delay_ms(k) first.
  int backoff_ms = 25;
  /// kLinear: backoff_ms × k — bounded, predictable worst case (the
  /// default for connect/redispatch). kExponential: backoff_ms × 2^(k-1) —
  /// for retries racing an unknown recovery time.
  Backoff backoff = Backoff::kLinear;
  /// Cap applied to any single delay, whatever the growth curve says.
  int max_backoff_ms = 60000;

  /// Throws InvalidArgumentError (message prefixed with `what`) on a
  /// nonsensical policy.
  void validate(const std::string& what) const;

  /// True while another try is allowed after `attempts_made` failures.
  bool should_retry(int attempts_made) const {
    return attempts_made < attempts;
  }

  /// Deterministic delay before attempt `attempts_made + 1`; 0 when no
  /// failure has happened yet or backoff is disabled.
  int delay_ms(int attempts_made) const;

  /// Sleeps for delay_ms(attempts_made); no-op when that is 0.
  void sleep_before_retry(int attempts_made) const;

  /// "<what> gave up after N attempt(s): <last_error>" — the one give-up
  /// message every retrying call site reports.
  std::string give_up(const std::string& what,
                      const std::string& last_error) const;
};

}  // namespace rsp::util
