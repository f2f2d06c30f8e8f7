// Bounded retry with exponential backoff and deterministic jitter.
//
// Models the controller's control-channel resilience: a flow-mod install can
// fail in flight (switch busy, TCP hiccup on the management network), and the
// controller retries with capped exponential backoff before declaring the
// switch unreachable. All time here is *modeled* simulated time — the policy
// returns how long the exchange took so callers (SdtController::repair) can
// fold it into reconfiguration-time accounting; nothing sleeps.
//
// Jitter is deterministic: drawn from an Rng seeded by (policy seed, stream
// id), so two runs of the same repair produce bit-identical backoff totals
// regardless of thread interleaving in SweepRunner sweeps.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace sdt::retry {

struct RetryPolicy {
  int maxAttempts = 4;                    ///< total tries, including the first
  TimeNs attemptTimeout = usToNs(100.0);  ///< modeled cost of one failed attempt
  TimeNs baseBackoff = usToNs(50.0);      ///< wait before the 2nd attempt
  double backoffMultiplier = 2.0;         ///< growth per further attempt
  TimeNs maxBackoff = msToNs(5.0);        ///< cap on any single wait
  /// Jitter spread: each wait is backoff * uniform[1 - jitter, 1]. Zero
  /// disables jitter entirely (no RNG draw).
  double jitter = 0.5;
  std::uint64_t seed = 0xBACC0FFULL;
};

struct RetryResult {
  bool succeeded = false;
  int attempts = 0;     ///< attempts actually made (>= 1 unless maxAttempts < 1)
  TimeNs elapsed = 0;   ///< modeled time: failed-attempt timeouts + backoffs
  /// True when the policy allowed zero attempts (maxAttempts < 1): nothing
  /// ran, so `succeeded == false` means "never tried", not "tried and
  /// failed". Callers treating failure as "switch unreachable" must check
  /// this before acting on a result that never touched the network.
  bool neverAttempted = false;
};

/// Aggregate retry accounting across many exchanges. Dependency-free so
/// common/ stays at the bottom of the library DAG; callers that keep an
/// obs registry sync these totals into it.
struct RetryCounters {
  std::uint64_t attempts = 0;   ///< attempt() invocations
  std::uint64_t retries = 0;    ///< failed attempts that waited and retried
  std::uint64_t exhausted = 0;  ///< exchanges that ran out of attempts
  std::uint64_t backoffNs = 0;  ///< modeled backoff time accumulated
};

/// The one backoff formula (retryWithBackoff and controller::SwitchRounds):
/// the wait after failed attempt `attempt` (1-based) is baseBackoff *
/// backoffMultiplier^(attempt-1), times a jitter factor drawn from `rng`
/// (no draw when jitter is 0), clamped to maxBackoff. All of it stays in
/// double until the cast: the exponential overflows 2^63 within ~64 attempts,
/// and casting such a double to TimeNs is undefined behavior.
inline TimeNs backoffWait(const RetryPolicy& policy, int attempt, Rng& rng) {
  double wait = static_cast<double>(policy.baseBackoff);
  for (int i = 1; i < attempt; ++i) wait *= policy.backoffMultiplier;
  if (policy.jitter > 0.0) wait *= 1.0 - policy.jitter * rng.uniform();
  const double maxBackoff = static_cast<double>(policy.maxBackoff);
  if (!(wait < maxBackoff)) wait = maxBackoff;
  return static_cast<TimeNs>(wait);
}

/// Run `attempt(i)` (i = 1-based attempt number, returns true on success) up
/// to policy.maxAttempts times. `streamId` decorrelates jitter across
/// concurrent logical streams (e.g. one per switch being repaired).
/// `counters`, when given, accumulates across calls.
template <typename AttemptFn>
RetryResult retryWithBackoff(const RetryPolicy& policy, std::uint64_t streamId,
                             AttemptFn&& attempt,
                             RetryCounters* counters = nullptr) {
  RetryResult result;
  if (policy.maxAttempts < 1) {
    // Degenerate policy: no attempt budget at all. Make the "nothing ran"
    // outcome explicit (and count it as an exhausted exchange) instead of
    // returning a silent attempts == 0 failure.
    result.neverAttempted = true;
    if (counters) ++counters->exhausted;
    return result;
  }
  std::uint64_t mix = policy.seed ^ streamId;
  Rng rng(detail::splitmix64(mix));
  for (int i = 1; i <= policy.maxAttempts; ++i) {
    ++result.attempts;
    if (counters) ++counters->attempts;
    if (attempt(i)) {
      result.succeeded = true;
      return result;
    }
    result.elapsed += policy.attemptTimeout;  // waited the full ack window
    if (i == policy.maxAttempts) break;
    if (counters) ++counters->retries;
    const TimeNs wait = backoffWait(policy, i, rng);
    result.elapsed += wait;
    if (counters) counters->backoffNs += static_cast<std::uint64_t>(wait);
  }
  if (counters && !result.succeeded) ++counters->exhausted;
  return result;
}

}  // namespace sdt::retry
