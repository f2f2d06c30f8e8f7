// Per-switch request/ack rounds over the unreliable control channel.
//
// The two-phase live update (controller/transaction.hpp) and crash recovery
// (controller/recovery.hpp) both advance in rounds: one request to every
// switch in scope, then wait for every ack. SwitchRounds is that machine.
// Per switch it sends attempt 1 and arms an attemptTimeout timer; a timer
// that fires before the switch completed either schedules a resend after
// retry::backoffWait (jitter from the switch's own Rng) or, at the round's
// attempt cap, hands the switch to the caller's exhaustion callback.
// Opening a round bumps a generation counter that retires the previous
// round's timers.
//
// Attempt caps:
//   reconfigure  install, barrier     retry.maxAttempts; exhaustion aborts
//                flip, gc, rollback   commitAttempts; exhaustion gives up on
//                                     the switch (reported unverified)
//   recover      readback, converge,  convergeAttempts; exhaustion fails
//                verify               the run
//
// The caller keeps the protocol: what a request does at the switch, which
// acks are stale, and what exhaustion means. SwitchRounds also owns retry
// accounting (totals and sdt_controller_retry_attempts_total{op,phase}) and
// the trace spans: an `op` root with one `op.phase` child per phase.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

// OpenFlow transfer ids of the two protocols' mutating bundles. A retry
// reuses its bundle's xid, so the switch applies the first delivered copy
// and only re-acks the rest (openflow::Switch::acceptXid). The 16-bit tags
// (0xF10D transaction, 0x4EC0 recovery) keep the spaces disjoint: a late
// duplicate from a crashed transaction never masks a recovery bundle. No
// switch id: each switch owns its own dedup cache.

/// One xid per (target epoch, round); the epoch carries the tenant.
inline std::uint64_t txXid(std::uint32_t toEpoch, int round) {
  return (0xF10DULL << 48) | (static_cast<std::uint64_t>(toEpoch) << 16) |
         static_cast<std::uint64_t>(round);
}

/// One xid per (tenant, anti-entropy iteration): each iteration's bundle is
/// fresh, and concurrent tenants on a shared switch stay apart.
inline std::uint64_t recoveryXid(std::uint16_t tenant, int round) {
  return (0x4EC0ULL << 48) | (static_cast<std::uint64_t>(tenant) << 32) |
         static_cast<std::uint32_t>(round);
}

class SwitchRounds {
 public:
  /// Send the open round's request to `sw` (first attempt or a resend).
  using SendFn = std::function<void(int sw)>;
  /// `sw` made `attempts` attempts, the round's cap, without completing.
  using ExhaustedFn = std::function<void(int sw, int attempts)>;
  using Attributes = obs::OpSpan::Attributes;

  struct Options {
    const char* op = "";      ///< root span name and the metric's op label
    std::uint64_t salt = 0;   ///< jitter streams: retry.seed ^ (salt + sw)
    retry::RetryPolicy retry;
    obs::Tracer* tracer = nullptr;
    obs::Registry* metrics = nullptr;
  };

  SwitchRounds(sim::Simulator& sim, int numSwitches, Options options, SendFn send,
               ExhaustedFn exhausted);
  SwitchRounds(const SwitchRounds&) = delete;
  SwitchRounds& operator=(const SwitchRounds&) = delete;

  /// reset(), then open a round with metric label `phase` and cap `cap`.
  void begin(const char* phase, int cap) {
    reset();
    phase_ = phase;
    cap_ = cap;
  }
  [[nodiscard]] const char* phase() const { return phase_; }
  /// End the open round: bump the generation (its timers no-op) and clear
  /// every switch's completion.
  void reset();
  /// First attempt of the open round to `sw` (no-op once `sw` completed).
  void send(int sw) { attempt(sw, 1); }
  /// Record `sw` done for the open round; returns the round's ack count.
  int complete(int sw) {
    complete_[static_cast<std::size_t>(sw)] = 1;
    return ++acks_;
  }
  [[nodiscard]] bool completed(int sw) const {
    return complete_[static_cast<std::size_t>(sw)] != 0;
  }
  [[nodiscard]] std::uint64_t generation() const { return gen_; }
  /// Stop for good (finished, crashed, cancelled): nothing acts again.
  void stop() {
    stopped_ = true;
    ++gen_;
  }

  /// Sends beyond the first attempt, summed over all rounds.
  [[nodiscard]] int retriesTotal() const { return retriesTotal_; }
  [[nodiscard]] int retries(int sw) const {
    return retries_[static_cast<std::size_t>(sw)];
  }

  /// Open the root span `op` and annotate it (no-op without a tracer).
  void traceStart(const Attributes& attrs);
  /// Close the open phase span and open `op.name` under the root.
  void tracePhase(const char* name);
  /// Close both spans. The root gets "outcome", then `attrs`, then
  /// "retries", then "failure" when `failure` is non-empty.
  void traceFinish(const char* outcome, const std::string& failure, Attributes attrs);

 private:
  void attempt(int sw, int n);
  void onTimeout(int sw, int n, std::uint64_t gen);

  sim::Simulator* sim_;
  Options options_;
  SendFn send_;
  ExhaustedFn exhausted_;

  const char* phase_ = "";
  int cap_ = 0;
  bool stopped_ = false;
  std::uint64_t gen_ = 0;
  int acks_ = 0;
  std::vector<char> complete_;  ///< per switch, cleared by reset()
  std::vector<Rng> backoffRng_;  ///< per switch, deterministic jitter
  int retriesTotal_ = 0;
  std::vector<int> retries_;
  obs::OpSpan span_;
};

}  // namespace sdt::controller
