// Overload-robust admission control: per-host credits fed by switch queue
// depths, utility-weighted priority classes, and SLO-aware load shedding.
//
// The SDT plant faithfully reproduces a fabric's behavior *below* saturation;
// past it, an open-loop workload (incast, flash crowd) simply piles bytes
// into lossy queues until goodput collapses — DCQCN alone cannot save an
// open-loop source that keeps injecting new flows. This layer is the missing
// edge brake (ROADMAP item 4): a backpressure signal derived from switch
// egress occupancy throttles each host's *injection* of new flows, so that
// offered load beyond capacity is absorbed as deferred/shed flows at the
// edge instead of as queue collapse in the core.
//
// Mechanism, end to end:
//   1. A sampler reads the switches' egress occupancy every
//      `sampleInterval` and reduces it to a fill fraction (max queue bytes /
//      queueHighWatermarkBytes).
//   2. Samples flow to a broker, which smooths them into one global
//      *pressure* value and broadcasts it back — both legs travel as
//      simulator events, so the signal path is exactly as deterministic as
//      the data plane.
//   3. Each host owns a credit bucket refilled at
//      lineRate x rateFraction(pressure): full rate while the fabric is
//      calm, throttled linearly toward `creditRateFractionFloor` as
//      pressure approaches 1.0. A flow of B bytes at priority class c
//      charges B / utilityWeight(c) credits — higher-utility classes buy
//      more bytes per credit (utility-based admission, Kreutz et al. §V).
//   4. Above a per-class pressure threshold the class is shed outright
//      (SLO-aware: bronze gives up long before gold), and a flow that
//      cannot afford its charge is deferred for the caller to retry.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sdt::admission {

/// Priority classes, highest utility first. Values index Policy::classes.
enum class Priority : std::uint8_t { kGold = 0, kSilver = 1, kBronze = 2 };
inline constexpr int kNumPriorities = 3;

const char* priorityName(Priority cls);

[[nodiscard]] constexpr int priorityIndex(Priority cls) {
  return static_cast<int>(cls);
}

/// Per-class admission knobs.
struct ClassPolicy {
  /// Credits charged for a flow = bytes / utilityWeight: a weight-4 class
  /// buys 4x the bytes per credit of a weight-1 class.
  double utilityWeight = 1.0;
  /// Completion-latency SLO for the class (workload drivers score against
  /// it; admission sheds to protect it).
  TimeNs sloNs = msToNs(10.0);
  /// Shed (reject outright) flows of this class once global pressure
  /// reaches this level. > 1.0 effectively disables shedding for the class.
  double shedAtPressure = 1.0;
};

struct Policy {
  /// Defaults: gold = latency-critical RPC (never shed until far past
  /// saturation), silver = normal serving traffic, bronze = batch/background
  /// (first against the wall).
  std::array<ClassPolicy, kNumPriorities> classes{
      ClassPolicy{4.0, msToNs(2.0), 1.5},
      ClassPolicy{2.0, msToNs(10.0), 0.9},
      ClassPolicy{1.0, msToNs(50.0), 0.6},
  };
  /// Queue-depth sampling period.
  TimeNs sampleInterval = usToNs(100.0);
  /// Egress occupancy that counts as pressure 1.0. Sits below the lossy
  /// drop cap so admission reacts before the fabric starts dropping.
  std::int64_t queueHighWatermarkBytes = 128 * kKiB;
  /// Pressure below which hosts refill at full line rate.
  double pressureLowWater = 0.25;
  /// EWMA weight the broker gives each new global sample: the broadcast
  /// pressure is smoothed = alpha * sample + (1 - alpha) * smoothed. A
  /// synchronized incast round fills a queue for a few microseconds and
  /// drains; without smoothing one unlucky sample reads as sustained
  /// overload and sheds traffic a healthy fabric could carry. 1.0 disables
  /// smoothing (raw samples).
  double pressureSmoothing = 0.35;
  /// Refill-rate fraction reached at pressure 1.0 (never throttle to zero:
  /// a trickle keeps gold traffic moving and the signal loop alive).
  double creditRateFractionFloor = 0.05;
  /// Bucket capacity (burst allowance) in credit units (~bytes at weight 1).
  std::int64_t creditBurstBytes = 64 * kKiB;
  /// Modeled propagation of a pressure signal leg (sampler->broker and
  /// broker->hosts).
  TimeNs signalDelay = usToNs(1.0);
  /// Suggested retry spacing for deferred flows (drivers own the retry loop).
  TimeNs deferDelay = usToNs(50.0);
  /// Defers before a driver should give up and count the flow shed.
  int maxDefers = 4;
  /// Master switch: disabled => every request admits (the baseline arm of
  /// bench_overload).
  bool enabled = true;

  [[nodiscard]] StatusOr validate() const;
};

enum class Decision : std::uint8_t { kAdmit = 0, kDefer = 1, kShed = 2 };

const char* decisionName(Decision d);

class AdmissionController {
 public:
  /// The network must already be wired (the builder does this).
  AdmissionController(sim::Simulator& sim, sim::Network& net, Policy policy = {});

  /// Replace the policy. Call before start() / outside a run (the
  /// controller distributes policies between runs, not mid-window).
  void setPolicy(const Policy& policy) { policy_ = policy; }
  [[nodiscard]] const Policy& policy() const { return policy_; }

  /// Wire decision counters, the pressure gauge, and the queue-fill
  /// histogram into `registry`. Call before start().
  void attachMetrics(obs::Registry& registry);

  /// Restrict the pressure samplers to these (switch, egress port) pairs
  /// (multi-tenant scoping: a per-tenant controller watches only the queues
  /// its slice's traffic can fill, so one tenant's storm cannot throttle a
  /// neighbor's credits). Empty (the default) samples every port of every
  /// switch. Call before start().
  void restrictToPorts(std::vector<std::pair<int, int>> ports) {
    watchPorts_ = std::move(ports);
  }

  /// Arm the pressure sampler; it self-stops once the next sample would
  /// land past `until`. Call before Simulator::run().
  void start(TimeNs until);

  /// Ask to inject a flow of `bytes` at priority `cls` from `srcHost`.
  Decision request(int srcHost, Priority cls, std::int64_t bytes);

  /// Latest broadcast pressure (workloads/tests introspection).
  [[nodiscard]] double pressure() const { return pressure_; }

  // -- Statistics -------------------------------------------------------------
  struct ClassCounters {
    std::uint64_t requested = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t shed = 0;
    std::int64_t admittedBytes = 0;
    std::int64_t shedBytes = 0;
  };
  [[nodiscard]] ClassCounters classCounters(Priority cls) const {
    return counters_[static_cast<std::size_t>(priorityIndex(cls))];
  }
  /// Queue samples taken.
  [[nodiscard]] std::uint64_t samplesTaken() const { return samples_; }
  /// Highest global pressure the broker ever computed.
  [[nodiscard]] double peakPressure() const { return peakPressure_; }

 private:
  struct HostBucket {
    double credits = 0.0;
    TimeNs settledAt = 0;
  };

  [[nodiscard]] double rateFraction(double pressure) const;
  void settle(HostBucket& bucket, double pressure, int host);
  void sample(TimeNs until);
  void brokerUpdate(double fill);

  sim::Simulator* sim_;
  sim::Network* net_;
  Policy policy_;
  /// Non-empty: the only (switch, port) queues the samplers read.
  std::vector<std::pair<int, int>> watchPorts_;
  std::vector<HostBucket> buckets_;  ///< one per host
  double pressure_ = 0.0;            ///< latest broadcast global pressure
  double smoothedPressure_ = 0.0;    ///< broker state
  double peakPressure_ = 0.0;        ///< broker state
  std::array<ClassCounters, kNumPriorities> counters_{};
  std::uint64_t samples_ = 0;
  // Obs cells (pre-created in attachMetrics; null when not attached).
  obs::Gauge* pressureGauge_ = nullptr;
  obs::Histogram* fillHist_ = nullptr;
  std::array<std::array<obs::Counter*, 3>, kNumPriorities> decisionCtr_{};
};

}  // namespace sdt::admission
