#include "admission/admission.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace sdt::admission {

const char* priorityName(Priority cls) {
  switch (cls) {
    case Priority::kGold: return "gold";
    case Priority::kSilver: return "silver";
    case Priority::kBronze: return "bronze";
  }
  return "?";
}

const char* decisionName(Decision d) {
  switch (d) {
    case Decision::kAdmit: return "admit";
    case Decision::kDefer: return "defer";
    case Decision::kShed: return "shed";
  }
  return "?";
}

StatusOr Policy::validate() const {
  if (sampleInterval <= 0) return makeError("admission: sampleInterval must be > 0");
  if (queueHighWatermarkBytes <= 0) {
    return makeError("admission: queueHighWatermarkBytes must be > 0");
  }
  if (pressureLowWater < 0.0 || pressureLowWater >= 1.0) {
    return makeError("admission: pressureLowWater must be in [0, 1)");
  }
  if (pressureSmoothing <= 0.0 || pressureSmoothing > 1.0) {
    return makeError("admission: pressureSmoothing must be in (0, 1]");
  }
  if (creditRateFractionFloor <= 0.0 || creditRateFractionFloor > 1.0) {
    return makeError("admission: creditRateFractionFloor must be in (0, 1]");
  }
  if (creditBurstBytes <= 0) return makeError("admission: creditBurstBytes must be > 0");
  if (signalDelay < 0) return makeError("admission: signalDelay must be >= 0");
  if (deferDelay <= 0) return makeError("admission: deferDelay must be > 0");
  if (maxDefers < 0) return makeError("admission: maxDefers must be >= 0");
  for (int c = 0; c < kNumPriorities; ++c) {
    const ClassPolicy& cp = classes[static_cast<std::size_t>(c)];
    if (cp.utilityWeight <= 0.0) {
      return makeError(std::string("admission: class ") +
                       priorityName(static_cast<Priority>(c)) +
                       " utilityWeight must be > 0");
    }
    if (cp.sloNs <= 0) {
      return makeError(std::string("admission: class ") +
                       priorityName(static_cast<Priority>(c)) + " sloNs must be > 0");
    }
    if (cp.shedAtPressure <= 0.0) {
      return makeError(std::string("admission: class ") +
                       priorityName(static_cast<Priority>(c)) +
                       " shedAtPressure must be > 0");
    }
  }
  return StatusOr::okStatus();
}

AdmissionController::AdmissionController(sim::Simulator& sim, sim::Network& net,
                                         Policy policy)
    : sim_(&sim), net_(&net), policy_(policy) {
  buckets_.resize(static_cast<std::size_t>(net.numHosts()));
  for (HostBucket& b : buckets_) {
    b.credits = static_cast<double>(policy_.creditBurstBytes);
  }
}

void AdmissionController::attachMetrics(obs::Registry& registry) {
  // Queue-fill buckets in fractions of the high watermark (the 4.0 bucket
  // catches a fabric far past collapse).
  const std::vector<double> fillBounds = {0.05, 0.1, 0.25, 0.5, 0.75,
                                          1.0,  1.5, 2.0,  4.0};
  pressureGauge_ =
      &registry.gauge("sdt_adm_pressure", {}, "global overload pressure");
  fillHist_ = &registry.histogram("sdt_adm_queue_fill", fillBounds, {},
                                  "sampled max egress occupancy / high watermark");
  for (int c = 0; c < kNumPriorities; ++c) {
    for (int d = 0; d < 3; ++d) {
      const obs::Labels labels = {
          {"class", priorityName(static_cast<Priority>(c))},
          {"decision", decisionName(static_cast<Decision>(d))}};
      decisionCtr_[static_cast<std::size_t>(c)][static_cast<std::size_t>(d)] =
          &registry.counter("sdt_adm_decisions_total", labels,
                            "admission decisions by class and outcome");
    }
  }
}

void AdmissionController::start(TimeNs until) {
  assert(policy_.validate().ok() && "invalid admission policy");
  const TimeNs first = std::min<TimeNs>(policy_.sampleInterval, until);
  sim_->schedule(first, [this, until]() { sample(until); });
}

double AdmissionController::rateFraction(double pressure) const {
  if (pressure <= policy_.pressureLowWater) return 1.0;
  if (pressure >= 1.0) return policy_.creditRateFractionFloor;
  const double span = 1.0 - policy_.pressureLowWater;
  const double t = (pressure - policy_.pressureLowWater) / span;
  return 1.0 - t * (1.0 - policy_.creditRateFractionFloor);
}

void AdmissionController::settle(HostBucket& bucket, double pressure, int host) {
  const TimeNs now = sim_->now();
  if (now > bucket.settledAt) {
    const double refill =
        net_->hostLinkSpeed(host).bytesIn(now - bucket.settledAt) *
        rateFraction(pressure);
    bucket.credits = std::min(bucket.credits + refill,
                              static_cast<double>(policy_.creditBurstBytes));
  }
  bucket.settledAt = now;
}

Decision AdmissionController::request(int srcHost, Priority cls, std::int64_t bytes) {
  assert(srcHost >= 0 && srcHost < net_->numHosts());
  assert(bytes > 0);
  const auto ci = static_cast<std::size_t>(priorityIndex(cls));
  ClassCounters& cc = counters_[ci];
  ++cc.requested;

  Decision decision = Decision::kAdmit;
  if (policy_.enabled) {
    const ClassPolicy& cp = policy_.classes[ci];
    if (pressure_ >= cp.shedAtPressure) {
      decision = Decision::kShed;
    } else {
      HostBucket& bucket = buckets_[static_cast<std::size_t>(srcHost)];
      settle(bucket, pressure_, srcHost);
      const double charge = static_cast<double>(bytes) / cp.utilityWeight;
      if (bucket.credits >= charge) {
        bucket.credits -= charge;
      } else {
        decision = Decision::kDefer;
      }
    }
  }

  switch (decision) {
    case Decision::kAdmit:
      ++cc.admitted;
      cc.admittedBytes += bytes;
      break;
    case Decision::kDefer:
      ++cc.deferred;
      break;
    case Decision::kShed:
      ++cc.shed;
      cc.shedBytes += bytes;
      break;
  }
  if (obs::Counter* ctr = decisionCtr_[ci][static_cast<std::size_t>(decision)]) {
    ctr->inc();
  }
  return decision;
}

void AdmissionController::sample(TimeNs until) {
  ++samples_;
  std::int64_t maxBytes = 0;
  if (!watchPorts_.empty()) {
    // Tenant-scoped sampling: only the slice's own queues feed pressure, so
    // a co-tenant's congestion never throttles this controller's hosts.
    for (const auto& [sw, p] : watchPorts_) {
      maxBytes = std::max(maxBytes, net_->switchEgressBytes(sw, p));
    }
  } else {
    for (int sw = 0; sw < net_->numSwitches(); ++sw) {
      const int ports = net_->switchPortCount(sw);
      for (int p = 0; p < ports; ++p) {
        maxBytes = std::max(maxBytes, net_->switchEgressBytes(sw, p));
      }
    }
  }
  const double fill = static_cast<double>(maxBytes) /
                      static_cast<double>(policy_.queueHighWatermarkBytes);
  if (fillHist_ != nullptr) fillHist_->observe(fill);
  sim_->schedule(policy_.signalDelay, [this, fill]() { brokerUpdate(fill); });
  if (sim_->now() + policy_.sampleInterval <= until) {
    sim_->schedule(policy_.sampleInterval, [this, until]() { sample(until); });
  }
}

void AdmissionController::brokerUpdate(double fill) {
  smoothedPressure_ = policy_.pressureSmoothing * fill +
                      (1.0 - policy_.pressureSmoothing) * smoothedPressure_;
  const double global = smoothedPressure_;
  peakPressure_ = std::max(peakPressure_, global);
  sim_->schedule(policy_.signalDelay, [this, global]() {
    pressure_ = global;
    if (pressureGauge_ != nullptr) pressureGauge_->set(global);
  });
}

}  // namespace sdt::admission
