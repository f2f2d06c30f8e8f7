#include "sim/faults.hpp"

#include <cassert>

namespace sdt::sim {

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPortDown: return "port-down";
    case FaultKind::kPortUp: return "port-up";
    case FaultKind::kCableCut: return "cable-cut";
    case FaultKind::kCableRestore: return "cable-restore";
    case FaultKind::kSwitchCrash: return "switch-crash";
    case FaultKind::kSwitchReboot: return "switch-reboot";
    case FaultKind::kPortStall: return "port-stall";
    case FaultKind::kPortUnstall: return "port-unstall";
    case FaultKind::kImpair: return "impair";
    case FaultKind::kOverloadStorm: return "overload-storm";
    case FaultKind::kOverloadEnd: return "overload-end";
  }
  return "?";
}

FaultInjector::FaultInjector(Simulator& sim, Network& net, std::uint64_t seed)
    : sim_(&sim), net_(&net), controlRng_(seed ^ 0xC0A70CC5ULL) {
  net_->seedFaultRng(seed);
}

void FaultInjector::arm() {
  for (; armed_ < schedule_.size(); ++armed_) {
    // Carry the index, not the spec, so the closure stays inline; a copy
    // keeps apply() safe if it schedules further faults.
    auto fire = [this, i = armed_]() {
      const FaultSpec spec = schedule_[i];
      apply(spec);
    };
    static_assert(Simulator::kFitsInline<decltype(fire)>);
    sim_->scheduleAt(schedule_[armed_].at, fire);
  }
}

void FaultInjector::apply(const FaultSpec& spec) {
  AppliedFault record;
  record.at = sim_->now();
  record.kind = spec.kind;
  record.sw = spec.sw;
  record.port = spec.port;
  switch (spec.kind) {
    case FaultKind::kPortDown:
      net_->setPortUp(spec.sw, spec.port, false);
      break;
    case FaultKind::kPortUp:
      net_->setPortUp(spec.sw, spec.port, true);
      break;
    case FaultKind::kCableCut:
    case FaultKind::kCableRestore: {
      const bool up = spec.kind == FaultKind::kCableRestore;
      net_->setPortUp(spec.sw, spec.port, up);
      // A cable has two ends: the peer port dies (or recovers) with it.
      if (const auto peer = net_->switchPeerOf(spec.sw, spec.port)) {
        net_->setPortUp(peer->first, peer->second, up);
        record.peerSw = peer->first;
        record.peerPort = peer->second;
      }
      break;
    }
    case FaultKind::kSwitchCrash:
      assert(spec.sw >= 0 && spec.sw < static_cast<int>(ofSwitches_.size()) &&
             "attachSwitches() before crashing a switch");
      ofSwitches_[spec.sw]->table().clear();
      break;
    case FaultKind::kSwitchReboot:
      assert(spec.sw >= 0 && spec.sw < static_cast<int>(ofSwitches_.size()) &&
             "attachSwitches() before rebooting a switch");
      ofSwitches_[spec.sw]->reboot();
      break;
    case FaultKind::kPortStall:
      net_->setPortStalled(spec.sw, spec.port, true);
      break;
    case FaultKind::kPortUnstall:
      net_->setPortStalled(spec.sw, spec.port, false);
      break;
    case FaultKind::kImpair:
      net_->setPortImpairment(spec.sw, spec.port, spec.dropProb, spec.corruptProb);
      break;
    case FaultKind::kOverloadStorm:
    case FaultKind::kOverloadEnd:
      record.intensity = spec.intensity;
      record.srcHost = spec.srcHost;
      if (overloadSink_) overloadSink_(spec);
      break;
  }
  trace_.push_back(record);
}

std::function<bool(int)> FaultInjector::controlChannel() {
  return [this](int /*attempt*/) {
    if (controlFailureProb_ <= 0.0) return true;
    return controlRng_.uniform() >= controlFailureProb_;
  };
}

}  // namespace sdt::sim
