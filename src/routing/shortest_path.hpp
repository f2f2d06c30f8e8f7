// BFS shortest-path routing with deterministic per-flow ECMP.
//
// The general-purpose strategy for WAN topologies (Table II's 261 Internet
// graphs) and any topology without a dedicated algorithm. Deadlock freedom
// is not guaranteed in general (WANs run lossy ethernet, where it is moot).
//
// Optionally congestion-aware: with a CongestionOracle installed the
// per-flow hash picks among the *least-loaded* equal-cost candidates
// instead of all of them, spreading elephant collisions under overload
// (same oracle contract as AdaptiveDragonflyRouting).
#pragma once

#include <functional>
#include <vector>

#include "routing/routing.hpp"

namespace sdt::routing {

class ShortestPathRouting : public RoutingAlgorithm {
 public:
  /// Load estimate for (switch, out port) — typically queued bytes.
  /// The oracle runs inside the data-plane forwarding decision at `sw`, so
  /// it should read only what that switch can see locally (its own egress
  /// queues), as a real switch would.
  using CongestionOracle = std::function<double(topo::SwitchId, topo::PortId)>;

  explicit ShortestPathRouting(const topo::Topology& topo);

  [[nodiscard]] std::string name() const override { return "shortest"; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const override;

  /// All equal-cost out-ports at `sw` toward `dst` (ECMP set).
  [[nodiscard]] std::vector<topo::PortId> candidates(topo::SwitchId sw,
                                                     topo::HostId dst) const;

  /// Weight ECMP choices by load: nextHop() restricts the hash pick to the
  /// candidates whose oracle load ties for minimum (deterministic at equal
  /// loads — the tie set is ordered by port id).
  void setCongestionOracle(CongestionOracle oracle) { oracle_ = std::move(oracle); }

 private:
  /// dist_[dstSwitch][sw] = hop distance in the switch graph.
  std::vector<std::vector<int>> dist_;
  CongestionOracle oracle_;
};

}  // namespace sdt::routing
