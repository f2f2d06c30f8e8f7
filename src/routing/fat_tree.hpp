// Fat-Tree routing (paper Table III: "Depth-First Search (DFS)").
//
// Implements the classic up*/down* discipline the DFS search converges to on
// a Fat-Tree: climb toward the core only as far as the lowest common level,
// then descend. Upward port choice is ECMP-hashed per flow; downward paths
// are unique by construction. Up/down paths cannot form channel cycles, so
// no virtual channels are needed (Table III: "No need").
//
// The switch-id layout is the one `makeFatTree` produces: cores first, then
// per pod the aggregation switches followed by the edge switches. create()
// re-derives k from the switch count and verifies the structure.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "routing/routing.hpp"

namespace sdt::routing {

class FatTreeRouting : public RoutingAlgorithm {
 public:
  static Result<std::unique_ptr<FatTreeRouting>> create(const topo::Topology& topo);

  [[nodiscard]] std::string name() const override { return "fattree-dfs"; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const override;

  [[nodiscard]] int k() const { return k_; }

  /// Level of a switch: 0 = core, 1 = aggregation, 2 = edge.
  [[nodiscard]] int levelOf(topo::SwitchId sw) const;
  [[nodiscard]] int podOf(topo::SwitchId sw) const;

  /// All up-ports usable at `sw` toward `dst`, ascending (the ECMP set the
  /// flow hash indexes; empty where the path turns down).
  [[nodiscard]] std::span<const topo::PortId> upCandidates(topo::SwitchId sw,
                                                           topo::HostId dst) const;

 private:
  FatTreeRouting(const topo::Topology& topo, int k);

  [[nodiscard]] int numCore() const { return (k_ / 2) * (k_ / 2); }

  int k_;
  /// portTo_[sw] maps neighbor switch -> local out port (built once).
  std::vector<std::vector<std::pair<topo::SwitchId, topo::PortId>>> portTo_;
  /// upPorts_[sw]: sorted ports toward the level above (built once).
  std::vector<std::vector<topo::PortId>> upPorts_;

  [[nodiscard]] Result<topo::PortId> portToward(topo::SwitchId sw,
                                                topo::SwitchId neighbor) const;
};

}  // namespace sdt::routing
