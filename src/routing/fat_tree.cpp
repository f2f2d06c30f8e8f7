#include "routing/fat_tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace sdt::routing {

namespace {
/// Solve 5(k/2)^2 == numSwitches for even k (cores + k*(k/2+k/2) pods).
int inferK(int numSwitches) {
  const double half = std::sqrt(static_cast<double>(numSwitches) / 5.0);
  const int k = static_cast<int>(std::lround(half * 2.0));
  if (k < 2 || k % 2 != 0) return -1;
  const int expected = (k / 2) * (k / 2) + k * k;
  return expected == numSwitches ? k : -1;
}
}  // namespace

FatTreeRouting::FatTreeRouting(const topo::Topology& topo, int k)
    : RoutingAlgorithm(topo), k_(k) {
  portTo_.resize(static_cast<std::size_t>(topo.numSwitches()));
  for (int li = 0; li < topo.numLinks(); ++li) {
    const topo::Link& link = topo.link(li);
    portTo_[link.a.sw].emplace_back(link.b.sw, link.a.port);
    portTo_[link.b.sw].emplace_back(link.a.sw, link.b.port);
  }
  upPorts_.resize(portTo_.size());
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    for (const auto& [peer, port] : portTo_[sw]) {
      if (levelOf(peer) == levelOf(sw) - 1) upPorts_[sw].push_back(port);
    }
    std::sort(upPorts_[sw].begin(), upPorts_[sw].end());
  }
}

Result<std::unique_ptr<FatTreeRouting>> FatTreeRouting::create(const topo::Topology& topo) {
  const int k = inferK(topo.numSwitches());
  if (k < 0) {
    return makeError(strFormat("topology '%s' (%d switches) is not a standard fat-tree",
                               topo.name().c_str(), topo.numSwitches()));
  }
  if (topo.numHosts() != k * k * k / 4) {
    return makeError(strFormat("fat-tree k=%d expects %d hosts, topology has %d", k,
                               k * k * k / 4, topo.numHosts()));
  }
  return std::unique_ptr<FatTreeRouting>(new FatTreeRouting(topo, k));
}

int FatTreeRouting::levelOf(topo::SwitchId sw) const {
  if (sw < numCore()) return 0;
  const int inPod = (sw - numCore()) % k_;
  return inPod < k_ / 2 ? 1 : 2;
}

int FatTreeRouting::podOf(topo::SwitchId sw) const {
  if (sw < numCore()) return -1;
  return (sw - numCore()) / k_;
}

Result<topo::PortId> FatTreeRouting::portToward(topo::SwitchId sw,
                                                topo::SwitchId neighbor) const {
  for (const auto& [peer, port] : portTo_[sw]) {
    if (peer == neighbor) return port;
  }
  return makeError(strFormat("fattree: no link %d -> %d", sw, neighbor));
}

std::span<const topo::PortId> FatTreeRouting::upCandidates(topo::SwitchId sw,
                                                           topo::HostId dst) const {
  // An edge switch goes up unless dst is local, which nextHop never asks
  // about; an aggregation switch goes up only to leave its pod.
  const int level = levelOf(sw);
  if (level == 2 || (level == 1 && podOf(sw) != podOf(topo_->hostSwitch(dst)))) {
    return upPorts_[sw];
  }
  return {};
}

Result<Hop> FatTreeRouting::nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const {
  const topo::SwitchId target = topo_->hostSwitch(dst);
  const int level = levelOf(sw);
  const int dstPod = podOf(target);

  if (level == 0) {
    // Core: descend to the (unique) aggregation switch of dst's pod.
    for (const auto& [peer, port] : portTo_[sw]) {
      if (podOf(peer) == dstPod) return Hop{port, vc};
    }
    return makeError(strFormat("fattree: core %d cannot reach pod %d", sw, dstPod));
  }
  if (level == 1) {
    if (podOf(sw) == dstPod) {
      // Descend to dst's edge switch.
      auto port = portToward(sw, target);
      if (!port) return port.error();
      return Hop{port.value(), vc};
    }
    const auto ups = upCandidates(sw, dst);
    if (ups.empty()) return makeError("fattree: aggregation switch has no core uplinks");
    return Hop{ups[flowHash % ups.size()], vc};
  }
  // Edge: if the destination hangs off another edge switch, go up.
  const auto ups = upCandidates(sw, dst);
  if (ups.empty()) return makeError("fattree: edge switch has no aggregation uplinks");
  return Hop{ups[flowHash % ups.size()], vc};
}

}  // namespace sdt::routing
