#include "topo/topology.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/strings.hpp"

namespace sdt::topo {

SwitchId Topology::addSwitches(int count) {
  assert(count >= 0);
  const SwitchId first = numSwitches();
  ports_.resize(ports_.size() + static_cast<std::size_t>(count));
  return first;
}

PortId Topology::allocPort(SwitchId sw, PortOwner owner) {
  ports_[sw].push_back(owner);
  return static_cast<PortId>(ports_[sw].size()) - 1;
}

std::span<const Topology::PortOwner> Topology::portsOf(SwitchId sw) const {
  if (sw < 0 || sw >= numSwitches()) return {};
  return ports_[sw];
}

const Topology::PortOwner* Topology::ownerOf(SwitchPort sp) const {
  const std::span<const PortOwner> ports = portsOf(sp.sw);
  if (sp.port < 0 || sp.port >= static_cast<PortId>(ports.size())) return nullptr;
  return &ports[sp.port];
}

int Topology::connect(SwitchId a, SwitchId b, Gbps speed) {
  assert(a >= 0 && a < numSwitches());
  assert(b >= 0 && b < numSwitches());
  const PortOwner owner{numLinks(), -1};
  Link link;
  link.a = SwitchPort{a, allocPort(a, owner)};
  link.b = SwitchPort{b, allocPort(b, owner)};
  link.speed = speed;
  links_.push_back(link);
  return owner.link;
}

HostId Topology::attachHost(SwitchId sw, Gbps speed) {
  assert(sw >= 0 && sw < numSwitches());
  HostLink hl;
  hl.host = numHosts();
  hl.attach = SwitchPort{sw, allocPort(sw, PortOwner{-1, hl.host})};
  hl.speed = speed;
  hostLinks_.push_back(hl);
  return hl.host;
}

int Topology::fabricRadix(SwitchId sw) const {
  int count = 0;
  for (const PortOwner& o : portsOf(sw)) count += o.link >= 0;
  return count;
}

std::optional<int> Topology::linkAt(SwitchPort sp) const {
  const PortOwner* o = ownerOf(sp);
  if (o == nullptr || o->link < 0) return std::nullopt;
  return o->link;
}

std::optional<HostId> Topology::hostAt(SwitchPort sp) const {
  const PortOwner* o = ownerOf(sp);
  if (o == nullptr || o->host < 0) return std::nullopt;
  return o->host;
}

Graph Topology::switchGraph() const {
  Graph g(numSwitches());
  for (const Link& l : links_) g.addEdge(l.a.sw, l.b.sw);
  return g;
}

std::optional<SwitchPort> Topology::neighborOf(SwitchPort sp) const {
  const auto li = linkAt(sp);
  if (!li) return std::nullopt;
  const Link& l = links_[*li];
  return l.a == sp ? l.b : l.a;
}

// Ports are allocated in link/host creation order, so walking them yields
// ascending ids; a self-loop's two ports are adjacent and listed once.
std::vector<int> Topology::linksOf(SwitchId sw) const {
  std::vector<int> out;
  for (const PortOwner& o : portsOf(sw)) {
    if (o.link >= 0 && (out.empty() || out.back() != o.link)) out.push_back(o.link);
  }
  return out;
}

std::vector<HostId> Topology::hostsOf(SwitchId sw) const {
  std::vector<HostId> out;
  for (const PortOwner& o : portsOf(sw)) {
    if (o.host >= 0) out.push_back(o.host);
  }
  return out;
}

Status<Error> Topology::validate(bool requireConnected) const {
  std::set<SwitchPort> seen;
  const auto checkPort = [&](SwitchPort sp) -> Status<Error> {
    if (sp.sw < 0 || sp.sw >= numSwitches()) {
      return makeError(strFormat("link references unknown switch %d", sp.sw));
    }
    if (sp.port < 0 || sp.port >= radix(sp.sw)) {
      return makeError(strFormat("switch %d port %d out of range", sp.sw, sp.port));
    }
    if (!seen.insert(sp).second) {
      return makeError(strFormat("switch %d port %d used by two links", sp.sw, sp.port));
    }
    return {};
  };
  for (const Link& l : links_) {
    if (auto s = checkPort(l.a); !s) return s;
    if (auto s = checkPort(l.b); !s) return s;
    if (l.a.sw == l.b.sw && l.a.port == l.b.port) {
      return makeError("degenerate link: both endpoints identical");
    }
    if (l.speed.value <= 0) return makeError("link speed must be positive");
  }
  for (const HostLink& hl : hostLinks_) {
    if (auto s = checkPort(hl.attach); !s) return s;
  }
  if (requireConnected && numSwitches() > 0 && !switchGraph().isConnected()) {
    return makeError("switch graph is not connected");
  }
  return {};
}

}  // namespace sdt::topo
