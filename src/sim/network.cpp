#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

namespace sdt::sim {

std::uint32_t Network::PacketPool::acquire(Packet&& packet) {
  if (freeHead_ == kNil) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkNodes);
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = i + 1 < kChunkNodes ? base + i + 1 : kNil;
    }
    freeHead_ = base;
  }
  const std::uint32_t idx = freeHead_;
  Node& node = nodeAt(idx);
  freeHead_ = node.next;
  node.packet = std::move(packet);
  node.next = kNil;
  ++live_;
  return idx;
}

void Network::PacketPool::release(std::uint32_t idx) {
  nodeAt(idx).next = freeHead_;
  freeHead_ = idx;
  --live_;
}

int Network::addSwitch(int numPorts, Forwarder forwarder, TimeNs extraLatency) {
  SwitchDev dev;
  dev.ports.resize(static_cast<std::size_t>(numPorts));
  dev.forwarder = std::move(forwarder);
  dev.extraLatency = extraLatency;
  switches_.push_back(std::move(dev));
  return static_cast<int>(switches_.size()) - 1;
}

int Network::addHost() {
  hosts_.emplace_back();
  return static_cast<int>(hosts_.size()) - 1;
}

void Network::seedFaultRng(std::uint64_t seed) { faultRng_ = Rng(seed); }

void Network::connectSwitches(int sw1, int p1, int sw2, int p2, Gbps speed,
                              TimeNs propDelay) {
  Port& a = switches_[sw1].ports[p1];
  Port& b = switches_[sw2].ports[p2];
  assert(!a.peer.valid() && !b.peer.valid() && "port already wired");
  a.peer = NodeRef{NodeRef::Kind::kSwitch, sw2};
  a.peerPort = p2;
  a.speed = speed;
  a.propDelay = propDelay;
  b.peer = NodeRef{NodeRef::Kind::kSwitch, sw1};
  b.peerPort = p1;
  b.speed = speed;
  b.propDelay = propDelay;
}

void Network::connectHost(int host, int sw, int port, Gbps speed, TimeNs propDelay) {
  Port& nic = hosts_[host].nic;
  Port& sp = switches_[sw].ports[port];
  assert(!nic.peer.valid() && !sp.peer.valid() && "port already wired");
  nic.peer = NodeRef{NodeRef::Kind::kSwitch, sw};
  nic.peerPort = port;
  nic.speed = speed;
  nic.propDelay = propDelay;
  sp.peer = NodeRef{NodeRef::Kind::kHost, host};
  sp.peerPort = 0;
  sp.speed = speed;
  sp.propDelay = propDelay;
}

void Network::setPortUp(int sw, int port, bool up) {
  Port& p = switches_[sw].ports[port];
  if (p.up == up) return;
  p.up = up;
  // Down: start draining the queue into fault drops. Up: resume service.
  kickService(NodeRef{NodeRef::Kind::kSwitch, sw}, port);
}

void Network::setPortStalled(int sw, int port, bool stalled) {
  Port& p = switches_[sw].ports[port];
  if (p.stalled == stalled) return;
  p.stalled = stalled;
  if (!stalled) kickService(NodeRef{NodeRef::Kind::kSwitch, sw}, port);
}

void Network::setPortImpairment(int sw, int port, double dropProb, double corruptProb) {
  Port& p = switches_[sw].ports[port];
  p.dropProb = dropProb;
  p.corruptProb = corruptProb;
}

Network::Port& Network::portOf(NodeRef node, int port) {
  return node.kind == NodeRef::Kind::kSwitch ? switches_[node.idx].ports[port]
                                             : hosts_[node.idx].nic;
}

void Network::injectFromHost(int host, Packet packet) {
  packet.simIngressPort = -1;
  packet.injectedAt = sim_->now();
  // The packet enters the pool once; every data-plane event after this
  // carries its handle. NIC processing happens before the wire.
  const std::uint32_t pkt = pool_.acquire(std::move(packet));
  auto toWire = [this, host, pkt]() { enqueueEgress(NodeRef{NodeRef::Kind::kHost, host}, 0, pkt); };
  static_assert(Simulator::kFitsInline<decltype(toWire)>);
  sim_->schedule(config_.nicLatency, toWire);
}

void Network::setReceiver(int host, std::function<void(const Packet&)> receiver) {
  hosts_[host].receiver = std::move(receiver);
}

void Network::setSniffer(int host, std::function<void(const Packet&)> sniffer) {
  hosts_[host].sniffer = std::move(sniffer);
}

std::int64_t Network::hostQueueBytes(int host) const {
  return hosts_[host].nic.egress.totalBytes;
}

Gbps Network::hostLinkSpeed(int host) const { return hosts_[host].nic.speed; }

std::int64_t Network::switchEgressBytes(int sw, int port) const {
  return switches_[sw].ports[port].egress.totalBytes;
}

const PortCounters& Network::switchPortCounters(int sw, int port) const {
  return switches_[sw].ports[port].counters;
}

void Network::accountIngress(int sw, int inPort, const Packet& packet) {
  Port& p = switches_[sw].ports[inPort];
  const int cls = packet.vc;
  p.ingressBytes[cls] += packet.wireBytes();
  if (config_.pfcEnabled && !p.pauseSent[cls] &&
      p.ingressBytes[cls] > config_.pfcXoffBytes) {
    sendPause(sw, inPort, cls, /*pause=*/true);
  }
}

void Network::releaseIngress(int sw, int inPort, const Packet& packet) {
  Port& p = switches_[sw].ports[inPort];
  const int cls = packet.vc;
  p.ingressBytes[cls] -= packet.wireBytes();
  assert(p.ingressBytes[cls] >= 0);
  if (p.pauseSent[cls] && p.ingressBytes[cls] < config_.pfcXonBytes) {
    sendPause(sw, inPort, cls, /*pause=*/false);
  }
}

void Network::sendPause(int sw, int inPort, int cls, bool pause) {
  Port& p = switches_[sw].ports[inPort];
  p.pauseSent[cls] = pause;
  ++p.counters.pausesSent;
  const NodeRef peer = p.peer;
  const int peerPort = p.peerPort;
  if (!peer.valid()) return;
  // PAUSE frames cross the same cable as data.
  sim_->schedule(config_.pfcCtrlDelay, [this, peer, peerPort, cls, pause]() {
    Port& upstream = portOf(peer, peerPort);
    upstream.egress.paused[cls] = pause;
    if (!pause) kickService(peer, peerPort);
  });
}

void Network::enqueueEgress(NodeRef node, int port, std::uint32_t pkt) {
  Port& p = portOf(node, port);
  Packet& packet = pool_.at(pkt);
  assert(p.peer.valid() && "packet routed out of an unwired port");
  const int cls = packet.vc;
  assert(cls >= 0 && cls < kNumClasses);
  const bool isSwitch = node.kind == NodeRef::Kind::kSwitch;

  if (isSwitch) {
    if (!config_.pfcEnabled &&
        p.egress.totalBytes + packet.wireBytes() > config_.lossyQueueCapBytes) {
      ++totalDrops_;
      ++p.counters.drops;
      pool_.release(pkt);
      return;
    }
    if (config_.ecnEnabled && packet.ecnCapable && packet.kind == PacketKind::kData &&
        p.egress.totalBytes > config_.ecnThresholdBytes) {
      packet.ecnMarked = true;
      ++p.counters.ecnMarks;
    }
    if (packet.simIngressPort >= 0) accountIngress(node.idx, packet.simIngressPort, packet);
  }

  p.egress.bytes[cls] += packet.wireBytes();
  p.egress.totalBytes += packet.wireBytes();
  // Peak occupancy is a *switch buffer* invariant (hosts may stage
  // arbitrarily large software send queues).
  if (isSwitch) peakQueueBytes_ = std::max(peakQueueBytes_, p.egress.totalBytes);
  pool_.linkAfter(pkt, kNil);
  if (p.egress.tail[cls] == kNil) {
    p.egress.head[cls] = pkt;
  } else {
    pool_.linkAfter(p.egress.tail[cls], pkt);
  }
  p.egress.tail[cls] = pkt;
  kickService(node, port);
}

std::uint32_t Network::dequeueEgress(NodeRef node, Port& p, int cls) {
  const std::uint32_t pkt = p.egress.head[cls];
  p.egress.head[cls] = pool_.nextOf(pkt);
  if (p.egress.head[cls] == kNil) p.egress.tail[cls] = kNil;
  const Packet& packet = pool_.at(pkt);
  p.egress.bytes[cls] -= packet.wireBytes();
  p.egress.totalBytes -= packet.wireBytes();
  if (node.kind == NodeRef::Kind::kSwitch && packet.simIngressPort >= 0) {
    releaseIngress(node.idx, packet.simIngressPort, packet);
  }
  return pkt;
}

void Network::kickService(NodeRef node, int port) {
  Port& p = portOf(node, port);
  if (p.serviceScheduled) return;
  p.serviceScheduled = true;
  const Time delay = std::max<Time>(0, p.busyUntil - sim_->now());
  sim_->schedule(delay, [this, node, port]() { serviceEgress(node, port); });
}

void Network::serviceEgress(NodeRef node, int port) {
  Port& p = portOf(node, port);
  p.serviceScheduled = false;
  if (p.stalled) return;  // wedged transmitter: backlog builds, counters freeze
  if (!p.up) {
    // Dead fiber: the queue drains into fault drops, one frame per tick, so
    // PFC ingress accounting unwinds exactly as if the frames had been sent.
    int cls = -1;
    for (int c = kNumClasses - 1; c >= 0; --c) {
      if (p.egress.bytes[c] > 0) {
        cls = c;
        break;
      }
    }
    if (cls < 0) return;
    pool_.release(dequeueEgress(node, p, cls));
    ++totalDrops_;
    ++faultDrops_;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    kickService(node, port);
    return;
  }
  if (sim_->now() < p.busyUntil) {
    kickService(node, port);
    return;
  }
  // Strict priority: highest eligible class first.
  int cls = -1;
  for (int c = kNumClasses - 1; c >= 0; --c) {
    if (p.egress.bytes[c] > 0 && !p.egress.paused[c]) {
      cls = c;
      break;
    }
  }
  if (cls < 0) return;  // empty or fully paused; enqueue/unpause re-kicks

  const std::uint32_t pkt = dequeueEgress(node, p, cls);
  const Packet& packet = pool_.at(pkt);
  const Time ser = p.speed.serializationNs(packet.wireBytes());
  p.busyUntil = sim_->now() + ser;
  ++p.counters.txPackets;
  p.counters.txBytes += static_cast<std::uint64_t>(packet.wireBytes());

  const NodeRef peer = p.peer;
  const int peerInPort = p.peerPort;
  Time arrivalDelay;
  if (peer.kind == NodeRef::Kind::kSwitch && config_.cutThrough) {
    // Cut-through: downstream starts on the header; the wire still carries
    // the full packet (busyUntil above), so back-to-back pacing is intact.
    arrivalDelay = p.speed.serializationNs(kWireHeaderBytes) + p.propDelay;
  } else {
    arrivalDelay = ser + p.propDelay;
  }
  auto arrive = [this, peer, peerInPort, pkt]() {
    if (peer.kind == NodeRef::Kind::kSwitch) {
      arriveAtSwitch(peer.idx, peerInPort, pkt);
    } else {
      deliverToHost(peer.idx, pkt);
    }
  };
  static_assert(Simulator::kFitsInline<decltype(arrive)>);
  sim_->schedule(arrivalDelay, arrive);

  // Keep draining.
  kickService(node, port);
}

void Network::arriveAtSwitch(int sw, int inPort, std::uint32_t pkt) {
  SwitchDev& dev = switches_[sw];
  Packet& packet = pool_.at(pkt);
  Port& p = dev.ports[inPort];
  ++p.counters.rxPackets;
  p.counters.rxBytes += static_cast<std::uint64_t>(packet.wireBytes());

  if (!p.up) {  // link went down while the frame was in flight
    ++totalDrops_;
    ++faultDrops_;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    pool_.release(pkt);
    return;
  }
  if (p.dropProb > 0.0 && faultRng_.uniform() < p.dropProb) {
    ++totalDrops_;
    ++faultDrops_;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    pool_.release(pkt);
    return;
  }
  if (p.corruptProb > 0.0 && faultRng_.uniform() < p.corruptProb) {
    packet.corrupted = true;
    ++p.counters.corruptedPackets;
  }

  const ForwardResult decision = dev.forwarder(packet, inPort);
  if (decision.drop || decision.outPort < 0) {
    ++totalDrops_;
    ++p.counters.drops;
    pool_.release(pkt);
    return;
  }
  packet.vc = static_cast<std::uint8_t>(decision.vc);
  if (decision.epoch != 0) packet.epoch = decision.epoch;
  packet.simIngressPort = inPort;
  const int outPort = decision.outPort;
  const Time latency = config_.switchLatency + dev.extraLatency;
  auto toEgress = [this, sw, outPort, pkt]() {
    enqueueEgress(NodeRef{NodeRef::Kind::kSwitch, sw}, outPort, pkt);
  };
  static_assert(Simulator::kFitsInline<decltype(toEgress)>);
  sim_->schedule(latency, toEgress);
}

void Network::deliverToHost(int host, std::uint32_t pkt) {
  HostDev& dev = hosts_[host];
  const Packet& packet = pool_.at(pkt);
  ++dev.nic.counters.rxPackets;
  dev.nic.counters.rxBytes += static_cast<std::uint64_t>(packet.wireBytes());
  if (packet.corrupted) {  // NIC CRC check rejects the damaged frame
    ++totalDrops_;
    ++faultDrops_;
    ++dev.nic.counters.drops;
    ++dev.nic.counters.faultDrops;
    pool_.release(pkt);
    return;
  }
  // NIC receive-side latency, then sniffer + transport. The reference
  // stays valid while they inject: pool chunks never move.
  auto toHost = [this, host, pkt]() {
    HostDev& d = hosts_[host];
    const Packet& delivered = pool_.at(pkt);
    if (d.sniffer) d.sniffer(delivered);
    if (d.receiver) d.receiver(delivered);
    pool_.release(pkt);
  };
  static_assert(Simulator::kFitsInline<decltype(toHost)>);
  sim_->schedule(config_.nicLatency, toHost);
}

}  // namespace sdt::sim
