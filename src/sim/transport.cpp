#include "sim/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace sdt::sim {

namespace {
constexpr std::uint64_t kRdmaFlowTag = 1ULL << 40;
constexpr std::uint64_t kTcpFlowTag = 2ULL << 40;

std::uint64_t rdmaFlowId(int src, int dst, int vc) {
  return kRdmaFlowTag | (static_cast<std::uint64_t>(src) << 22) |
         (static_cast<std::uint64_t>(dst) << 4) | static_cast<std::uint64_t>(vc);
}
}  // namespace

TransportManager::TransportManager(Simulator& sim, Network& net, TransportConfig config)
    : sim_(&sim), net_(&net), config_(config) {
  rdmaDelivered_.resize(static_cast<std::size_t>(net.numHosts()));
  for (int h = 0; h < net.numHosts(); ++h) {
    net_->setReceiver(h, [this, h](const Packet& p) { onHostPacket(h, p); });
  }
  if (net.numHosts() > 0) hostLineRateGbps_ = net.hostLinkSpeed(0).value;
}

TransportManager::~TransportManager() = default;

// ---------------------------------------------------------------------------
// Demux
// ---------------------------------------------------------------------------

void TransportManager::onHostPacket(int host, const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kData:
      if (packet.flowId & kRdmaFlowTag) {
        onRdmaData(packet);
      } else if (auto it = tcpFlows_.find(packet.flowId); it != tcpFlows_.end()) {
        onTcpData(it->second, packet);
      }
      break;
    case PacketKind::kCnp: {
      // A CNP acts only on a flow the receiving host sources.
      if (auto it = rdmaFlows_.find(packet.flowId);
          it != rdmaFlows_.end() && it->second.src == host) {
        onCnp(it->second);
      }
      break;
    }
    case PacketKind::kAck:
      if (auto it = tcpFlows_.find(packet.flowId); it != tcpFlows_.end()) {
        onTcpAck(it->second, packet);
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// RoCE / DCQCN
// ---------------------------------------------------------------------------

TransportManager::RdmaFlow& TransportManager::rdmaFlowFor(int src, int dst, int vc) {
  const std::uint64_t id = rdmaFlowId(src, dst, vc);
  auto it = rdmaFlows_.find(id);
  if (it == rdmaFlows_.end()) {
    RdmaFlow flow;
    flow.flowId = id;
    flow.src = src;
    flow.dst = dst;
    flow.vc = vc;
    flow.rateGbps = net_->hostLinkSpeed(src).value;
    flow.targetGbps = flow.rateGbps;
    it = rdmaFlows_.emplace(id, std::move(flow)).first;
  }
  return it->second;
}

std::uint64_t TransportManager::sendMessage(int src, int dst, std::int64_t bytes, int vc,
                                            MessageCallback onDelivered) {
  assert(bytes > 0);
  assert(src != dst && "loopback messages never touch the fabric");
  RdmaFlow& flow = rdmaFlowFor(src, dst, vc);
  const std::uint64_t id = nextMessageId_++;
  flow.sendQueue.push_back(RdmaPending{id, bytes, 0});
  rdmaMsgs_.emplace(id, RdmaMsgState{&flow, bytes, 0, std::move(onDelivered)});
  if (!flow.pumping) {
    flow.pumping = true;
    scheduleRdmaPump(flow, 0);
  }
  return id;
}

void TransportManager::scheduleRdmaPump(RdmaFlow& flow, Time delay) {
  sim_->schedule(delay, [this, f = &flow]() { rdmaPump(*f); });
}

void TransportManager::rdmaPump(RdmaFlow& flow) {
  if (flow.sendQueue.empty()) {
    flow.pumping = false;
    return;
  }
  const Time now = sim_->now();
  // NIC backpressure: with PFC pausing the NIC, keep the software queue
  // short and retry once the backlog should have drained.
  if (net_->hostQueueBytes(flow.src) > config_.nicBackpressureBytes) {
    const Time retry = Gbps{hostLineRateGbps_}.serializationNs(config_.nicBackpressureBytes);
    scheduleRdmaPump(flow, std::max<Time>(retry, 500));
    return;
  }
  if (now < flow.nextSendAt) {
    scheduleRdmaPump(flow, flow.nextSendAt - now);
    return;
  }
  RdmaPending& msg = flow.sendQueue.front();
  Packet pkt;
  pkt.id = nextPacketId_++;
  pkt.flowId = flow.flowId;
  pkt.srcHost = flow.src;
  pkt.dstHost = flow.dst;
  pkt.kind = PacketKind::kData;
  pkt.vc = static_cast<std::uint8_t>(flow.vc);
  pkt.ecnCapable = config_.dcqcn.enabled;
  pkt.messageId = msg.messageId;
  pkt.payloadBytes = std::min<std::int64_t>(config_.mtuBytes, msg.bytes - msg.sentBytes);
  pkt.seq = static_cast<std::uint64_t>(msg.sentBytes);
  msg.sentBytes += pkt.payloadBytes;
  const std::int64_t wire = pkt.wireBytes();
  if (msg.sentBytes >= msg.bytes) flow.sendQueue.pop_front();
  net_->injectFromHost(flow.src, std::move(pkt));

  // Pace at the DCQCN current rate.
  flow.nextSendAt = std::max(now, flow.nextSendAt) + Gbps{flow.rateGbps}.serializationNs(wire);
  scheduleRdmaPump(flow, std::max<Time>(0, flow.nextSendAt - now));
}

void TransportManager::onRdmaData(const Packet& packet) {
  const auto it = rdmaMsgs_.find(packet.messageId);
  // Stray (e.g. isolation-test cross-talk): no such message on this flow.
  if (it == rdmaMsgs_.end() || it->second.flow->flowId != packet.flowId) return;
  RdmaMsgState& msg = it->second;
  msg.receivedBytes += packet.payloadBytes;
  rdmaDelivered_[static_cast<std::size_t>(packet.dstHost)] += packet.payloadBytes;

  // DCQCN notification point: echo congestion back to the sender, at most
  // one CNP per cnpInterval per flow.
  if (packet.ecnMarked && config_.dcqcn.enabled) {
    const Time now = sim_->now();
    Time& last = msg.flow->cnpLastSent;
    if (last == 0 || now - last >= config_.dcqcn.cnpInterval) {
      last = now;
      Packet cnp;
      cnp.id = nextPacketId_++;
      cnp.flowId = packet.flowId;
      cnp.srcHost = packet.dstHost;
      cnp.dstHost = packet.srcHost;
      cnp.kind = PacketKind::kCnp;
      cnp.vc = kControlClass;
      cnp.payloadBytes = 0;
      net_->injectFromHost(packet.dstHost, std::move(cnp));
      ++cnpsSent_;
    }
  }

  // Message completion.
  if (msg.receivedBytes >= msg.bytes) {
    auto cb = std::move(msg.onDelivered);
    rdmaMsgs_.erase(it);
    if (cb) cb(packet.messageId, sim_->now());
  }
}

void TransportManager::onCnp(RdmaFlow& flow) {
  const DcqcnConfig& dc = config_.dcqcn;
  const Time now = sim_->now();
  if (flow.lastCnpHandled >= 0 && now - flow.lastCnpHandled < dc.cnpInterval) return;
  flow.lastCnpHandled = now;
  flow.targetGbps = flow.rateGbps;
  flow.alpha = (1.0 - dc.gain) * flow.alpha + dc.gain;
  flow.rateGbps = std::max(dc.minRateGbps, flow.rateGbps * (1.0 - flow.alpha / 2.0));
  flow.recoverySteps = 0;
  if (!flow.timerRunning) {
    flow.timerRunning = true;
    sim_->schedule(dc.rateTimer, [this, f = &flow]() { rdmaTimer(*f); });
  }
}

void TransportManager::rdmaTimer(RdmaFlow& flow) {
  const DcqcnConfig& dc = config_.dcqcn;
  const double lineRate = net_->hostLinkSpeed(flow.src).value;

  flow.alpha *= (1.0 - dc.gain);
  ++flow.recoverySteps;
  if (flow.recoverySteps > dc.fastRecoverySteps) {
    flow.targetGbps = std::min(lineRate, flow.targetGbps + dc.additiveIncreaseGbps);
  }
  flow.rateGbps = std::min(lineRate, (flow.rateGbps + flow.targetGbps) / 2.0);

  if (flow.rateGbps >= lineRate * 0.999) {
    flow.rateGbps = lineRate;
    flow.timerRunning = false;
    return;
  }
  sim_->schedule(dc.rateTimer, [this, f = &flow]() { rdmaTimer(*f); });
}

// ---------------------------------------------------------------------------
// TCP-lite
// ---------------------------------------------------------------------------

std::uint64_t TransportManager::startTcpFlow(int src, int dst, std::int64_t totalBytes,
                                             std::function<void(Time)> onComplete) {
  TcpFlow flow;
  flow.flowId = kTcpFlowTag | nextTcpFlow_++;
  flow.src = src;
  flow.dst = dst;
  flow.totalBytes = totalBytes;
  flow.onComplete = std::move(onComplete);
  flow.cwnd = static_cast<double>(config_.tcpInitialCwndBytes);
  flow.ssthresh = static_cast<double>(config_.tcpMaxCwndBytes);
  const std::uint64_t id = flow.flowId;
  tcpFlows_.emplace(id, std::move(flow));
  sim_->schedule(0, [this, id]() { tcpPump(tcpFlows_.at(id)); });
  return id;
}

std::int64_t TransportManager::tcpDeliveredBytes(std::uint64_t flowId) const {
  const auto it = tcpFlows_.find(flowId);
  return it == tcpFlows_.end() ? 0 : it->second.deliveredBytes;
}

std::int64_t TransportManager::rdmaDeliveredBytes(int host) const {
  return rdmaDelivered_[static_cast<std::size_t>(host)];
}

std::uint64_t TransportManager::cnpsSent() const { return cnpsSent_; }

Time TransportManager::tcpRto(const TcpFlow& flow) const {
  if (flow.srtt <= 0.0) return msToNs(1.0);
  const double rto = flow.srtt + 4.0 * std::max(flow.rttvar, 1000.0);
  return std::max<Time>(config_.tcpMinRto, static_cast<Time>(rto));
}

void TransportManager::tcpArmRto(TcpFlow& flow) {
  const std::uint64_t epoch = ++flow.rtoEpoch;
  const std::int64_t ackedAtArm = flow.highestAcked;
  sim_->schedule(tcpRto(flow), [this, id = flow.flowId, epoch, ackedAtArm]() {
    auto it = tcpFlows_.find(id);
    if (it == tcpFlows_.end()) return;
    TcpFlow& f = it->second;
    if (f.completed || f.rtoEpoch != epoch) return;  // superseded
    if (f.highestAcked > ackedAtArm || f.nextSeq == f.highestAcked) return;  // progress/idle
    // Timeout: multiplicative collapse and go-back-N.
    f.ssthresh = std::max(f.cwnd / 2.0, 2.0 * static_cast<double>(config_.mtuBytes));
    f.cwnd = static_cast<double>(config_.mtuBytes);
    f.dupAcks = 0;
    f.nextSeq = f.highestAcked;
    tcpPump(f);
  });
}

void TransportManager::tcpPump(TcpFlow& flow) {
  if (flow.completed) return;
  const std::int64_t windowEnd =
      flow.highestAcked + static_cast<std::int64_t>(flow.cwnd);
  const std::int64_t dataEnd =
      flow.totalBytes < 0 ? std::numeric_limits<std::int64_t>::max() : flow.totalBytes;
  bool sent = false;
  while (flow.nextSeq < std::min(windowEnd, dataEnd)) {
    Packet pkt;
    pkt.id = nextPacketId_++;
    pkt.flowId = flow.flowId;
    pkt.srcHost = flow.src;
    pkt.dstHost = flow.dst;
    pkt.kind = PacketKind::kData;
    pkt.vc = 0;
    pkt.payloadBytes =
        std::min<std::int64_t>(config_.mtuBytes, std::min(windowEnd, dataEnd) - flow.nextSeq);
    pkt.seq = static_cast<std::uint64_t>(flow.nextSeq);
    pkt.messageId = static_cast<std::uint64_t>(sim_->now());  // RTT echo
    flow.nextSeq += pkt.payloadBytes;
    net_->injectFromHost(flow.src, std::move(pkt));
    sent = true;
  }
  if (sent) tcpArmRto(flow);
}

void TransportManager::onTcpData(TcpFlow& flow, const Packet& packet) {
  // Go-back-N receiver: only in-order data advances; everything is
  // cumulatively acked so the sender sees dup-acks on gaps.
  if (static_cast<std::int64_t>(packet.seq) == flow.expectedSeq) {
    flow.expectedSeq += packet.payloadBytes;
    flow.deliveredBytes += packet.payloadBytes;
  }
  Packet ack;
  ack.id = nextPacketId_++;
  ack.flowId = flow.flowId;
  ack.srcHost = flow.dst;
  ack.dstHost = flow.src;
  ack.kind = PacketKind::kAck;
  ack.vc = kControlClass;
  ack.payloadBytes = 0;
  ack.ackSeq = static_cast<std::uint64_t>(flow.expectedSeq);
  ack.messageId = packet.messageId;  // RTT echo
  net_->injectFromHost(flow.dst, std::move(ack));
}

void TransportManager::onTcpAck(TcpFlow& flow, const Packet& packet) {
  if (flow.completed) return;
  const auto acked = static_cast<std::int64_t>(packet.ackSeq);
  // RTT sample from the echoed send timestamp.
  const double sample = static_cast<double>(sim_->now()) -
                        static_cast<double>(packet.messageId);
  if (sample > 0) {
    if (flow.srtt <= 0) {
      flow.srtt = sample;
      flow.rttvar = sample / 2.0;
    } else {
      flow.rttvar = 0.75 * flow.rttvar + 0.25 * std::abs(flow.srtt - sample);
      flow.srtt = 0.875 * flow.srtt + 0.125 * sample;
    }
  }
  if (acked > flow.highestAcked) {
    const std::int64_t newlyAcked = acked - flow.highestAcked;
    flow.highestAcked = acked;
    flow.dupAcks = 0;
    const auto mtu = static_cast<double>(config_.mtuBytes);
    if (flow.cwnd < flow.ssthresh) {
      flow.cwnd += static_cast<double>(newlyAcked);  // slow start
    } else {
      flow.cwnd += mtu * mtu / flow.cwnd;  // congestion avoidance
    }
    flow.cwnd = std::min(flow.cwnd, static_cast<double>(config_.tcpMaxCwndBytes));
    if (flow.totalBytes >= 0 && flow.highestAcked >= flow.totalBytes) {
      flow.completed = true;
      if (flow.onComplete) flow.onComplete(sim_->now());
      return;
    }
    tcpPump(flow);
  } else if (acked == flow.highestAcked && flow.nextSeq > flow.highestAcked) {
    if (++flow.dupAcks == 3) {
      // Fast retransmit, go-back-N.
      flow.ssthresh = std::max(flow.cwnd / 2.0, 2.0 * static_cast<double>(config_.mtuBytes));
      flow.cwnd = flow.ssthresh;
      flow.dupAcks = 0;
      flow.nextSeq = flow.highestAcked;
      tcpPump(flow);
    }
  }
}

}  // namespace sdt::sim
