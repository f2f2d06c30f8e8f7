// Packet-level data plane: switches, hosts, links, per-priority egress
// queues, PFC (802.1Qbb) backpressure, ECN marking, and cut-through.
//
// One Network instance models either
//   - the "full testbed": one sim switch per *logical* switch, forwarding
//     via a routing algorithm, zero crossbar-sharing overhead; or
//   - an SDT deployment: one sim switch per *physical* switch, forwarding
//     by executing the controller-generated OpenFlow tables, self-links and
//     inter-switch links wired exactly as the projection dictates, plus the
//     crossbar-sharing overhead model (multiple sub-switches contending for
//     one crossbar is where the paper's 0.03-2% latency delta comes from).
// Both are assembled by sim/builder.hpp; the Network itself is agnostic.
//
// PFC model: ingress accounting per (port, priority class). While a packet
// sits in an egress queue of switch S it is charged to the S-port it arrived
// on; crossing the XOFF watermark sends PAUSE for that class to the upstream
// port, XON sends RESUME. With PFC enabled queues never drop (lossless);
// with PFC disabled queues drop at a fixed capacity (lossy ethernet).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace sdt::sim {

struct NetworkConfig {
  std::int64_t mtuBytes = 1024;  ///< max payload per data packet
  bool cutThrough = true;
  bool pfcEnabled = true;
  std::int64_t pfcXoffBytes = 80 * kKiB;
  std::int64_t pfcXonBytes = 60 * kKiB;
  bool ecnEnabled = true;
  std::int64_t ecnThresholdBytes = 64 * kKiB;
  std::int64_t lossyQueueCapBytes = 256 * kKiB;
  TimeNs switchLatency = 350;  ///< pipeline latency per traversal
  TimeNs nicLatency = 500;     ///< host NIC processing per direction
  TimeNs pfcCtrlDelay = 200;   ///< PAUSE/RESUME propagation + handling
  // Propagation delays (builder wiring). Everything sits in one rack/room
  // (the paper's cluster), so cables are a few meters in every mode.
  TimeNs linkPropDelay = 10;         ///< full-testbed fabric cable (~2 m)
  TimeNs hostPropDelay = 10;         ///< host attachment cable
  TimeNs selfLinkPropDelay = 10;     ///< SDT loopback fiber (~2 m)
  TimeNs interSwitchPropDelay = 20;  ///< SDT cross-switch cable (~4 m)
};

/// Extra per-traversal latency from crossbar sharing (SDT only): the more
/// sub-switches a physical crossbar hosts, the more arbitration it does.
struct CrossbarModel {
  double baseNs = 0.0;
  double perSubSwitchNs = 0.0;

  [[nodiscard]] TimeNs extra(int subSwitches) const {
    if (subSwitches <= 1) return static_cast<TimeNs>(baseNs);
    return static_cast<TimeNs>(baseNs + perSubSwitchNs * (subSwitches - 1));
  }
};

struct ForwardResult {
  bool drop = true;
  int outPort = -1;
  int vc = 0;
  /// Epoch the forwarding decision ran under (0 = switch does not stamp).
  /// The network writes it back into the packet so the stamp made at the
  /// first hop pins every later lookup to the same configuration.
  std::uint32_t epoch = 0;
};

/// Forwarding decision function of one switch (routing- or table-driven).
using Forwarder = std::function<ForwardResult(const Packet&, int inPort)>;

struct NodeRef {
  enum class Kind : std::uint8_t { kNone, kSwitch, kHost };
  Kind kind = Kind::kNone;
  int idx = -1;

  [[nodiscard]] bool valid() const { return kind != Kind::kNone; }
};

struct PortCounters {
  std::uint64_t txPackets = 0;
  std::uint64_t txBytes = 0;
  std::uint64_t rxPackets = 0;
  std::uint64_t rxBytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t pausesSent = 0;
  std::uint64_t ecnMarks = 0;
  std::uint64_t faultDrops = 0;        ///< drops caused by injected faults (subset of drops)
  std::uint64_t corruptedPackets = 0;  ///< frames damaged by injected impairment
};

class Network {
 public:
  Network(Simulator& sim, NetworkConfig config) : sim_(&sim), config_(config) {}

  // -- Construction ---------------------------------------------------------
  int addSwitch(int numPorts, Forwarder forwarder, TimeNs extraLatency = 0);
  int addHost();
  /// Wire two switch ports (sw1==sw2 models an SDT self-link).
  void connectSwitches(int sw1, int p1, int sw2, int p2, Gbps speed, TimeNs propDelay);
  void connectHost(int host, int sw, int port, Gbps speed, TimeNs propDelay);

  // -- Transport-facing API -------------------------------------------------
  /// Enqueue a packet at the host's NIC (applies NIC latency internally).
  void injectFromHost(int host, Packet packet);
  /// Delivery callback (transport demux). Called after the sniffer.
  void setReceiver(int host, std::function<void(const Packet&)> receiver);
  /// Observation hook for every packet reaching the host ("Wireshark",
  /// used by the §VI-B isolation experiment).
  void setSniffer(int host, std::function<void(const Packet&)> sniffer);

  // -- Fault injection (sim::FaultInjector drives these) --------------------
  /// Take a switch port down/up. A down port black-holes: its egress queue
  /// drains into fault drops (the transmit laser feeds a dead fiber) and
  /// arriving frames are discarded. PFC ingress accounting stays balanced.
  void setPortUp(int sw, int port, bool up);
  [[nodiscard]] bool isPortUp(int sw, int port) const {
    return switches_[sw].ports[port].up;
  }
  /// A stalled port keeps its queue (transceiver wedged, not reported down):
  /// tx counters freeze while backlog builds — the counter-stall signature
  /// the Network Monitor's failure detector looks for.
  void setPortStalled(int sw, int port, bool stalled);
  /// Probabilistic ingress impairment: drop frames with `dropProb`, damage
  /// them with `corruptProb` (damaged frames die at the receiving NIC's CRC
  /// check). Draws come from the fault RNG in event order, so runs with the
  /// same seed are bit-identical.
  void setPortImpairment(int sw, int port, double dropProb, double corruptProb);
  /// Seed the impairment RNG. Draws happen in event order, so runs with the
  /// same seed are bit-identical.
  void seedFaultRng(std::uint64_t seed);
  [[nodiscard]] std::uint64_t faultDrops() const { return faultDrops_; }
  /// Peer (switch, port) wired to (sw, port), if the peer is a switch —
  /// what a cable cut must take down on the far side.
  [[nodiscard]] std::optional<std::pair<int, int>> switchPeerOf(int sw, int port) const {
    const Port& p = switches_[sw].ports[port];
    if (p.peer.kind != NodeRef::Kind::kSwitch) return std::nullopt;
    return std::make_pair(p.peer.idx, p.peerPort);
  }

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] Time now() const { return sim_->now(); }
  [[nodiscard]] std::int64_t hostQueueBytes(int host) const;
  [[nodiscard]] Gbps hostLinkSpeed(int host) const;
  [[nodiscard]] std::int64_t switchEgressBytes(int sw, int port) const;
  [[nodiscard]] const PortCounters& switchPortCounters(int sw, int port) const;
  [[nodiscard]] std::uint64_t totalDrops() const { return totalDrops_; }
  [[nodiscard]] int numSwitches() const { return static_cast<int>(switches_.size()); }
  [[nodiscard]] int numHosts() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] int switchPortCount(int sw) const {
    return static_cast<int>(switches_[sw].ports.size());
  }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Maximum egress occupancy seen anywhere (lossless-invariant tests).
  [[nodiscard]] std::int64_t peakQueueBytes() const { return peakQueueBytes_; }

  /// Packets injected and not yet delivered or dropped (live pool handles).
  [[nodiscard]] std::size_t packetsInFlight() const { return pool_.live(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Free-list pool holding every packet from injection to delivery or
  /// drop. Egress queues link its nodes, and in-flight events (NIC, wire,
  /// pipeline, delivery) carry a 4-byte handle instead of the packet.
  /// Chunked so node indices and packet references stay stable as the pool
  /// grows; steady-state forwarding performs zero heap allocations.
  class PacketPool {
   public:
    std::uint32_t acquire(Packet&& packet);
    void release(std::uint32_t idx);
    [[nodiscard]] Packet& at(std::uint32_t idx) const { return nodeAt(idx).packet; }
    [[nodiscard]] std::uint32_t nextOf(std::uint32_t idx) const {
      return nodeAt(idx).next;
    }
    void linkAfter(std::uint32_t idx, std::uint32_t next) { nodeAt(idx).next = next; }
    [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkNodes; }
    [[nodiscard]] std::size_t live() const { return live_; }

   private:
    static constexpr std::size_t kChunkNodes = 256;
    struct Node {
      Packet packet;
      std::uint32_t next = kNil;  ///< FIFO successor, or free-list link
    };
    [[nodiscard]] Node& nodeAt(std::uint32_t idx) const {
      return chunks_[idx / kChunkNodes][idx % kChunkNodes];
    }
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t freeHead_ = kNil;
    std::size_t live_ = 0;
  };

  struct EgressQueue {
    EgressQueue() {
      head.fill(kNil);
      tail.fill(kNil);
    }
    std::array<std::uint32_t, kNumClasses> head;  ///< pooled FIFO per class
    std::array<std::uint32_t, kNumClasses> tail;
    std::array<std::int64_t, kNumClasses> bytes{};
    std::array<bool, kNumClasses> paused{};
    std::int64_t totalBytes = 0;
  };

  struct Port {
    NodeRef peer;
    int peerPort = -1;
    Gbps speed{0.0};
    TimeNs propDelay = 0;
    EgressQueue egress;
    Time busyUntil = 0;
    bool serviceScheduled = false;
    // Fault state (see setPortUp/setPortStalled/setPortImpairment).
    bool up = true;
    bool stalled = false;
    double dropProb = 0.0;
    double corruptProb = 0.0;
    // PFC ingress accounting (switch ports only).
    std::array<std::int64_t, kNumClasses> ingressBytes{};
    std::array<bool, kNumClasses> pauseSent{};
    PortCounters counters;
  };

  struct SwitchDev {
    std::vector<Port> ports;
    Forwarder forwarder;
    TimeNs extraLatency = 0;
  };

  struct HostDev {
    Port nic;
    std::function<void(const Packet&)> receiver;
    std::function<void(const Packet&)> sniffer;
  };

  Port& portOf(NodeRef node, int port);
  /// Queue pooled packet `pkt` at an egress port (or drop and free it).
  void enqueueEgress(NodeRef node, int port, std::uint32_t pkt);
  /// Unlink the head of `cls` at `p` and uncharge its bytes; returns it.
  std::uint32_t dequeueEgress(NodeRef node, Port& p, int cls);
  void kickService(NodeRef node, int port);
  void serviceEgress(NodeRef node, int port);
  void arriveAtSwitch(int sw, int inPort, std::uint32_t pkt);
  void deliverToHost(int host, std::uint32_t pkt);
  void accountIngress(int sw, int inPort, const Packet& packet);
  void releaseIngress(int sw, int inPort, const Packet& packet);
  void sendPause(int sw, int inPort, int cls, bool pause);

  Simulator* sim_;
  NetworkConfig config_;
  std::vector<SwitchDev> switches_;
  std::vector<HostDev> hosts_;
  PacketPool pool_;
  std::uint64_t totalDrops_ = 0;
  std::uint64_t faultDrops_ = 0;
  std::int64_t peakQueueBytes_ = 0;
  Rng faultRng_;  ///< impairment draws only; untouched when no fault armed
};

}  // namespace sdt::sim
