// Transport layer on top of the packet network.
//
// Two transports, matching the paper's workloads:
//  - RoCE-style message transport with DCQCN rate control (Zhu et al.,
//    SIGCOMM'15): HPC applications and IMB benchmarks send MPI messages
//    over it (lossless fabric, PFC-backpressured, ECN-marked).
//  - TCP-lite byte streams (Reno-flavored slow start / AIMD, go-back-N
//    recovery): the iperf3 incast of the Fig. 12 bandwidth experiment.
//
// The manager owns every flow and registers itself as the receiver on all
// hosts; demux is by packet kind + flow id.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "sim/network.hpp"

namespace sdt::sim {

struct DcqcnConfig {
  bool enabled = true;
  double gain = 1.0 / 16.0;           ///< alpha EWMA gain (g)
  TimeNs cnpInterval = usToNs(50.0);  ///< min gap between CNPs per flow
  TimeNs rateTimer = usToNs(55.0);    ///< recovery timer period
  int fastRecoverySteps = 5;          ///< timer steps of rate halving recovery
  double additiveIncreaseGbps = 0.5;  ///< Rai after fast recovery
  double minRateGbps = 0.05;
};

struct TransportConfig {
  std::int64_t mtuBytes = 1024;
  DcqcnConfig dcqcn;
  /// Pause injection while the sender NIC already queues this much.
  std::int64_t nicBackpressureBytes = 8 * 1024;
  std::int64_t tcpMaxCwndBytes = 256 * 1024;
  std::int64_t tcpInitialCwndBytes = 2 * 1024;
  TimeNs tcpMinRto = usToNs(200.0);
};

/// Receiver-side completion: (message id, delivery time).
using MessageCallback = std::function<void(std::uint64_t, Time)>;

class TransportManager {
 public:
  TransportManager(Simulator& sim, Network& net, TransportConfig config);
  ~TransportManager();
  TransportManager(const TransportManager&) = delete;
  TransportManager& operator=(const TransportManager&) = delete;

  /// Send a `bytes`-long message src -> dst on virtual channel `vc`
  /// (RoCE/DCQCN path). `onDelivered` fires when the last byte reaches dst.
  /// Returns the message id.
  std::uint64_t sendMessage(int src, int dst, std::int64_t bytes, int vc,
                            MessageCallback onDelivered);

  /// Start a TCP flow src -> dst carrying `totalBytes` (-1 = run forever,
  /// iperf-style). Returns the flow id.
  std::uint64_t startTcpFlow(int src, int dst, std::int64_t totalBytes = -1,
                             std::function<void(Time)> onComplete = nullptr);

  /// Bytes delivered (application-level) so far on a TCP flow.
  [[nodiscard]] std::int64_t tcpDeliveredBytes(std::uint64_t flowId) const;

  /// Total RoCE data bytes delivered to `host`.
  [[nodiscard]] std::int64_t rdmaDeliveredBytes(int host) const;

  [[nodiscard]] std::uint64_t cnpsSent() const;

 private:
  struct RdmaPending {
    std::uint64_t messageId;
    std::int64_t bytes;
    std::int64_t sentBytes = 0;
  };

  /// Unidirectional RoCE "queue pair" per (src, dst, vc).
  struct RdmaFlow {
    std::uint64_t flowId;
    int src;
    int dst;
    int vc;
    std::deque<RdmaPending> sendQueue;
    bool pumping = false;
    // DCQCN rate-control state.
    double rateGbps;
    double targetGbps;
    double alpha = 1.0;
    int recoverySteps = 0;
    bool timerRunning = false;
    Time lastCnpHandled = -1;
    Time nextSendAt = 0;
    // Receiver-side notification point: when this flow last echoed a CNP.
    Time cnpLastSent = 0;
  };

  /// Receiver-side bookkeeping of one in-flight message, keyed by message
  /// id. `flow` is its owning flow: data for the id on any other flow is
  /// stray and credits nothing.
  struct RdmaMsgState {
    RdmaFlow* flow = nullptr;
    std::int64_t bytes = 0;
    std::int64_t receivedBytes = 0;
    MessageCallback onDelivered;
  };

  struct TcpFlow {
    std::uint64_t flowId;
    int src;
    int dst;
    std::int64_t totalBytes;
    std::function<void(Time)> onComplete;
    // Sender state.
    std::int64_t nextSeq = 0;
    std::int64_t highestAcked = 0;
    double cwnd;
    double ssthresh;
    int dupAcks = 0;
    bool pumping = false;
    bool completed = false;
    std::uint64_t rtoEpoch = 0;
    // RTT estimation (ns).
    double srtt = 0.0;
    double rttvar = 0.0;
    // Receiver state.
    std::int64_t expectedSeq = 0;
    std::int64_t deliveredBytes = 0;
  };

  void onHostPacket(int host, const Packet& packet);
  // RoCE.
  RdmaFlow& rdmaFlowFor(int src, int dst, int vc);
  void rdmaPump(RdmaFlow& flow);
  void onRdmaData(const Packet& packet);
  void onCnp(RdmaFlow& flow);
  void rdmaTimer(RdmaFlow& flow);
  void scheduleRdmaPump(RdmaFlow& flow, Time delay);
  // TCP.
  void tcpPump(TcpFlow& flow);
  void onTcpData(TcpFlow& flow, const Packet& packet);
  void onTcpAck(TcpFlow& flow, const Packet& packet);
  void tcpArmRto(TcpFlow& flow);
  [[nodiscard]] Time tcpRto(const TcpFlow& flow) const;

  Simulator* sim_;
  Network* net_;
  TransportConfig config_;
  double hostLineRateGbps_ = 10.0;

  /// By flow id. Nodes are stable, so events address a flow by pointer;
  /// nothing iterates these maps, so their order decides nothing.
  std::unordered_map<std::uint64_t, RdmaFlow> rdmaFlows_;
  std::unordered_map<std::uint64_t, RdmaMsgState> rdmaMsgs_;  ///< by message id
  std::vector<std::int64_t> rdmaDelivered_;                   ///< by destination host
  std::uint64_t cnpsSent_ = 0;
  /// Message/packet ids are opaque labels — nothing orders on them.
  std::uint64_t nextMessageId_ = 1;
  std::uint64_t nextPacketId_ = 1;

  std::map<std::uint64_t, TcpFlow> tcpFlows_;
  std::uint64_t nextTcpFlow_ = 1;
};

}  // namespace sdt::sim
