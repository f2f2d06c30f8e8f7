// Tests: RoCE message transport with DCQCN, and TCP-lite flows.
#include <gtest/gtest.h>

#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"

namespace sdt::sim {
namespace {

struct Fixture {
  Simulator sim;
  topo::Topology topo;
  std::unique_ptr<routing::ShortestPathRouting> routing;
  BuiltNetwork built;
  std::unique_ptr<TransportManager> transport;

  explicit Fixture(topo::Topology t, NetworkConfig netCfg = {},
                   TransportConfig txCfg = {})
      : topo(std::move(t)) {
    routing = std::make_unique<routing::ShortestPathRouting>(topo);
    built = buildLogicalNetwork(sim, topo, *routing, netCfg);
    transport = std::make_unique<TransportManager>(sim, *built.net, txCfg);
  }
};

TEST(Rdma, MessageDeliveredOnce) {
  Fixture f(topo::makeLine(2));
  int completions = 0;
  Time when = 0;
  f.transport->sendMessage(0, 1, 10 * 1024, 0, [&](std::uint64_t, Time t) {
    ++completions;
    when = t;
  });
  f.sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_GT(when, 0);
  EXPECT_EQ(f.transport->rdmaDeliveredBytes(1), 10 * 1024);
  EXPECT_EQ(f.built.net->totalDrops(), 0u);
}

TEST(Rdma, ManyMessagesFifoPerFlow) {
  Fixture f(topo::makeLine(2));
  std::vector<std::uint64_t> completed;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(f.transport->sendMessage(0, 1, 4096, 0,
                                           [&](std::uint64_t id, Time) {
                                             completed.push_back(id);
                                           }));
  }
  f.sim.run();
  EXPECT_EQ(completed, ids);  // same flow: in-order completion
}

TEST(Rdma, StrayDataOnAForeignFlowCreditsNothing) {
  // A data packet that names a live message id but comes on another RDMA
  // flow must neither credit bytes nor complete that message early.
  Fixture f(topo::makeLine(3));
  constexpr std::int64_t kBytes = 16 * 1024;
  constexpr std::int64_t kStrayBytes = 1500;
  int realArrived = 0;
  int completions = 0;
  int arrivedAtCompletion = 0;
  std::int64_t deliveredAtCompletion = 0;
  const std::uint64_t id = f.transport->sendMessage(0, 1, kBytes, 0, [&](std::uint64_t, Time) {
    ++completions;
    arrivedAtCompletion = realArrived;
    deliveredAtCompletion = f.transport->rdmaDeliveredBytes(1);
  });
  f.built.net->setSniffer(1, [&](const Packet& p) {
    if (p.kind == PacketKind::kData && p.srcHost == 0) ++realArrived;
  });
  Packet stray;
  stray.id = 1ULL << 50;
  stray.flowId = (1ULL << 40) | 0xABCDEF;  // an RDMA flow that owns nothing
  stray.srcHost = 2;
  stray.dstHost = 1;
  stray.kind = PacketKind::kData;
  stray.vc = 0;
  stray.messageId = id;
  stray.payloadBytes = kStrayBytes;
  f.built.net->injectFromHost(2, stray);
  f.sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(arrivedAtCompletion, kBytes / 1024) << "completed before its last packet";
  EXPECT_EQ(deliveredAtCompletion, kBytes);
  EXPECT_EQ(f.transport->rdmaDeliveredBytes(1), kBytes);
}

TEST(Rdma, LargeMessageThroughputNearLineRate) {
  Fixture f(topo::makeLine(2));
  const std::int64_t bytes = 4 * kMiB;
  Time done = 0;
  f.transport->sendMessage(0, 1, bytes, 0, [&](std::uint64_t, Time t) { done = t; });
  f.sim.run();
  // Goodput >= 80% of the 10G line rate (headers + latency overheads).
  const double gbps = static_cast<double>(bytes) * 8.0 / static_cast<double>(done);
  EXPECT_GT(gbps, 8.0);
  EXPECT_LT(gbps, 10.0);
}

TEST(Rdma, DcqcnReactsToCongestion) {
  // Two senders incast one receiver through a shared 10G link: ECN marks
  // must generate CNPs and the transport must stay lossless end-to-end.
  NetworkConfig cfg;
  cfg.ecnThresholdBytes = 16 * 1024;
  Fixture f(topo::makeStar(3, {.hostsPerSwitch = 1, .linkSpeed = Gbps{10.0}}), cfg);
  int done = 0;
  for (const int src : {1, 2}) {
    f.transport->sendMessage(src, 0, 2 * kMiB, 0,
                             [&](std::uint64_t, Time) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(f.transport->cnpsSent(), 0u);
  EXPECT_EQ(f.built.net->totalDrops(), 0u);
}

TEST(Rdma, DcqcnDisabledSendsNoCnps) {
  NetworkConfig cfg;
  cfg.ecnThresholdBytes = 16 * 1024;
  TransportConfig tx;
  tx.dcqcn.enabled = false;
  Fixture f(topo::makeStar(3, {.hostsPerSwitch = 1, .linkSpeed = Gbps{10.0}}), cfg, tx);
  int done = 0;
  for (const int src : {1, 2}) {
    f.transport->sendMessage(src, 0, kMiB, 0, [&](std::uint64_t, Time) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.transport->cnpsSent(), 0u);
}

TEST(Tcp, BoundedFlowCompletes) {
  Fixture f(topo::makeLine(2));
  Time done = 0;
  const auto id = f.transport->startTcpFlow(0, 1, 256 * 1024,
                                            [&](Time t) { done = t; });
  f.sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(f.transport->tcpDeliveredBytes(id), 256 * 1024);
}

TEST(Tcp, RecoversFromLoss) {
  // Two flows incast one host through a tiny lossy buffer: drops are
  // guaranteed, and both flows must still complete via retransmission.
  NetworkConfig cfg;
  cfg.pfcEnabled = false;
  cfg.lossyQueueCapBytes = 8 * 1024;  // force drops during slow start
  Fixture f(topo::makeLine(3), cfg);
  Time doneA = 0, doneB = 0;
  f.transport->startTcpFlow(0, 1, 512 * 1024, [&](Time t) { doneA = t; });
  f.transport->startTcpFlow(2, 1, 512 * 1024, [&](Time t) { doneB = t; });
  f.sim.run();
  EXPECT_GT(f.built.net->totalDrops(), 0u);
  EXPECT_GT(doneA, 0) << "flow A must complete despite drops";
  EXPECT_GT(doneB, 0) << "flow B must complete despite drops";
}

TEST(Tcp, UnboundedFlowKeepsDelivering) {
  Fixture f(topo::makeLine(2));
  const auto id = f.transport->startTcpFlow(0, 1, -1);
  f.sim.runUntil(msToNs(5.0));
  const std::int64_t at5ms = f.transport->tcpDeliveredBytes(id);
  EXPECT_GT(at5ms, 0);
  f.sim.runUntil(msToNs(10.0));
  EXPECT_GT(f.transport->tcpDeliveredBytes(id), at5ms);
}

TEST(Tcp, SharesBottleneckRoughlyFairly) {
  // Two flows over the same 10G hop: each should get a comparable share.
  Fixture f(topo::makeLine(2, {.hostsPerSwitch = 2, .linkSpeed = Gbps{10.0}}));
  // hosts 0,1 on switch 0; hosts 2,3 on switch 1.
  const auto a = f.transport->startTcpFlow(0, 2, -1);
  const auto b = f.transport->startTcpFlow(1, 3, -1);
  f.sim.runUntil(msToNs(20.0));
  const double da = static_cast<double>(f.transport->tcpDeliveredBytes(a));
  const double db = static_cast<double>(f.transport->tcpDeliveredBytes(b));
  EXPECT_GT(da, 0);
  EXPECT_GT(db, 0);
  const double ratio = da > db ? da / db : db / da;
  EXPECT_LT(ratio, 2.5) << "a=" << da << " b=" << db;
  // Combined goodput near line rate.
  const double gbps = (da + db) * 8.0 / static_cast<double>(msToNs(20.0));
  EXPECT_GT(gbps, 7.0);
}

TEST(Tcp, PfcOnMeansNoDropsUnderIncast) {
  NetworkConfig cfg;
  cfg.pfcEnabled = true;
  Fixture f(topo::makeLine(3), cfg);
  f.transport->startTcpFlow(0, 1, -1);
  f.transport->startTcpFlow(2, 1, -1);
  f.sim.runUntil(msToNs(10.0));
  EXPECT_EQ(f.built.net->totalDrops(), 0u);
}

}  // namespace
}  // namespace sdt::sim
