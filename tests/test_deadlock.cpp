// Tests: channel-dependency-graph analysis — Table III's deadlock-avoidance
// column, verified algorithmically, plus a positive control (a routing
// function designed to deadlock must be flagged).
#include <gtest/gtest.h>

#include "routing/adaptive.hpp"
#include "routing/deadlock.hpp"
#include "routing/dragonfly.hpp"
#include "routing/fat_tree.hpp"
#include "routing/mesh_torus.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::routing {
namespace {

TEST(Deadlock, FatTreeUpDownNeedsNoVcs) {
  const topo::Topology ft = topo::makeFatTree(4);
  auto algo = FatTreeRouting::create(ft);
  ASSERT_TRUE(algo.ok());
  EXPECT_EQ(algo.value()->numVcs(), 1);  // Table III: "No need"
  const DeadlockReport r = analyzeDeadlock(ft, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree);
  EXPECT_GT(r.channelsUsed, 0);
}

TEST(Deadlock, DragonflyMinimalWithVcChange) {
  const topo::Topology df = topo::makeDragonfly(4, 9, 2);
  auto algo = DragonflyMinimalRouting::create(df);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(df, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree);
}

TEST(Deadlock, MeshXyByRouting) {
  const topo::Topology m = topo::makeMesh2D(4, 4);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(m, *algo.value());
  EXPECT_TRUE(r.deadlockFree);
}

TEST(Deadlock, Mesh3DXyzByRouting) {
  const topo::Topology m = topo::makeMesh3D(3, 3, 3);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  EXPECT_TRUE(analyzeDeadlock(m, *algo.value()).deadlockFree);
}

class TorusDeadlockSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TorusDeadlockSweep, DatelineVcsBreakRingCycles) {
  const auto [x, y, z] = GetParam();
  const topo::Topology t =
      z == 1 ? topo::makeTorus2D(x, y) : topo::makeTorus3D(x, y, z);
  auto algo = DimensionOrderRouting::create(t);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(t, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree) << "cycle of " << r.cycle.size() << " channels";
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusDeadlockSweep,
                         ::testing::Values(std::tuple{4, 4, 1}, std::tuple{5, 5, 1},
                                           std::tuple{4, 4, 4}, std::tuple{3, 3, 3}));

TEST(Deadlock, AdaptiveDragonflyUnionOfModes) {
  // Verify the union CDG of never-detour and always-detour behaviours.
  const topo::Topology df = topo::makeDragonfly(4, 9, 2);
  auto minimalMode = AdaptiveDragonflyRouting::create(df);
  auto valiantMode = AdaptiveDragonflyRouting::create(df);
  ASSERT_TRUE(minimalMode.ok() && valiantMode.ok());
  valiantMode.value()->setBias(-1.0);
  valiantMode.value()->setCongestionOracle([](topo::SwitchId, topo::PortId) {
    return 1.0;
  });
  const DeadlockReport r = analyzeDeadlock(
      df, {minimalMode.value().get(), valiantMode.value().get()});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree) << "cycle of " << r.cycle.size() << " channels";
}

// Positive control: single-VC routing around a ring that always travels
// clockwise has the textbook channel cycle and must be flagged.
class ClockwiseRingRouting : public RoutingAlgorithm {
 public:
  explicit ClockwiseRingRouting(const topo::Topology& topo) : RoutingAlgorithm(topo) {}
  [[nodiscard]] std::string name() const override { return "clockwise-ring"; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId /*dst*/, int vc,
                                    std::uint64_t /*flowHash*/) const override {
    const int n = topo_->numSwitches();
    const topo::SwitchId next = (sw + 1) % n;
    for (const int li : topo_->linksOf(sw)) {
      const topo::Link& link = topo_->link(li);
      const topo::SwitchPort mine = link.a.sw == sw ? link.a : link.b;
      if (link.peerOf(sw).sw == next) return Hop{mine.port, vc};
    }
    return makeError("no clockwise link");
  }
};

TEST(Deadlock, ClockwiseRingIsFlagged) {
  const topo::Topology ring = topo::makeRing(6);
  ClockwiseRingRouting algo(ring);
  const DeadlockReport r = analyzeDeadlock(ring, algo);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_GE(r.cycle.size(), 3u);  // the witness cycle covers the ring
}

TEST(Deadlock, ShortestPathOnRingIsUnsafe) {
  // Dally & Seitz's classic observation: single-VC shortest-path routing on
  // a ring closes a channel cycle (consecutive-hop dependencies cover the
  // whole ring). This is exactly why the torus algorithm needs datelines;
  // the analyzer must flag the naive version.
  const topo::Topology ring = topo::makeRing(6);
  ShortestPathRouting algo(ring);
  const DeadlockReport r = analyzeDeadlock(ring, algo);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.deadlockFree);
}

// Clockwise ring routing that climbs one VC per hop (vc + step), declaring
// `declaredVcs` regardless: the analyzer must not trust numVcs() to bound
// the VCs a hop reports.
class ClimbingRingRouting : public ClockwiseRingRouting {
 public:
  ClimbingRingRouting(const topo::Topology& topo, int declaredVcs, int step)
      : ClockwiseRingRouting(topo), declaredVcs_(declaredVcs), step_(step) {}
  [[nodiscard]] int numVcs() const override { return declaredVcs_; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const override {
    auto hop = ClockwiseRingRouting::nextHop(sw, dst, vc, flowHash);
    if (hop) hop.value().vc = vc + step_;
    return hop;
  }

 private:
  int declaredVcs_;
  int step_;
};

TEST(Deadlock, VcsAboveNumVcsGrowTheChannelIndex) {
  const topo::Topology ring = topo::makeRing(6);
  const DeadlockReport under = analyzeDeadlock(ring, ClimbingRingRouting(ring, 1, 1));
  const DeadlockReport exact = analyzeDeadlock(ring, ClimbingRingRouting(ring, 6, 1));
  EXPECT_TRUE(under.error.empty()) << under.error;
  EXPECT_TRUE(under.deadlockFree);  // VCs only climb along a path
  EXPECT_EQ(under.channelsUsed, exact.channelsUsed);
  EXPECT_EQ(under.dependencyEdges, exact.dependencyEdges);
  EXPECT_GT(under.channelsUsed, 6);  // more than one VC per ring link
}

TEST(Deadlock, NegativeVcFailsCleanly) {
  const topo::Topology ring = topo::makeRing(6);
  const DeadlockReport r = analyzeDeadlock(ring, ClimbingRingRouting(ring, 1, -1));
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_NE(r.error.find("negative VC -1"), std::string::npos) << r.error;
}

// Pinned analyzer outputs: channel ids follow the order the worklist
// discovers channels, and the witness cycle is printed in the deploy
// refusal message, so every report field must stay exactly as recorded.
struct PinnedReport {
  const char* strategy;
  topo::Topology topo;
  int channelsUsed;
  int dependencyEdges;
};

TEST(DeadlockPin, TableThreePairs) {
  const std::vector<PinnedReport> pins = {
      {"fattree-dfs", topo::makeFatTree(4), 64, 128},
      {"dragonfly-minimal", topo::makeDragonfly(4, 9, 2), 288, 432},
      {"mesh-xy", topo::makeMesh2D(4, 4), 48, 68},
      {"mesh-xyz", topo::makeMesh3D(3, 3, 3), 108, 198},
      {"torus-clue", topo::makeTorus2D(5, 5), 120, 220},
      {"torus-clue", topo::makeTorus3D(4, 4, 4), 432, 1056},
  };
  for (const PinnedReport& pin : pins) {
    auto algo = makeRouting(pin.strategy, pin.topo);
    ASSERT_TRUE(algo.ok()) << algo.error().message;
    const DeadlockReport r = analyzeDeadlock(pin.topo, *algo.value());
    EXPECT_TRUE(r.error.empty()) << pin.topo.name() << ": " << r.error;
    EXPECT_TRUE(r.deadlockFree) << pin.topo.name();
    EXPECT_TRUE(r.cycle.empty()) << pin.topo.name();
    EXPECT_EQ(r.channelsUsed, pin.channelsUsed) << pin.topo.name();
    EXPECT_EQ(r.dependencyEdges, pin.dependencyEdges) << pin.topo.name();
  }
}

TEST(DeadlockPin, ShortestPathWitnessCycles) {
  const topo::Topology ring = topo::makeRing(6);
  const DeadlockReport r = analyzeDeadlock(ring, ShortestPathRouting(ring));
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_EQ(r.channelsUsed, 12);
  EXPECT_EQ(r.dependencyEdges, 12);
  EXPECT_EQ(r.cycle, (std::vector<Channel>{
                         {5, 0, 0}, {0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}}));

  const topo::Topology torus = topo::makeTorus2D(5, 5);
  const DeadlockReport t = analyzeDeadlock(torus, ShortestPathRouting(torus));
  EXPECT_FALSE(t.deadlockFree);
  EXPECT_EQ(t.channelsUsed, 100);
  EXPECT_EQ(t.dependencyEdges, 300);
  EXPECT_EQ(t.cycle, (std::vector<Channel>{
                         {24, 0, 0}, {20, 0, 0}, {21, 0, 0}, {22, 0, 0}, {23, 0, 0}}));
}

TEST(DeadlockPin, ClockwiseRingWitnessCycle) {
  const topo::Topology ring = topo::makeRing(6);
  const DeadlockReport r = analyzeDeadlock(ring, ClockwiseRingRouting(ring));
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_EQ(r.channelsUsed, 6);
  EXPECT_EQ(r.dependencyEdges, 6);
  EXPECT_EQ(r.cycle, (std::vector<Channel>{
                         {5, 0, 0}, {0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}}));
}

TEST(Deadlock, ReportCountsChannels) {
  const topo::Topology m = topo::makeMesh2D(3, 3);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(m, *algo.value());
  // 12 links x 2 directions x 1 VC = 24 possible channels; DOR uses most.
  EXPECT_GT(r.channelsUsed, 10);
  EXPECT_LE(r.channelsUsed, 24);
  EXPECT_GT(r.dependencyEdges, 0);
}

}  // namespace
}  // namespace sdt::routing
