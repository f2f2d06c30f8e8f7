// Unit + property tests: Topology model and all generators.
#include <gtest/gtest.h>

#include "topo/generators.hpp"
#include "topo/topology.hpp"
#include "topo/zoo.hpp"

namespace sdt::topo {
namespace {

TEST(Topology, ConnectAssignsPortsSequentially) {
  Topology t("t", 2);
  const int l0 = t.connect(0, 1);
  const int l1 = t.connect(0, 1);
  EXPECT_EQ(t.link(l0).a.port, 0);
  EXPECT_EQ(t.link(l1).a.port, 1);
  EXPECT_EQ(t.radix(0), 2);
  EXPECT_EQ(t.fabricRadix(0), 2);
}

TEST(Topology, HostsUsePortsToo) {
  Topology t("t", 1);
  t.addSwitches(1);
  t.connect(0, 1);
  const HostId h = t.attachHost(0);
  EXPECT_EQ(t.hostSwitch(h), 0);
  EXPECT_EQ(t.radix(0), 2);
  EXPECT_EQ(t.fabricRadix(0), 1);
  EXPECT_EQ(t.hostsOf(0).size(), 1u);
}

TEST(Topology, NeighborAndLookup) {
  Topology t("t", 2);
  t.connect(0, 1);
  const auto peer = t.neighborOf(SwitchPort{0, 0});
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->sw, 1);
  EXPECT_FALSE(t.neighborOf(SwitchPort{0, 5}).has_value());
  EXPECT_TRUE(t.linkAt(SwitchPort{1, 0}).has_value());
}

TEST(Topology, ValidateCatchesDisconnected) {
  Topology t("t", 4);
  t.connect(0, 1);
  t.connect(2, 3);
  EXPECT_FALSE(t.validate(/*requireConnected=*/true).ok());
  EXPECT_TRUE(t.validate(/*requireConnected=*/false).ok());
}

TEST(Generators, LineShape) {
  const Topology t = makeLine(8);
  EXPECT_EQ(t.numSwitches(), 8);
  EXPECT_EQ(t.numLinks(), 7);
  EXPECT_EQ(t.numHosts(), 8);
  EXPECT_TRUE(t.validate().ok());
  EXPECT_EQ(t.switchGraph().diameter(), 7);
}

TEST(Generators, RingShape) {
  const Topology t = makeRing(6);
  EXPECT_EQ(t.numLinks(), 6);
  EXPECT_EQ(t.switchGraph().diameter(), 3);
}

TEST(Generators, StarShape) {
  const Topology t = makeStar(5);
  EXPECT_EQ(t.numLinks(), 4);
  EXPECT_EQ(t.fabricRadix(0), 4);
}

TEST(Generators, FullMeshShape) {
  const Topology t = makeFullMesh(5);
  EXPECT_EQ(t.numLinks(), 10);
  EXPECT_EQ(t.switchGraph().diameter(), 1);
}

TEST(Generators, HypercubeShape) {
  const Topology t = makeHypercube(4);
  EXPECT_EQ(t.numSwitches(), 16);
  EXPECT_EQ(t.numLinks(), 32);  // n*d/2
  EXPECT_EQ(t.switchGraph().diameter(), 4);
}

// Fat-Tree structural properties (paper Fig. 1: k=4 -> 20 switches, 16 hosts).
class FatTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeTest, Structure) {
  const int k = GetParam();
  const Topology t = makeFatTree(k);
  EXPECT_EQ(t.numSwitches(), 5 * k * k / 4);
  EXPECT_EQ(t.numHosts(), k * k * k / 4);
  EXPECT_EQ(t.numLinks(), k * k * k / 2);
  EXPECT_TRUE(t.validate().ok());
  // Every switch has radix k (hosts included for edge switches).
  for (SwitchId sw = 0; sw < t.numSwitches(); ++sw) {
    EXPECT_EQ(t.radix(sw), k) << "switch " << sw;
  }
  // Rearrangeably non-blocking core layer: diameter 4 switch-hops.
  EXPECT_EQ(t.switchGraph().diameter(), 4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeTest, ::testing::Values(4, 6, 8));

TEST(Generators, FatTreeK4Matches20Switches16Hosts) {
  const Topology t = makeFatTree(4);
  EXPECT_EQ(t.numSwitches(), 20);
  EXPECT_EQ(t.numHosts(), 16);
}

// Dragonfly structural properties (paper: a=4, g=9, h=2).
TEST(Generators, DragonflyStructure) {
  const Topology t = makeDragonfly(4, 9, 2);
  EXPECT_EQ(t.numSwitches(), 36);
  // Local: 9 * C(4,2) = 54; global: C(9,2) = 36 (a*h == g-1).
  EXPECT_EQ(t.numLinks(), 54 + 36);
  EXPECT_TRUE(t.validate().ok());
  // Every router: 3 local + 2 global + 1 host = 6 ports.
  for (SwitchId sw = 0; sw < t.numSwitches(); ++sw) {
    EXPECT_EQ(t.fabricRadix(sw), 5);
  }
  EXPECT_LE(t.switchGraph().diameter(), 3);  // l-g-l
}

TEST(Generators, DragonflyEveryGroupPairLinked) {
  const Topology t = makeDragonfly(4, 9, 2);
  // Count global links per group pair.
  int globalLinks = 0;
  for (const Link& l : t.links()) {
    if (l.a.sw / 4 != l.b.sw / 4) ++globalLinks;
  }
  EXPECT_EQ(globalLinks, 36);
}

class TorusTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TorusTest, Torus3DStructure) {
  const auto [x, y, z] = GetParam();
  const Topology t = makeTorus3D(x, y, z);
  EXPECT_EQ(t.numSwitches(), x * y * z);
  const auto linksInDim = [](int d) { return d > 2 ? d : d - 1; };
  const int expected = x * y * z == 0 ? 0
      : linksInDim(x) * y * z + x * linksInDim(y) * z + x * y * linksInDim(z);
  EXPECT_EQ(t.numLinks(), expected);
  EXPECT_TRUE(t.validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusTest,
                         ::testing::Values(std::tuple{4, 4, 4}, std::tuple{5, 5, 5},
                                           std::tuple{6, 6, 6}, std::tuple{2, 3, 4}));

TEST(Generators, Torus3D4x4x4LinkCount) {
  // Paper's 4x4x4: 3 * 64 = 192 links.
  EXPECT_EQ(makeTorus3D(4, 4, 4).numLinks(), 192);
}

TEST(Generators, Mesh2DNoWraparound) {
  const Topology t = makeMesh2D(4, 4);
  EXPECT_EQ(t.numLinks(), 2 * 4 * 3);
  EXPECT_EQ(t.switchGraph().diameter(), 6);
}

TEST(Generators, Torus2DWraparound) {
  const Topology t = makeTorus2D(5, 5);
  EXPECT_EQ(t.numLinks(), 50);
  EXPECT_EQ(t.switchGraph().diameter(), 4);
}

TEST(Generators, TorusSize2NoDoubleLinks) {
  // A dimension of size 2 must produce a single link, not a parallel pair.
  const Topology t = makeTorus2D(2, 2);
  EXPECT_EQ(t.numLinks(), 4);
}

TEST(Generators, MeshShapeHelpers) {
  MeshShape s{4, 4, 4};
  const int id = s.index(1, 2, 3);
  EXPECT_EQ(s.xOf(id), 1);
  EXPECT_EQ(s.yOf(id), 2);
  EXPECT_EQ(s.zOf(id), 3);
}

TEST(Generators, HostsPerSwitchOption) {
  const Topology t = makeRing(4, GenOptions{.hostsPerSwitch = 3, .linkSpeed = Gbps{25.0}});
  EXPECT_EQ(t.numHosts(), 12);
  EXPECT_DOUBLE_EQ(t.link(0).speed.value, 25.0);
}

// Port-index differential: the O(1)/O(degree) lookups must answer exactly
// what a scan over links() and hostLinks() answers, on every port up to
// radix + 1 and on switch ids outside the topology.
std::optional<int> scanLinkAt(const Topology& t, SwitchPort sp) {
  for (int i = 0; i < t.numLinks(); ++i) {
    if (t.link(i).a == sp || t.link(i).b == sp) return i;
  }
  return std::nullopt;
}

std::optional<HostId> scanHostAt(const Topology& t, SwitchPort sp) {
  for (const HostLink& hl : t.hostLinks()) {
    if (hl.attach == sp) return hl.host;
  }
  return std::nullopt;
}

std::optional<SwitchPort> scanNeighborOf(const Topology& t, SwitchPort sp) {
  const auto li = scanLinkAt(t, sp);
  if (!li) return std::nullopt;
  return t.link(*li).a == sp ? t.link(*li).b : t.link(*li).a;
}

std::vector<int> scanLinksOf(const Topology& t, SwitchId sw) {
  std::vector<int> out;
  for (int i = 0; i < t.numLinks(); ++i) {
    if (t.link(i).a.sw == sw || t.link(i).b.sw == sw) out.push_back(i);
  }
  return out;
}

std::vector<HostId> scanHostsOf(const Topology& t, SwitchId sw) {
  std::vector<HostId> out;
  for (const HostLink& hl : t.hostLinks()) {
    if (hl.attach.sw == sw) out.push_back(hl.host);
  }
  return out;
}

int scanFabricRadix(const Topology& t, SwitchId sw) {
  int count = 0;
  for (const Link& l : t.links()) count += (l.a.sw == sw) + (l.b.sw == sw);
  return count;
}

void expectIndexMatchesScan(const Topology& t) {
  SCOPED_TRACE(t.name());
  for (SwitchId sw = -2; sw < t.numSwitches() + 2; ++sw) {
    const bool known = sw >= 0 && sw < t.numSwitches();
    const PortId lastPort = known ? t.radix(sw) + 1 : 2;
    for (PortId port = -1; port <= lastPort; ++port) {
      const SwitchPort sp{sw, port};
      EXPECT_EQ(t.linkAt(sp), scanLinkAt(t, sp)) << sw << "/" << port;
      EXPECT_EQ(t.hostAt(sp), scanHostAt(t, sp)) << sw << "/" << port;
      EXPECT_EQ(t.neighborOf(sp), scanNeighborOf(t, sp)) << sw << "/" << port;
    }
    EXPECT_EQ(t.linksOf(sw), scanLinksOf(t, sw)) << sw;
    EXPECT_EQ(t.hostsOf(sw), scanHostsOf(t, sw)) << sw;
    EXPECT_EQ(t.fabricRadix(sw), scanFabricRadix(t, sw)) << sw;
  }
}

TEST(TopologyPortIndex, MatchesScanOnEveryGenerator) {
  const GenOptions twoHosts{.hostsPerSwitch = 2};
  for (const Topology& t :
       {makeLine(6), makeRing(6), makeStar(5), makeFullMesh(5), makeHypercube(3),
        makeFatTree(4), makeDragonfly(4, 9, 2), makeMesh2D(3, 4), makeMesh3D(2, 3, 2),
        makeTorus2D(4, 5), makeTorus2D(2, 2), makeTorus3D(3, 3, 3), makeRing(4, twoHosts),
        makeZooTopology(0), makeZooTopology(7)}) {
    expectIndexMatchesScan(t);
  }
}

TEST(TopologyPortIndex, MatchesScanWithSelfLoopAndInterleavedHosts) {
  Topology t("mixed", 3);
  t.attachHost(1);
  t.connect(0, 1);
  t.connect(1, 1);  // self-loop: two ports of switch 1, one link
  t.attachHost(1);
  t.connect(2, 0);
  t.connect(1, 2);
  t.attachHost(0);
  EXPECT_EQ(t.linksOf(1), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(t.fabricRadix(1), 4);
  expectIndexMatchesScan(t);
}

}  // namespace
}  // namespace sdt::topo
