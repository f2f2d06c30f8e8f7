// Tests: SDT controller — config loading, checking function, deployment
// (flow-table compilation, capacity guard, deadlock gate), reconfiguration.
#include <gtest/gtest.h>

#include "controller/config.hpp"
#include "controller/controller.hpp"
#include "controller/table_diff.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::controller {
namespace {

projection::Plant plantOf(int switches, int hostPorts, int inter,
                          projection::PhysicalSwitchSpec spec =
                              projection::openflow64x100G()) {
  projection::PlantConfig cfg;
  cfg.numSwitches = switches;
  cfg.spec = spec;
  cfg.hostPortsPerSwitch = hostPorts;
  cfg.interLinksPerPair = inter;
  auto p = projection::buildPlant(cfg);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(Config, TopologyFromJsonFamilies) {
  const auto build = [](const char* text) {
    auto doc = json::parse(text);
    EXPECT_TRUE(doc.ok());
    return topologyFromJson(doc.value());
  };
  auto ft = build(R"({"type": "fattree", "k": 4})");
  ASSERT_TRUE(ft.ok());
  EXPECT_EQ(ft.value().numSwitches(), 20);
  auto df = build(R"({"type": "dragonfly", "a": 4, "g": 9, "h": 2})");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().numSwitches(), 36);
  auto t3 = build(R"({"type": "torus3d", "x": 4, "y": 4, "z": 4})");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3.value().numLinks(), 192);
  auto line = build(R"({"type": "line", "n": 8, "link_gbps": 25})");
  ASSERT_TRUE(line.ok());
  EXPECT_DOUBLE_EQ(line.value().link(0).speed.value, 25.0);
  auto zoo = build(R"({"type": "zoo", "index": 5})");
  ASSERT_TRUE(zoo.ok());
}

TEST(Config, CustomTopology) {
  auto doc = json::parse(R"({
    "type": "custom", "name": "tri", "switches": 3,
    "links": [[0,1],[1,2],[2,0]], "hosts": [0, 2]
  })");
  ASSERT_TRUE(doc.ok());
  auto t = topologyFromJson(doc.value());
  ASSERT_TRUE(t.ok()) << t.error().message;
  EXPECT_EQ(t.value().numSwitches(), 3);
  EXPECT_EQ(t.value().numLinks(), 3);
  EXPECT_EQ(t.value().numHosts(), 2);
}

TEST(Config, RejectsBadSpecs) {
  const auto tryBuild = [](const char* text) {
    auto doc = json::parse(text);
    EXPECT_TRUE(doc.ok());
    return topologyFromJson(doc.value()).ok();
  };
  EXPECT_FALSE(tryBuild(R"({"type": "fattree", "k": 5})"));   // odd k
  EXPECT_FALSE(tryBuild(R"({"type": "dragonfly", "a": 2, "g": 9, "h": 2})"));
  EXPECT_FALSE(tryBuild(R"({"type": "nope"})"));
  EXPECT_FALSE(tryBuild(R"({"type": "zoo", "index": 999})"));
  EXPECT_FALSE(tryBuild(R"({"type": "custom", "switches": 2, "links": [[0,5]]})"));
}

TEST(Config, ExperimentKnobs) {
  auto doc = json::parse(R"({
    "topology": {"type": "line", "n": 8},
    "routing": "shortest", "pfc": false, "dcqcn": false, "cut_through": false
  })");
  ASSERT_TRUE(doc.ok());
  auto cfg = parseExperimentConfig(doc.value());
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().routingStrategy, "shortest");
  sim::NetworkConfig net;
  applyFabricKnobs(cfg.value(), net);
  EXPECT_FALSE(net.pfcEnabled);
  EXPECT_FALSE(net.ecnEnabled);
  EXPECT_FALSE(net.cutThrough);
}

TEST(Controller, DeployLineTopology) {
  const topo::Topology topo = topo::makeLine(8);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(2, 8, 8));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  EXPECT_GT(dep.value().totalFlowEntries, 0);
  EXPECT_EQ(dep.value().switches.size(), 2u);
  // Modeled reconfiguration time in the paper's 100ms~1s envelope.
  EXPECT_GE(dep.value().reconfigTime, msToNs(80.0));
  EXPECT_LE(dep.value().reconfigTime, secToNs(1.0));
}

TEST(Controller, FlowTablesForwardEveryPair) {
  // Walk every host pair through the programmed tables by hand.
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(1, 4, 0));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  const auto& deployment = dep.value();
  for (topo::HostId src = 0; src < 4; ++src) {
    for (topo::HostId dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      // Start at src's host port.
      projection::PhysPort at = deployment.projection.hostPortOf(src);
      int hops = 0;
      while (true) {
        ASSERT_LT(++hops, 16) << "loop " << src << "->" << dst;
        openflow::PacketHeader h;
        h.inPort = at.port;
        h.srcAddr = static_cast<std::uint32_t>(src);
        h.dstAddr = static_cast<std::uint32_t>(dst);
        const auto decision = deployment.switches[at.sw]->process(h, 100);
        ASSERT_TRUE(decision.matched) << src << "->" << dst << " at port " << at.port;
        ASSERT_FALSE(decision.drop);
        const projection::PhysPort out{at.sw, decision.outPort};
        if (out == deployment.projection.hostPortOf(dst)) break;  // delivered
        // Otherwise we must be on a fabric link: hop across it.
        const auto logical = deployment.projection.logicalAt(out);
        ASSERT_TRUE(logical.has_value());
        const auto peer = topo.neighborOf(*logical);
        ASSERT_TRUE(peer.has_value());
        at = deployment.projection.physOf(*peer);
      }
    }
  }
}

TEST(Controller, CapacityGuardRefusesTinyTables) {
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  projection::PhysicalSwitchSpec tiny = projection::openflow128x100G();
  tiny.flowTableCapacity = 50;
  SdtController ctl(plantOf(2, 10, 12, tiny));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_FALSE(dep.ok());
  EXPECT_NE(dep.error().message.find("flow entries"), std::string::npos);
}

TEST(Controller, DeadlockGateBlocksCyclicRouting) {
  const topo::Topology ring = topo::makeRing(6);
  routing::ShortestPathRouting routing(ring);  // cyclic CDG on a ring
  SdtController ctl(plantOf(1, 6, 0));
  DeployOptions opt;
  opt.requireDeadlockFree = true;
  EXPECT_FALSE(ctl.deploy(ring, routing, opt).ok());
  opt.requireDeadlockFree = false;  // lossy network: allowed
  EXPECT_TRUE(ctl.deploy(ring, routing, opt).ok());
}

TEST(Controller, CheckReportsResourceDemands) {
  const topo::Topology a = topo::makeLine(8);
  const topo::Topology b = topo::makeRing(8);
  SdtController ctl(plantOf(2, 8, 8));
  const CheckReport report = ctl.check({&a, &b});
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_GT(report.maxSelfLinksPerSwitch, 0);
  EXPECT_GT(report.maxHostPortsPerSwitch, 0);
}

TEST(Controller, CheckFlagsInfeasibleTopology) {
  const topo::Topology big = topo::makeFullMesh(24);  // 276 links >> plant
  SdtController ctl(plantOf(2, 8, 8));
  const CheckReport report = ctl.check({&big});
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
}

TEST(Controller, ReconfigureNeverMovesCables) {
  // Deploy A, then B on the same plant: pure table work. The reconfig cost
  // is the incremental per-switch diff, which must be strictly cheaper than
  // the teardown+reinstall it replaced (line and ring share most rules).
  const topo::Topology a = topo::makeLine(8);
  const topo::Topology b = topo::makeRing(8);
  routing::ShortestPathRouting ra(a);
  routing::ShortestPathRouting rb(b);
  SdtController ctl(plantOf(2, 8, 8));
  auto da = ctl.deploy(a, ra, {.requireDeadlockFree = true});
  ASSERT_TRUE(da.ok());
  auto db = ctl.reconfigure(da.value(), b, rb, {.requireDeadlockFree = false});
  ASSERT_TRUE(db.ok()) << db.error().message;
  EXPECT_GT(db.value().reconfigFlowMods, 0);
  EXPECT_LT(db.value().reconfigFlowMods,
            da.value().totalFlowEntries + db.value().totalFlowEntries);
  EXPECT_GT(db.value().reconfigTime, 0);
  EXPECT_LE(db.value().reconfigTime, secToNs(1.5));
}

TEST(Controller, ReconfigureToSameTopologyIsFree) {
  // The diff of a deployment against an identical recompile is empty: zero
  // flow-mods, only the fixed barrier round-trip cost of the update model.
  const topo::Topology a = topo::makeLine(8);
  routing::ShortestPathRouting ra(a);
  SdtController ctl(plantOf(2, 8, 8));
  auto da = ctl.deploy(a, ra);
  ASSERT_TRUE(da.ok());
  auto again = ctl.reconfigure(da.value(), a, ra);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again.value().reconfigFlowMods, 0);
  EXPECT_LE(again.value().reconfigTime, da.value().reconfigTime);
}

TEST(Controller, EntriesScaleIsSane) {
  // §VII-C ballpark: FT k=4 on 2 switches needs hundreds (not tens of
  // thousands) of entries per switch.
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(2, 10, 12, projection::openflow128x100G()));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  EXPECT_GT(dep.value().maxEntriesPerSwitch, 100);
  EXPECT_LT(dep.value().maxEntriesPerSwitch, 5000);
}

TEST(Controller, DiffSkipsCoTenantRulesAndCountsRestamps) {
  // Tenant 3 on a shared switch moves from its epoch 1 to epoch 2: rule 1
  // survives (only its stamp changes), rule 2 goes, rule 4 is new and rule 5
  // is already at epoch 2. Rule 3 belongs to tenant 5.
  const std::uint32_t was = openflow::makeScopedEpoch(3, 1);
  const std::uint32_t next = openflow::makeScopedEpoch(3, 2);
  const auto rule = [](std::uint32_t epoch, std::uint32_t tag) {
    openflow::FlowEntry e;
    e.priority = 100;
    e.match.dstAddr = tag;
    e.cookie = openflow::makeCookie(epoch, tag);
    e.actions = {openflow::Action::output(static_cast<int>(tag))};
    return e;
  };
  const std::vector<openflow::FlowEntry> live = {
      rule(was, 1), rule(was, 2), rule(openflow::makeScopedEpoch(5, 1), 3), rule(next, 5)};
  const std::vector<openflow::FlowEntry> desired = {rule(next, 1), rule(next, 4),
                                                    rule(next, 5)};

  const detail::TableDiff scoped = detail::diffEntries(live, desired, 3);
  ASSERT_EQ(scoped.toRemove.size(), 1u);
  EXPECT_EQ(openflow::cookieTag(scoped.toRemove[0].cookie), 2u);
  ASSERT_EQ(scoped.toAdd.size(), 1u);
  EXPECT_EQ(scoped.toAdd[0], &desired[1]);
  EXPECT_EQ(scoped.restamps, 1);  // rule 1; the removed rule 2 is not swept

  // Unscoped, tenant 5's rule is one more rule to delete.
  const detail::TableDiff whole = detail::diffEntries(live, desired);
  ASSERT_EQ(whole.toRemove.size(), 2u);
  EXPECT_EQ(openflow::cookieTag(whole.toRemove[1].cookie), 3u);
  EXPECT_EQ(whole.toAdd.size(), 1u);
  EXPECT_EQ(whole.restamps, 1);
}

}  // namespace
}  // namespace sdt::controller
