// Tests: OpenFlow flow-table semantics (priority matching, capacity,
// counters), the inline action list, and the switch pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/table_diff.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/of_switch.hpp"
#include "routing/routing.hpp"
#include "topo/generators.hpp"

namespace sdt::openflow {
namespace {

PacketHeader header(int inPort, std::uint32_t dst, std::uint8_t tc = 0) {
  PacketHeader h;
  h.inPort = inPort;
  h.srcAddr = 1;
  h.dstAddr = dst;
  h.trafficClass = tc;
  return h;
}

TEST(Match, WildcardMatchesEverything) {
  Match m;
  EXPECT_TRUE(m.matches(header(3, 7)));
  EXPECT_EQ(m.specificity(), 0);
}

TEST(Match, ExactFields) {
  Match m;
  m.inPort = 2;
  m.dstAddr = 9;
  EXPECT_TRUE(m.matches(header(2, 9)));
  EXPECT_FALSE(m.matches(header(3, 9)));
  EXPECT_FALSE(m.matches(header(2, 8)));
  EXPECT_EQ(m.specificity(), 2);
}

TEST(Match, TrafficClass) {
  Match m;
  m.trafficClass = 1;
  EXPECT_TRUE(m.matches(header(0, 0, 1)));
  EXPECT_FALSE(m.matches(header(0, 0, 0)));
}

TEST(FlowTable, PriorityOrder) {
  FlowTable t(16);
  FlowEntry low;
  low.priority = 1;
  low.actions = {Action::output(1)};
  FlowEntry high;
  high.priority = 10;
  high.match.dstAddr = 5;
  high.actions = {Action::output(2)};
  ASSERT_TRUE(t.add(low).ok());
  ASSERT_TRUE(t.add(high).ok());
  const FlowEntry* e = t.lookup(header(0, 5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->actions[0].arg, 2);  // high priority wins
  e = t.lookup(header(0, 6));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->actions[0].arg, 1);  // falls through to wildcard
}

TEST(FlowTable, StableOrderWithinPriority) {
  FlowTable t(16);
  FlowEntry first;
  first.priority = 5;
  first.actions = {Action::output(1)};
  FlowEntry second;
  second.priority = 5;
  second.actions = {Action::output(2)};
  ASSERT_TRUE(t.add(first).ok());
  ASSERT_TRUE(t.add(second).ok());
  EXPECT_EQ(t.lookup(header(0, 0))->actions[0].arg, 1);
}

TEST(FlowTable, InsertionOrderMatchesLinearScan) {
  // add() finds its spot by binary search; the table order must equal a
  // reference that scans for the first lower-priority entry, so equal
  // priorities stay in insertion order. Interleaved removals keep the
  // table sorted for later adds.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    FlowTable t(4096);
    std::vector<FlowEntry> reference;
    for (std::uint32_t i = 0; i < 2000; ++i) {
      FlowEntry e;
      e.priority = static_cast<int>(rng.below(seed % 2 == 0 ? 4 : 64)) - 2;
      e.cookie = makeCookie(1 + static_cast<std::uint32_t>(rng.below(3)), i);
      ASSERT_TRUE(t.add(e).ok());
      reference.insert(std::find_if(reference.begin(), reference.end(),
                                    [&](const FlowEntry& r) { return r.priority < e.priority; }),
                       e);
      if (rng.below(50) == 0) {
        const std::uint32_t epoch = 1 + static_cast<std::uint32_t>(rng.below(3));
        EXPECT_EQ(t.removeByEpoch(epoch),
                  static_cast<std::size_t>(std::erase_if(reference, [&](const FlowEntry& r) {
                    return cookieEpoch(r.cookie) == epoch;
                  })));
      }
    }
    ASSERT_EQ(t.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(t.entries()[i].cookie, reference[i].cookie) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(FlowTable, CapacityEnforced) {
  FlowTable t(2);
  EXPECT_TRUE(t.add(FlowEntry{}).ok());
  EXPECT_TRUE(t.add(FlowEntry{}).ok());
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.add(FlowEntry{}).ok());
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable t(8);
  FlowEntry a;
  a.cookie = 7;
  FlowEntry b;
  b.cookie = 8;
  ASSERT_TRUE(t.add(a).ok());
  ASSERT_TRUE(t.add(b).ok());
  ASSERT_TRUE(t.add(a).ok());
  EXPECT_EQ(t.removeByCookie(7), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t(8);
  FlowEntry e;
  e.match.dstAddr = 1;
  ASSERT_TRUE(t.add(e).ok());
  EXPECT_EQ(t.lookup(header(0, 2)), nullptr);
}

TEST(FlowTable, CountersUpdateOnlyOnLookupAndCount) {
  FlowTable t(8);
  FlowEntry e;
  ASSERT_TRUE(t.add(e).ok());
  t.lookupAndCount(header(0, 0), 100);
  t.lookupAndCount(header(0, 0), 50);
  EXPECT_NE(t.lookup(header(0, 0)), nullptr);  // const peek: no counting
  EXPECT_EQ(t.entries()[0].packetCount, 2u);
  EXPECT_EQ(t.entries()[0].byteCount, 150u);
}

TEST(ActionList, KeepsPushOrderAndComparesByContent) {
  ActionList list;
  EXPECT_TRUE(list.empty());
  list.push_back(Action::setVc(1));
  list.push_back(Action::output(4));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_FALSE(list.empty());
  EXPECT_EQ(list[0], Action::setVc(1));
  EXPECT_EQ(list.back(), Action::output(4));
  std::vector<Action> seen(list.begin(), list.end());
  EXPECT_EQ(seen, (std::vector<Action>{Action::setVc(1), Action::output(4)}));

  EXPECT_EQ(list, (ActionList{Action::setVc(1), Action::output(4)}));
  EXPECT_FALSE(list == (ActionList{Action::output(4), Action::setVc(1)}));  // order counts
  EXPECT_FALSE(list == (ActionList{Action::setVc(1)}));                     // so does length
  EXPECT_EQ(ActionList{}, ActionList{});
}

TEST(ActionListDeathTest, FifthActionAborts) {
  ActionList list{Action::setQueue(1), Action::setVc(1), Action::output(2), Action::drop()};
  ASSERT_EQ(list.size(), ActionList::kCapacity);
  EXPECT_DEATH(list.push_back(Action::output(3)), "action list is full");
}

TEST(ActionList, RuleIdentityAndKeyUnchanged) {
  FlowEntry a;
  a.priority = 100;
  a.cookie = makeCookie(1, 3);
  a.match.inPort = 2;
  a.match.dstAddr = 9;
  a.actions = {Action::setVc(1), Action::output(4)};
  EXPECT_EQ(controller::detail::ruleKey(a), "p100 c3 m{in=2 dst=9} a2:1 a0:4");

  FlowEntry b = a;
  b.packetCount = 7;  // counters are not identity
  EXPECT_TRUE(sameRule(a, b));
  b.actions = {Action::output(4)};
  EXPECT_FALSE(sameRule(a, b));
  EXPECT_NE(controller::detail::ruleKey(a), controller::detail::ruleKey(b));
}

TEST(ActionList, JournalRoundTripRebuildsIdenticalRules) {
  // Rules recompiled from the journaled intent must equal the installed
  // ones rule for rule, setVc + output action pairs included.
  const topo::Topology torus = topo::makeTorus2D(3, 3);
  auto routing = routing::makeRouting("torus-clue", torus);
  ASSERT_TRUE(routing.ok()) << routing.error().message;
  auto plant = projection::planPlant({&torus}, {.numSwitches = 2});
  ASSERT_TRUE(plant.ok()) << plant.error().message;
  const controller::SdtController ctl(std::move(plant).value());
  auto dep = ctl.deploy(torus, *routing.value());
  ASSERT_TRUE(dep.ok()) << dep.error().message;

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  controller::JournalRecord rec;
  rec.kind = controller::JournalRecordKind::kDeploy;
  rec.epoch = dep.value().epoch;
  rec.topology = torus.name();
  rec.routing = routing.value()->name();
  ASSERT_TRUE(journal.append(rec).ok());
  controller::IntentCatalog catalog;
  catalog[torus.name()] = {&torus, routing.value().get()};
  auto plan = controller::planRecovery(ctl, journal, catalog);
  ASSERT_TRUE(plan.ok()) << plan.error().message;

  int withSetVc = 0;
  for (std::size_t psw = 0; psw < dep.value().switches.size(); ++psw) {
    const std::vector<FlowEntry>& live = dep.value().switches[psw]->table().entries();
    const std::vector<FlowEntry>& want = plan.value().tables[psw];
    ASSERT_EQ(live.size(), want.size()) << "switch " << psw;
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_TRUE(sameRule(live[i], want[i])) << "switch " << psw << " rule " << i;
      ASSERT_EQ(controller::detail::ruleKey(live[i]), controller::detail::ruleKey(want[i]));
      withSetVc += live[i].actions.size() == 2;
    }
    const controller::detail::TableDiff diff = controller::detail::diffEntries(live, want);
    EXPECT_TRUE(diff.toRemove.empty());
    EXPECT_TRUE(diff.toAdd.empty());
    EXPECT_EQ(diff.restamps, 0);
  }
  EXPECT_GT(withSetVc, 0) << "no VC-changing rule exercised";
}

TEST(Switch, PipelineOutputAndCounters) {
  Switch sw(0, 4);
  FlowEntry e;
  e.match.inPort = 1;
  e.actions = {Action::setQueue(3), Action::output(2)};
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(1, 0), 500);
  EXPECT_TRUE(d.matched);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.outPort, 2);
  EXPECT_EQ(d.queue, 3);
  EXPECT_EQ(sw.portStats(1).rxPackets, 1u);
  EXPECT_EQ(sw.portStats(1).rxBytes, 500u);
  EXPECT_EQ(sw.portStats(2).txPackets, 1u);
}

TEST(Switch, TableMissDrops) {
  Switch sw(0, 4);
  const ForwardDecision d = sw.process(header(0, 9), 100);
  EXPECT_FALSE(d.matched);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(sw.portStats(0).rxPackets, 1u);
}

TEST(Switch, ExplicitDropAction) {
  Switch sw(0, 4);
  FlowEntry e;
  e.actions = {Action::drop()};
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(0, 0), 100);
  EXPECT_TRUE(d.matched);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(sw.portStats(0).txDrops, 1u);
}

TEST(Switch, SetVcAction) {
  Switch sw(0, 4);
  FlowEntry e;
  e.actions = {Action::setVc(1), Action::output(3)};
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(0, 0), 100);
  EXPECT_EQ(d.vc, 1);
  EXPECT_EQ(d.outPort, 3);
}

TEST(Switch, ResetStats) {
  Switch sw(0, 2);
  FlowEntry e;
  e.actions = {Action::output(1)};
  ASSERT_TRUE(sw.table().add(e).ok());
  sw.process(header(0, 0), 100);
  sw.resetStats();
  EXPECT_EQ(sw.portStats(0).rxPackets, 0u);
  EXPECT_EQ(sw.portStats(1).txPackets, 0u);
}

}  // namespace
}  // namespace sdt::openflow
