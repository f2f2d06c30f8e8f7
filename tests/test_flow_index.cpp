// Differential tests for the FlowTable exact-match index: the indexed
// lookup path must return exactly the entry a pure priority-ordered linear
// scan would, on both controller-compiled tables (the (inPort, dstAddr)
// shape the index is built for) and adversarial synthetic tables full of
// wildcards, priority ties, mixed rule epochs, stamped headers, and
// mid-stream mutations and restamps. SDT_FAULT_SEED (the CI soak knob)
// perturbs the randomized tables.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "openflow/flow_table.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::openflow {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
}

/// The pre-index semantics, verbatim: entries are kept sorted by descending
/// priority with stable insertion order, so the first match wins — among
/// rules the header's epoch admits (a stamped header sees its own epoch and
/// epoch-0 wildcard rules; an unstamped one sees every rule).
const FlowEntry* referenceLookup(const FlowTable& table, const PacketHeader& h) {
  for (const FlowEntry& e : table.entries()) {
    const std::uint32_t re = cookieEpoch(e.cookie);
    const bool epochOk = h.epoch == 0 || re == 0 || re == h.epoch;
    if (epochOk && e.match.matches(h)) return &e;
  }
  return nullptr;
}

/// Build a header that matches `e` on every concrete field, with random
/// values elsewhere; optionally perturb one field afterwards so roughly half
/// the probes hit a different (or no) entry.
PacketHeader headerNear(const FlowEntry& e, Rng& rng, bool perturb) {
  PacketHeader h;
  h.inPort = e.match.inPort.value_or(static_cast<int>(rng.below(16)));
  h.srcAddr = e.match.srcAddr.value_or(static_cast<std::uint32_t>(rng.below(32)));
  h.dstAddr = e.match.dstAddr.value_or(static_cast<std::uint32_t>(rng.below(32)));
  h.srcPort = e.match.srcPort.value_or(static_cast<std::uint16_t>(rng.below(8)));
  h.dstPort = e.match.dstPort.value_or(static_cast<std::uint16_t>(rng.below(8)));
  h.protocol = e.match.protocol.value_or(static_cast<std::uint8_t>(rng.below(4)));
  h.trafficClass =
      e.match.trafficClass.value_or(static_cast<std::uint8_t>(rng.below(8)));
  if (perturb) {
    switch (rng.below(4)) {
      case 0: h.inPort = static_cast<int>(rng.below(16)); break;
      case 1: h.dstAddr = static_cast<std::uint32_t>(rng.below(32)); break;
      case 2: h.srcAddr = static_cast<std::uint32_t>(rng.below(32)); break;
      default: h.trafficClass = static_cast<std::uint8_t>(rng.below(8)); break;
    }
  }
  // Unstamped, or stamped with an epoch some (but not all) rules carry.
  h.epoch = static_cast<std::uint32_t>(rng.below(4));
  return h;
}

void checkDifferential(const FlowTable& table, Rng& rng, int probes) {
  ASSERT_GT(table.size(), 0u);
  for (int i = 0; i < probes; ++i) {
    const FlowEntry& seed =
        table.entries()[rng.below(table.entries().size())];
    const PacketHeader h = headerNear(seed, rng, rng.below(2) == 0);
    const FlowEntry* expect = referenceLookup(table, h);
    const FlowEntry* got = table.lookup(h);
    ASSERT_EQ(got, expect) << "probe " << i << " diverged: indexed lookup "
                           << (got ? got->match.describe() : "miss")
                           << " vs scan "
                           << (expect ? expect->match.describe() : "miss");
  }
}

FlowEntry randomEntry(Rng& rng, std::uint64_t cookie) {
  FlowEntry e;
  e.priority = static_cast<int>(rng.below(8));  // force plenty of ties
  e.cookie = cookie;
  // Each field independently wildcarded; small value domains so entries
  // overlap and shadow each other.
  if (rng.below(4) != 0) e.match.inPort = static_cast<int>(rng.below(16));
  if (rng.below(4) != 0) e.match.dstAddr = static_cast<std::uint32_t>(rng.below(32));
  if (rng.below(8) == 0) e.match.srcAddr = static_cast<std::uint32_t>(rng.below(32));
  if (rng.below(8) == 0) e.match.srcPort = static_cast<std::uint16_t>(rng.below(8));
  if (rng.below(8) == 0) e.match.dstPort = static_cast<std::uint16_t>(rng.below(8));
  if (rng.below(8) == 0) e.match.protocol = static_cast<std::uint8_t>(rng.below(4));
  if (rng.below(6) == 0)
    e.match.trafficClass = static_cast<std::uint8_t>(rng.below(8));
  e.actions.push_back(Action::output(static_cast<int>(rng.below(16))));
  return e;
}

/// randomEntry() whose cookie carries a random epoch in 0..3 (0 = wildcard).
FlowEntry randomEpochEntry(Rng& rng, std::uint32_t tag) {
  return randomEntry(rng, makeCookie(static_cast<std::uint32_t>(rng.below(4)), tag));
}

TEST(FlowIndex, MatchesLinearScanOnRandomizedTables) {
  Rng rng(0xF10D1F10Du ^ faultSeed());
  for (int trial = 0; trial < 16; ++trial) {
    FlowTable table(4096);
    const std::size_t n = 32 + rng.below(480);
    for (std::uint32_t i = 0; i < n; ++i) {
      // Odd trials mix rule epochs; even ones keep every rule at epoch 0.
      FlowEntry e = trial % 2 != 0 ? randomEpochEntry(rng, i) : randomEntry(rng, i);
      ASSERT_TRUE(table.add(std::move(e)).ok());
    }
    checkDifferential(table, rng, 2000);  // 32k probes across the trials
  }
}

TEST(FlowIndex, LookupAfterRestampSeesTheNewEpoch) {
  // The index caches every rule's epoch, so a restamp must refresh it: a
  // lookup before the restamp builds the index, and a lookup after it with
  // the new epoch must still hit (and the old epoch must miss).
  FlowTable table(16);
  FlowEntry legacy;
  legacy.priority = 100;
  legacy.match.inPort = 1;
  legacy.match.dstAddr = 5;
  legacy.cookie = makeCookie(1, 7);
  legacy.actions = {Action::output(2)};
  ASSERT_TRUE(table.add(legacy).ok());
  FlowEntry sliced = legacy;
  sliced.match.dstAddr = 6;
  sliced.cookie = makeCookie(makeScopedEpoch(3, 1), 8);
  ASSERT_TRUE(table.add(sliced).ok());

  PacketHeader h;
  h.inPort = 1;
  h.dstAddr = 5;
  h.epoch = 1;
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.restampEpoch(2), 2u);  // rewrites the slice's rule too
  EXPECT_EQ(table.lookup(h), nullptr) << "stale epoch still cached";
  h.epoch = 2;
  EXPECT_EQ(table.lookup(h), &table.entries()[0]);

  h.dstAddr = 6;
  const std::uint32_t sliceEpoch = makeScopedEpoch(3, 1);
  sliced.cookie = makeCookie(sliceEpoch, 8);
  ASSERT_TRUE(table.removeExact(table.entries()[1]));
  ASSERT_TRUE(table.add(sliced).ok());
  h.epoch = sliceEpoch;
  ASSERT_EQ(table.lookup(h), &table.entries()[1]);
  EXPECT_EQ(table.restampTenantEpoch(makeScopedEpoch(3, 2)), 1u);
  EXPECT_EQ(table.lookup(h), nullptr) << "stale tenant epoch still cached";
  h.epoch = makeScopedEpoch(3, 2);
  EXPECT_EQ(table.lookup(h), &table.entries()[1]);
  h.dstAddr = 5;
  h.epoch = 2;  // the restamp left the other tenant's rule alone
  EXPECT_EQ(table.lookup(h), &table.entries()[0]);
}

TEST(FlowIndex, MatchesLinearScanOnControllerCompiledTables) {
  // The real deal: tables produced by LinkProjector + routing compilation,
  // where every entry matches (inPort, dstAddr) — the indexed fast path.
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plant.ok()) << plant.error().message;
  const controller::SdtController ctl(std::move(plant).value());
  auto deployment = ctl.deploy(topo, routing);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message;

  Rng rng(0xC0117011u ^ faultSeed());
  int probes = 0;
  for (const auto& sw : deployment.value().switches) {
    if (sw->table().size() == 0) continue;
    checkDifferential(sw->table(), rng, 4000);
    probes += 4000;
  }
  EXPECT_GE(probes, 10000) << "not enough populated tables to be meaningful";
}

TEST(FlowIndex, SurvivesMutationBetweenLookups) {
  Rng rng(0xDEADBEA7u ^ faultSeed());
  FlowTable table(4096);
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(table.add(randomEntry(rng, i % 16)).ok());
  }
  checkDifferential(table, rng, 500);
  // Interleave removals / inserts / restamps with differential probes:
  // every mutation must invalidate the index.
  for (int round = 0; round < 24; ++round) {
    switch (rng.below(4)) {
      case 0: table.removeByCookie(table.entries()[rng.below(table.size())].cookie); break;
      case 1: table.restampEpoch(static_cast<std::uint32_t>(rng.below(4))); break;
      case 2: table.restampTenantEpoch(static_cast<std::uint32_t>(rng.below(4))); break;
      default:
        ASSERT_TRUE(
            table.add(randomEpochEntry(rng, static_cast<std::uint32_t>(rng.below(16)))).ok());
        break;
    }
    if (table.size() == 0) {
      ASSERT_TRUE(table.add(randomEpochEntry(rng, 0)).ok());
    }
    checkDifferential(table, rng, 500);
  }
  table.clear();
  PacketHeader any;
  EXPECT_EQ(table.lookup(any), nullptr);
}

TEST(FlowIndex, EagerBuildIndexMatchesLazy) {
  Rng rng(0x5EED5EEDu ^ faultSeed());
  FlowTable lazy(4096);
  FlowTable eager(4096);
  for (std::uint64_t i = 0; i < 200; ++i) {
    FlowEntry e = randomEntry(rng, i);
    ASSERT_TRUE(lazy.add(e).ok());
    ASSERT_TRUE(eager.add(std::move(e)).ok());
  }
  eager.buildIndex();  // the pre-sharing hook for concurrent readers
  for (int i = 0; i < 2000; ++i) {
    const FlowEntry& seed = lazy.entries()[rng.below(lazy.entries().size())];
    const PacketHeader h = headerNear(seed, rng, rng.below(2) == 0);
    const FlowEntry* a = lazy.lookup(h);
    const FlowEntry* b = eager.lookup(h);
    // Different tables, so compare by position, not pointer.
    const auto pos = [](const FlowTable& t, const FlowEntry* e) {
      return e == nullptr ? -1 : static_cast<long>(e - t.entries().data());
    };
    ASSERT_EQ(pos(lazy, a), pos(eager, b));
  }
}

}  // namespace
}  // namespace sdt::openflow
