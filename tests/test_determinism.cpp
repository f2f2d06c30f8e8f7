// Determinism regression tests: the engine must be bit-reproducible.
//
// The event arena + pooled packet queues reordered nothing by construction
// (the heap still pops by (when, seq)); these tests pin that down end to
// end: the same seed/configuration run twice — and run through a
// multi-threaded SweepRunner — must produce identical flow-completion
// times, event counts, and per-port counters.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "obs/collectors.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "testbed/sweep.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"

namespace sdt::testbed {
namespace {

struct Fingerprint {
  TimeNs act = 0;
  std::uint64_t events = 0;
  std::int64_t fabricTxBytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t portHash = 0;  ///< FNV-1a over every PortCounters field

  bool operator==(const Fingerprint&) const = default;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t hashPorts(sim::Network& net) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      const sim::PortCounters& c = net.switchPortCounters(sw, p);
      h = fnv1a(h, c.txPackets);
      h = fnv1a(h, c.txBytes);
      h = fnv1a(h, c.rxPackets);
      h = fnv1a(h, c.rxBytes);
      h = fnv1a(h, c.drops);
      h = fnv1a(h, c.pausesSent);
      h = fnv1a(h, c.ecnMarks);
    }
  }
  return h;
}

/// One full SDT-mode experiment (projection + flow tables + transport), so
/// the run exercises the indexed flow-table path and the packet pool.
Fingerprint runPoint(std::int64_t msgBytes) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  EXPECT_TRUE(plant.ok());
  auto inst = makeSdt(topo, routing, plant.value(), {});
  EXPECT_TRUE(inst.ok()) << inst.error().message;
  const workloads::Workload w = workloads::imbAlltoall(8, msgBytes, 2);
  const RunResult run = runWorkload(inst.value(), w, {});
  Fingerprint fp;
  fp.act = run.act;
  fp.events = run.events;
  fp.fabricTxBytes = run.fabricTxBytes;
  fp.drops = run.drops;
  fp.portHash = hashPorts(inst.value().net());
  return fp;
}

TEST(Determinism, SameConfigurationRunsBitIdentical) {
  const Fingerprint a = runPoint(16 * 1024);
  const Fingerprint b = runPoint(16 * 1024);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.act, 0);
}

TEST(Determinism, SweepRunnerMatchesSerialBitForBit) {
  const std::vector<std::int64_t> sizes{1024, 4096, 16384, 65536};

  std::vector<Fingerprint> serial;
  serial.reserve(sizes.size());
  for (const std::int64_t s : sizes) serial.push_back(runPoint(s));

  const SweepRunner sweep(4);
  EXPECT_EQ(sweep.threads(), 4);
  const std::vector<Fingerprint> threaded =
      sweep.run(sizes.size(), [&](std::size_t i) { return runPoint(sizes[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "point " << i << " diverged";
  }
  // Distinct configurations must actually differ — otherwise the equality
  // above proves nothing.
  EXPECT_NE(serial[0], serial[3]);
}

/// Incast point: many-to-one traffic concentrates every flow onto one edge
/// port — the traffic shape the admission tier guards.
Fingerprint runIncastPoint(std::int64_t bytesPerFlow) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  EXPECT_TRUE(plant.ok());
  InstanceOptions opt;
  opt.network.pfcEnabled = false;  // lossy: drops must also reproduce
  auto inst = makeSdt(topo, routing, plant.value(), opt);
  EXPECT_TRUE(inst.ok()) << inst.error().message;
  const workloads::Workload w = workloads::incast(12, bytesPerFlow, 3);
  const RunResult run = runWorkload(inst.value(), w, {});
  Fingerprint fp;
  fp.act = run.act;
  fp.events = run.events;
  fp.fabricTxBytes = run.fabricTxBytes;
  fp.drops = run.drops;
  fp.portHash = hashPorts(inst.value().net());
  return fp;
}

TEST(Determinism, PinnedEngineFingerprint) {
  // Literal fingerprints of the serial engine: any change to event order,
  // event count, RNG draws or port accounting shows up here, not only as a
  // run-to-run difference. Update only when the model is meant to change.
  const Fingerprint alltoall = runPoint(16 * 1024);
  EXPECT_EQ(alltoall.act, 232706);
  EXPECT_EQ(alltoall.events, 35414u);
  EXPECT_EQ(alltoall.fabricTxBytes, 7520256);
  EXPECT_EQ(alltoall.drops, 0u);
  EXPECT_EQ(alltoall.portHash, 16886017742571761893u);

  const Fingerprint incast = runIncastPoint(8 * 1024);
  EXPECT_EQ(incast.act, 236967);
  EXPECT_EQ(incast.events, 5046u);
  EXPECT_EQ(incast.fabricTxBytes, 1227264);
  EXPECT_EQ(incast.drops, 0u);
  EXPECT_EQ(incast.portHash, 14164694249891332146u);
}

TEST(Determinism, SweepRunnerPropagatesExceptions) {
  const SweepRunner sweep(2);
  EXPECT_THROW(sweep.run(8,
                         [](std::size_t i) -> int {
                           if (i == 5) throw std::runtime_error("boom");
                           return static_cast<int>(i);
                         }),
               std::runtime_error);
}

TEST(Determinism, PointSeedsAreStableAndDistinct) {
  const std::uint64_t base = 2023;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t s = SweepRunner::pointSeed(base, i);
    EXPECT_EQ(s, SweepRunner::pointSeed(base, i));  // pure function
    for (const std::uint64_t prior : seeds) EXPECT_NE(s, prior);
    seeds.push_back(s);
  }
  EXPECT_NE(SweepRunner::pointSeed(base, 0), SweepRunner::pointSeed(base + 1, 0));
}

/// Everything observable about one live reconfiguration under a lossy
/// control channel: the protocol trace, the data-plane counters, and the
/// consistency checker's view.
struct ReconfigFingerprint {
  bool committed = false;
  bool rolledBack = false;
  int flowModsInstalled = 0;
  int flowModsRolledBack = 0;
  int flowModsGarbageCollected = 0;
  int barrierRoundTrips = 0;
  int retriesTotal = 0;
  TimeNs updateWindowEnd = 0;
  TimeNs finishedAt = 0;
  std::size_t violations = 0;
  std::size_t stamped = 0;
  std::uint64_t lookups = 0;
  std::uint64_t portHash = 0;
  std::uint64_t events = 0;  ///< sim.eventsProcessed() at the end of the run

  bool operator==(const ReconfigFingerprint&) const = default;
};

/// Prints in designated-initializer form so a failing pin reads as (and can
/// be pasted back as) a literal.
void PrintTo(const ReconfigFingerprint& f, std::ostream* os) {
  *os << std::boolalpha << "{.committed = " << f.committed
      << ", .rolledBack = " << f.rolledBack
      << ", .flowModsInstalled = " << f.flowModsInstalled
      << ", .flowModsRolledBack = " << f.flowModsRolledBack
      << ", .flowModsGarbageCollected = " << f.flowModsGarbageCollected
      << ", .barrierRoundTrips = " << f.barrierRoundTrips
      << ", .retriesTotal = " << f.retriesTotal
      << ", .updateWindowEnd = " << f.updateWindowEnd
      << ", .finishedAt = " << f.finishedAt << ", .violations = " << f.violations
      << ", .stamped = " << f.stamped << ", .lookups = " << f.lookups
      << ", .portHash = " << f.portHash << "u, .events = " << f.events << "}";
}

/// One live line->ring update over a drop/dup/reorder channel while TCP
/// traffic runs: the whole transaction (retries, backoff draws, channel
/// schedule) must be a pure function of the seed.
ReconfigFingerprint runReconfigPoint(std::uint64_t seed) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::EpochConsistencyChecker checker;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, &checker);
  sim::TransportManager tm(sim, *built.net, {});

  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.25;
  cfg.dupProb = 0.15;
  cfg.reorderProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());

  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value());
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));

  ReconfigFingerprint fp;
  if (!tx.finished()) return fp;
  const controller::ReconfigReport& r = tx.report();
  fp.committed = r.committed;
  fp.rolledBack = r.rolledBack;
  fp.flowModsInstalled = r.flowModsInstalled;
  fp.flowModsRolledBack = r.flowModsRolledBack;
  fp.flowModsGarbageCollected = r.flowModsGarbageCollected;
  fp.barrierRoundTrips = r.barrierRoundTrips;
  fp.retriesTotal = r.retriesTotal;
  fp.updateWindowEnd = r.updateWindowEnd;
  fp.finishedAt = r.finishedAt;
  fp.violations = checker.violations().size();
  fp.stamped = checker.stampedPackets();
  fp.lookups = checker.lookups();
  fp.portHash = hashPorts(*built.net);
  fp.events = sim.eventsProcessed();
  return fp;
}

TEST(Determinism, TransactionalReconfigBitIdenticalSerialVsThreaded) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};

  std::vector<ReconfigFingerprint> serial;
  serial.reserve(seeds.size());
  for (const std::uint64_t s : seeds) serial.push_back(runReconfigPoint(s));

  const SweepRunner sweep(4);
  const std::vector<ReconfigFingerprint> threaded = sweep.run(
      seeds.size(), [&](std::size_t i) { return runReconfigPoint(seeds[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "reconfig point " << i << " diverged";
    // Rerunning the same seed serially must also reproduce bit-for-bit.
    EXPECT_EQ(runReconfigPoint(seeds[i]), serial[i])
        << "reconfig seed " << seeds[i] << " not a pure function of the seed";
    EXPECT_GT(serial[i].retriesTotal, 0) << "channel too kind: no retries";
    EXPECT_EQ(serial[i].violations, 0u);
  }
  // Distinct seeds must actually schedule differently somewhere.
  bool anyDiffer = false;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    anyDiffer = anyDiffer || !(serial[i] == serial[0]);
  }
  EXPECT_TRUE(anyDiffer);
}

/// Everything observable about a crash-at-phase-K + cold-start recovery:
/// the crashed transaction's trace, the journal's exact byte stream (records
/// carry simulated time only — any wall-clock leak shows up here first), and
/// the reconciliation trace.
struct CrashRecoveryFingerprint {
  bool crashed = false;
  int decision = 0;
  bool converged = false;
  std::uint32_t targetEpoch = 0;
  int flowMods = 0;
  int statsRounds = 0;
  int retriesTotal = 0;
  int switchesDrifted = 0;
  int switchesRebooted = 0;
  TimeNs recoveredAt = 0;
  std::uint64_t journalHash = 0;  ///< FNV-1a over the raw journal bytes
  std::uint64_t portHash = 0;
  std::uint64_t events = 0;  ///< sim.eventsProcessed() at the end of the run

  bool operator==(const CrashRecoveryFingerprint&) const = default;
};

void PrintTo(const CrashRecoveryFingerprint& f, std::ostream* os) {
  *os << std::boolalpha << "{.crashed = " << f.crashed
      << ", .decision = " << f.decision << ", .converged = " << f.converged
      << ", .targetEpoch = " << f.targetEpoch << ", .flowMods = " << f.flowMods
      << ", .statsRounds = " << f.statsRounds
      << ", .retriesTotal = " << f.retriesTotal
      << ", .switchesDrifted = " << f.switchesDrifted
      << ", .switchesRebooted = " << f.switchesRebooted
      << ", .recoveredAt = " << f.recoveredAt
      << ", .journalHash = " << f.journalHash << "u, .portHash = " << f.portHash
      << "u, .events = " << f.events << "}";
}

std::uint64_t hashBytes(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

CrashRecoveryFingerprint runCrashRecoverPoint(std::uint64_t seed,
                                              controller::CrashPoint crashAt) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  EXPECT_TRUE(controller::journalDeploy(journal, dep, 0).ok());

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::TransportManager tm(sim, *built.net, {});
  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.2;
  cfg.dupProb = 0.15;
  cfg.reorderProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = crashAt;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));

  CrashRecoveryFingerprint fp;
  if (!tx.finished()) return fp;
  fp.crashed = tx.crashed();
  // A seed-determined switch power-cycles while the controller is down.
  dep.switches[seed % dep.switches.size()]->reboot();

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplanR.ok()) return fp;
  fp.decision = static_cast<int>(rplanR.value().decision);
  fp.targetEpoch = rplanR.value().targetEpoch;
  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retry.seed = seed;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(100.0));
  if (!recovery.finished()) return fp;
  const controller::RecoveryReport& r = recovery.report();
  fp.converged = r.converged;
  fp.flowMods = r.flowMods;
  fp.statsRounds = r.statsRounds;
  fp.retriesTotal = r.retriesTotal;
  fp.switchesDrifted = r.switchesDrifted;
  fp.switchesRebooted = r.switchesRebooted;
  fp.recoveredAt = r.finishedAt;
  fp.journalHash = hashBytes(storage.bytes());
  fp.portHash = hashPorts(*built.net);
  fp.events = sim.eventsProcessed();
  return fp;
}

TEST(Determinism, CrashRecoveryBitIdenticalSerialVsThreaded) {
  // One point per crash phase, each with its own channel seed: the journal
  // byte stream, the recovery trace, and the data-plane counters must all be
  // pure functions of (seed, crash point).
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44, 55};
  const controller::CrashPoint points[] = {
      controller::CrashPoint::kPrepare, controller::CrashPoint::kMidInstall,
      controller::CrashPoint::kPreFlip, controller::CrashPoint::kPostFlip,
      controller::CrashPoint::kMidGc};

  std::vector<CrashRecoveryFingerprint> serial;
  serial.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    serial.push_back(runCrashRecoverPoint(seeds[i], points[i]));
  }

  const SweepRunner sweep(4);
  const std::vector<CrashRecoveryFingerprint> threaded = sweep.run(
      seeds.size(),
      [&](std::size_t i) { return runCrashRecoverPoint(seeds[i], points[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "crash point " << i << " diverged";
    EXPECT_EQ(runCrashRecoverPoint(seeds[i], points[i]), serial[i])
        << "crash seed " << seeds[i] << " not a pure function of the seed";
    EXPECT_TRUE(serial[i].crashed) << "point " << i << " never crashed";
    EXPECT_TRUE(serial[i].converged) << "point " << i << " never recovered";
    EXPECT_NE(serial[i].journalHash, 0u);
  }
  // Distinct (seed, phase) points must actually journal differently.
  bool anyDiffer = false;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    anyDiffer = anyDiffer || serial[i].journalHash != serial[0].journalHash;
  }
  EXPECT_TRUE(anyDiffer);
}

TEST(Determinism, PinnedControlPlaneFingerprint) {
  // Literal fingerprints of the control plane over a lossy channel: the live
  // transaction and crash recovery. Any change to the order of channel
  // sends, timer schedules or backoff draws moves an event count, a finish
  // time or a hash here. Update only when the protocol is meant to change.
  const std::pair<std::uint64_t, ReconfigFingerprint> reconfig[] = {
      {11,
       {.committed = true, .rolledBack = false, .flowModsInstalled = 72,
        .flowModsRolledBack = 0, .flowModsGarbageCollected = 60,
        .barrierRoundTrips = 2, .retriesTotal = 3, .updateWindowEnd = 410913,
        .finishedAt = 1425576, .violations = 0, .stamped = 768, .lookups = 3072,
        .portHash = 3469772611416253829u, .events = 14533}},
      {22,
       {.committed = true, .rolledBack = false, .flowModsInstalled = 72,
        .flowModsRolledBack = 0, .flowModsGarbageCollected = 60,
        .barrierRoundTrips = 2, .retriesTotal = 6, .updateWindowEnd = 465800,
        .finishedAt = 1619068, .violations = 0, .stamped = 768, .lookups = 3072,
        .portHash = 10569381641036765537u, .events = 14577}},
      {33,
       {.committed = true, .rolledBack = false, .flowModsInstalled = 72,
        .flowModsRolledBack = 0, .flowModsGarbageCollected = 60,
        .barrierRoundTrips = 2, .retriesTotal = 4, .updateWindowEnd = 711519,
        .finishedAt = 1725947, .violations = 0, .stamped = 768, .lookups = 3072,
        .portHash = 3469772611416253829u, .events = 14535}},
      {44,
       {.committed = true, .rolledBack = false, .flowModsInstalled = 72,
        .flowModsRolledBack = 0, .flowModsGarbageCollected = 60,
        .barrierRoundTrips = 2, .retriesTotal = 11, .updateWindowEnd = 3473327,
        .finishedAt = 4783835, .violations = 0, .stamped = 768, .lookups = 3072,
        .portHash = 3469772611416253829u, .events = 14551}},
  };
  for (const auto& [seed, want] : reconfig) {
    EXPECT_EQ(runReconfigPoint(seed), want) << "reconfig seed " << seed;
  }

  const std::tuple<std::uint64_t, controller::CrashPoint, CrashRecoveryFingerprint>
      crash[] = {
          {11, controller::CrashPoint::kPrepare,
           {.crashed = true, .decision = 2, .converged = true, .targetEpoch = 1,
            .flowMods = 31, .statsRounds = 2, .retriesTotal = 2,
            .switchesDrifted = 1, .switchesRebooted = 1, .recoveredAt = 80372915,
            .journalHash = 1910524941480441030u, .portHash = 3469772611416253829u,
            .events = 14520}},
          {22, controller::CrashPoint::kMidInstall,
           {.crashed = true, .decision = 2, .converged = true, .targetEpoch = 1,
            .flowMods = 67, .statsRounds = 2, .retriesTotal = 1,
            .switchesDrifted = 2, .switchesRebooted = 1, .recoveredAt = 80152785,
            .journalHash = 9786738776744162973u, .portHash = 3469772611416253829u,
            .events = 14524}},
          {33, controller::CrashPoint::kPreFlip,
           {.crashed = true, .decision = 2, .converged = true, .targetEpoch = 1,
            .flowMods = 67, .statsRounds = 2, .retriesTotal = 3,
            .switchesDrifted = 2, .switchesRebooted = 1, .recoveredAt = 80432938,
            .journalHash = 15390762749216243342u, .portHash = 3469772611416253829u,
            .events = 14545}},
          {44, controller::CrashPoint::kPostFlip,
           {.crashed = true, .decision = 1, .converged = true, .targetEpoch = 2,
            .flowMods = 69, .statsRounds = 2, .retriesTotal = 8,
            .switchesDrifted = 2, .switchesRebooted = 1, .recoveredAt = 81439050,
            .journalHash = 6846022208031396572u, .portHash = 3469772611416253829u,
            .events = 14559}},
          {55, controller::CrashPoint::kMidGc,
           {.crashed = true, .decision = 1, .converged = true, .targetEpoch = 2,
            .flowMods = 37, .statsRounds = 2, .retriesTotal = 3,
            .switchesDrifted = 1, .switchesRebooted = 1, .recoveredAt = 80475734,
            .journalHash = 7332633180195213086u, .portHash = 3469772611416253829u,
            .events = 14549}},
      };
  for (const auto& [seed, point, want] : crash) {
    EXPECT_EQ(runCrashRecoverPoint(seed, point), want)
        << "crash seed " << seed << " at " << controller::crashPointName(point);
  }
}

/// One fully instrumented live update: registry fed by the data-plane and
/// switch collectors plus the transaction's own push-side counters, tracer
/// recording the transaction's span tree. Returns the exported bytes — the
/// observability layer itself must be a pure function of the seed.
std::string runObservedPoint(std::uint64_t seed) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::TransportManager tm(sim, *built.net, {});

  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.25;
  cfg.dupProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  obs::Registry registry;
  obs::Tracer tracer;
  obs::registerNetworkCollector(registry, *built.net);
  obs::registerControlChannelCollector(registry, channel);
  obs::registerSwitchCollector(registry, built.ofSwitches);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.metrics = &registry;
  topt.tracer = &tracer;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));
  EXPECT_TRUE(tx.finished());

  return obs::metricsToJson(registry).dump(2) + "\n" +
         obs::tracerToJson(tracer).dump(2);
}

TEST(Determinism, ExportedTelemetryBitIdenticalSerialVsThreaded) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};

  std::vector<std::string> serial;
  serial.reserve(seeds.size());
  for (const std::uint64_t s : seeds) serial.push_back(runObservedPoint(s));

  const SweepRunner sweep(4);
  const std::vector<std::string> threaded = sweep.run(
      seeds.size(), [&](std::size_t i) { return runObservedPoint(seeds[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i])
        << "telemetry for seed " << seeds[i] << " diverged under threads";
    // The export must actually carry telemetry, not vacuous empty objects.
    EXPECT_NE(serial[i].find("sdt_net_tx_bytes_total"), std::string::npos);
    EXPECT_NE(serial[i].find("sdt_ctrl_msgs_total"), std::string::npos);
    EXPECT_NE(serial[i].find("sdt_of_flow_mods_total"), std::string::npos);
    EXPECT_NE(serial[i].find("\"reconfigure\""), std::string::npos);
  }
  // Different channel seeds must leave different telemetry somewhere.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(Determinism, SerialAndParallelRunnersAgree) {
  // threads=1 takes the inline path; threads=3 the pool path. Same results,
  // same order.
  const SweepRunner one(1);
  const SweepRunner three(3);
  const auto square = [](std::size_t i) { return i * i; };
  EXPECT_EQ(one.run(37, square), three.run(37, square));
}

}  // namespace
}  // namespace sdt::testbed
