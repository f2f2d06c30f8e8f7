// Google-benchmark microbenchmarks for the engine primitives: event loop
// throughput, flow-table lookup, partitioning, projection, deadlock
// analysis, and end-to-end packet forwarding. These bound how large an
// experiment the substrate can carry (events/second is the simulator's
// currency).
//
// Besides the google-benchmark tables, the binary re-measures the three
// headline counters (events/sec, packets/sec, flow-lookups/sec) with plain
// timed loops and records them in BENCH_engine_microbench.json so the perf
// trajectory stays comparable across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <random>

#include "bench_util.hpp"
#include "controller/controller.hpp"
#include "partition/partitioner.hpp"
#include "projection/link_projector.hpp"
#include "routing/deadlock.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"

namespace {

using namespace sdt;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule(i % 1000, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(10000)->Arg(100000);

/// Steady-state scheduling: events reschedule themselves, so the arena
/// free-list is exercised instead of cold growth (the common regime inside
/// a running experiment).
void BM_EventSteadyState(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int chains = 64;
    const std::int64_t perChain = state.range(0) / chains;
    for (int c = 0; c < chains; ++c) {
      struct Hop {
        sim::Simulator* sim;
        std::int64_t left;
        void operator()() const {
          if (left > 0) sim->schedule(100, Hop{sim, left - 1});
        }
      };
      sim.schedule(c, Hop{&sim, perChain});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventSteadyState)->Arg(100000);

/// Hold model over the simulator's own queue shape: a constant pending set
/// of ~1.4k events, each of which schedules one successor with a delay drawn
/// from the mix an ft8-deploy experiment schedules (seed 1, 2.2M schedules,
/// mean pending set 1 424): 0 ns 11%, 51-71 ns serialization 23%, 360-363 ns
/// pipeline 17%, 500 ns NIC 7%, 870-880 ns host serialization 21%, 6 553 ns
/// NIC-backpressure retry 18%, 55 us DCQCN timer 3%.
class HoldModel {
 public:
  static constexpr std::size_t kPending = 1424;

  explicit HoldModel(long events) : left_(events) {
    constexpr std::array<std::pair<sim::Time, int>, 11> kMix = {{{0, 110},
                                                                 {51, 50},
                                                                 {61, 125},
                                                                 {71, 55},
                                                                 {361, 100},
                                                                 {363, 70},
                                                                 {500, 70},
                                                                 {870, 180},
                                                                 {880, 30},
                                                                 {6553, 180},
                                                                 {55000, 30}}};
    for (const auto& [delay, perMille] : kMix) delays_.insert(delays_.end(), perMille, delay);
    std::shuffle(delays_.begin(), delays_.end(), std::mt19937(1));
    for (std::size_t i = 0; i < kPending; ++i) sim_.schedule(delays_[i], Hop{this});
  }

  /// Runs until `events` events have fired; returns how many fired.
  std::uint64_t run() {
    sim_.run();
    return sim_.eventsProcessed();
  }

 private:
  struct Hop {
    HoldModel* m;
    void operator()() const {
      if (--m->left_ <= 0) {
        m->sim_.stop();
        return;
      }
      m->sim_.schedule(m->delays_[m->next_++ % m->delays_.size()], Hop{m});
    }
  };

  sim::Simulator sim_;
  std::vector<sim::Time> delays_;
  std::size_t next_ = 0;
  long left_;
};

void BM_EventHoldRealisticMix(benchmark::State& state) {
  for (auto _ : state) {
    HoldModel model(state.range(0));
    benchmark::DoNotOptimize(model.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventHoldRealisticMix)->Arg(200000);

openflow::FlowTable makeProjectorShapedTable(int entries) {
  openflow::FlowTable table(4096);
  for (int i = 0; i < entries; ++i) {
    openflow::FlowEntry e;
    e.priority = 100;
    e.match.inPort = i % 48;
    e.match.dstAddr = static_cast<std::uint32_t>(i);
    e.actions = {openflow::Action::output(i % 48)};
    (void)table.add(std::move(e));
  }
  return table;
}

void BM_FlowTableLookup(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  openflow::FlowTable table = makeProjectorShapedTable(entries);
  openflow::PacketHeader h;
  h.inPort = (entries - 1) % 48;
  h.dstAddr = static_cast<std::uint32_t>(entries - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookupAndCount(h, 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(64)->Arg(512)->Arg(2048);

/// An ft8-deploy-shaped switch table: 8 960 rules over 80 in-ports x 112
/// destinations, the average per-switch share of fat-tree k=8's 71 680.
openflow::FlowTable makeFt8ShapedTable() {
  constexpr int kInPorts = 80;
  constexpr int kRules = 8960;
  openflow::FlowTable table(16384);
  table.reserve(kRules);
  for (int i = 0; i < kRules; ++i) {
    openflow::FlowEntry e;
    e.priority = 100;
    e.match.inPort = i % kInPorts;
    e.match.dstAddr = static_cast<std::uint32_t>(i / kInPorts);
    e.cookie = openflow::makeCookie(1, static_cast<std::uint32_t>(i % kInPorts) + 1);
    e.actions = {openflow::Action::output((i + 1) % kInPorts)};
    (void)table.add(std::move(e));
  }
  return table;
}

/// The lazy index build that the first lookup after deploy pays (inside the
/// simulation run).
void BM_FlowTableBuildIndex(benchmark::State& state) {
  const openflow::FlowTable table = makeFt8ShapedTable();
  for (auto _ : state) {
    table.buildIndex();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_FlowTableBuildIndex);

void BM_PartitionDragonfly(benchmark::State& state) {
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  const topo::Graph g = topo.switchGraph();
  for (auto _ : state) {
    partition::PartitionOptions opt;
    opt.parts = static_cast<int>(state.range(0));
    auto r = partition::partitionGraph(g, opt);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PartitionDragonfly)->Arg(2)->Arg(3);

void BM_LinkProjection(benchmark::State& state) {
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto plant = projection::planPlant(
      {&topo}, {.numSwitches = 3, .spec = projection::openflow128x100G()});
  if (!plant.ok()) {
    state.SkipWithError("plant planning failed");
    return;
  }
  for (auto _ : state) {
    auto proj = projection::LinkProjector::project(topo, plant.value());
    benchmark::DoNotOptimize(proj.ok());
  }
}
BENCHMARK(BM_LinkProjection);

void BM_DeployFlowTables(benchmark::State& state) {
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant(
      {&topo}, {.numSwitches = 2, .spec = projection::openflow128x100G()});
  if (!plant.ok()) {
    state.SkipWithError("plant planning failed");
    return;
  }
  controller::SdtController ctl(plant.value());
  for (auto _ : state) {
    auto dep = ctl.deploy(topo, routing, {.requireDeadlockFree = false});
    benchmark::DoNotOptimize(dep.ok());
  }
}
BENCHMARK(BM_DeployFlowTables);

void BM_DeadlockAnalysisTorus(benchmark::State& state) {
  const topo::Topology topo = topo::makeTorus3D(4, 4, 4);
  auto algo = routing::makeRouting("torus-clue", topo);
  if (!algo.ok()) {
    state.SkipWithError("routing construction failed");
    return;
  }
  for (auto _ : state) {
    const auto report = routing::analyzeDeadlock(topo, *algo.value());
    benchmark::DoNotOptimize(report.deadlockFree);
  }
}
BENCHMARK(BM_DeadlockAnalysisTorus);

void BM_PacketForwardingEndToEnd(benchmark::State& state) {
  // Messages across a line-4 fabric: measures full data-plane event cost.
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  for (auto _ : state) {
    sim::Simulator sim;
    auto built = sim::buildLogicalNetwork(sim, topo, routing, {});
    sim::TransportManager transport(sim, *built.net, {});
    transport.sendMessage(0, 3, 64 * 1024, 0, {});
    sim.run();
    benchmark::DoNotOptimize(sim.eventsProcessed());
  }
}
BENCHMARK(BM_PacketForwardingEndToEnd);

// -- Headline counters for BENCH_engine_microbench.json ----------------------

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// events/sec, steady state: 64 self-rescheduling event chains — the shape
/// of a running simulation (bounded pending set, every event schedules its
/// successor), where the arena's zero-allocation path is exercised.
double measureEventsPerSec() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    const long target = 200000;
    long done = 0;
    struct Hop {
      sim::Simulator* sim;
      long* done;
      long target;
      void operator()() const {
        if (++*done >= target) return;
        sim->schedule(10, Hop{sim, done, target});
      }
    };
    for (int c = 0; c < 64; ++c) sim.schedule(c, Hop{&sim, &done, target});
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    best = std::max(best, static_cast<double>(done) / secondsSince(start));
  }
  return best;
}

/// events/sec, bulk: schedule 200k closures up front, then drain — stresses
/// deep-queue push/pop rather than the steady-state arena path.
double measureBulkEventsPerSec() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    const int n = 200000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) sim.schedule(i % 1000, [] {});
    sim.run();
    best = std::max(best, n / secondsSince(start));
  }
  return best;
}

/// events/sec, hold model: a ~1.4k pending set with the simulator's
/// measured delay mix (see HoldModel).
double measureHoldEventsPerSec() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    HoldModel model(500000);
    const auto start = std::chrono::steady_clock::now();
    const auto events = model.run();
    best = std::max(best, static_cast<double>(events) / secondsSince(start));
  }
  return best;
}

/// packets/sec: end-to-end line-4 forwarding, counted at switch tx ports.
double measurePacketsPerSec() {
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    auto built = sim::buildLogicalNetwork(sim, topo, routing, {});
    sim::TransportManager transport(sim, *built.net, {});
    const auto start = std::chrono::steady_clock::now();
    for (int m = 0; m < 20; ++m) {
      transport.sendMessage(0, 3, 256 * 1024, 0, {});
      transport.sendMessage(3, 0, 256 * 1024, 0, {});
      sim.run();
    }
    const double wall = secondsSince(start);
    std::uint64_t txPackets = 0;
    for (int sw = 0; sw < built.net->numSwitches(); ++sw) {
      for (int p = 0; p < built.net->switchPortCount(sw); ++p) {
        txPackets += built.net->switchPortCounters(sw, p).txPackets;
      }
    }
    best = std::max(best, static_cast<double>(txPackets) / wall);
  }
  return best;
}

/// flow-lookups/sec against a LinkProjector-shaped table of `entries` rows.
double measureLookupsPerSec(int entries) {
  openflow::FlowTable table = makeProjectorShapedTable(entries);
  openflow::PacketHeader h;
  h.inPort = (entries - 1) % 48;
  h.dstAddr = static_cast<std::uint32_t>(entries - 1);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int n = 2000000;
    const auto start = std::chrono::steady_clock::now();
    const openflow::FlowEntry* last = nullptr;
    for (int i = 0; i < n; ++i) {
      last = table.lookupAndCount(h, 1000);
    }
    benchmark::DoNotOptimize(last);
    best = std::max(best, n / secondsSince(start));
  }
  return best;
}

/// Microseconds per full index build of `table` (best of 3).
double measureIndexBuildUs(const openflow::FlowTable& table) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int n = 200;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      table.buildIndex();
      benchmark::ClobberMemory();
    }
    const double us = secondsSince(start) * 1e6 / n;
    best = rep == 0 ? us : std::min(best, us);
  }
  return best;
}

void writeHeadlineReport() {
  bench::JsonReport report("engine_microbench");
  report.set("events_per_sec", measureEventsPerSec());
  report.set("bulk_events_per_sec", measureBulkEventsPerSec());
  report.set("hold_events_per_sec", measureHoldEventsPerSec());
  report.set("packets_per_sec", measurePacketsPerSec());
  for (const int entries : {64, 512, 2048}) {
    report.row("flow_lookups", {{"entries", entries},
                                {"lookups_per_sec", measureLookupsPerSec(entries)}});
  }
  const openflow::FlowTable ft8 = makeFt8ShapedTable();
  report.set("flow_index_build_rules", static_cast<int>(ft8.size()));
  report.set("flow_index_build_us", measureIndexBuildUs(ft8));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeHeadlineReport();
  return 0;
}
