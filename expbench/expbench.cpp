// Layer-timed experiment benchmark: one experiment per process.
//
// One process runs one experiment of one workload: config -> plant -> deploy
// -> network build -> closed-loop MPI run on the simulated fabric. It prints
// `context`, `sample` and `process` lines (one JSON object each) and, when
// traced, a `spans` line. run.py starts one process per experiment for the
// run's wall-clock budget, gates the pinned outputs and reduces the samples
// to medians. Usage:
//
//   expbench --workload ft8-deploy --seed 1 --trace 0
//
// An untraced experiment calls SdtController::deploy() and reads only the
// end-to-end clocks. A traced experiment replays deploy()'s steps as separate
// public calls (analyzeDeadlock, LinkProjector::project,
// detail::compileFlowTables, FlowTable::add into fresh switches), records one
// span per call in memory, checks that the replayed tables equal deploy()'s
// rule for rule, and prints the spans at exit.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "controller/config.hpp"
#include "controller/controller.hpp"
#include "controller/table_diff.hpp"
#include "controller/transaction.hpp"
#include "projection/feasibility.hpp"
#include "projection/link_projector.hpp"
#include "projection/plant.hpp"
#include "routing/deadlock.hpp"
#include "routing/routing.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
#include "workloads/apps.hpp"
#include "workloads/mpi.hpp"

#ifndef EXPBENCH_BUILD_TYPE
#define EXPBENCH_BUILD_TYPE "unknown"
#endif

using namespace sdt;

namespace {

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* const kFatTree8 =
    R"({"topology": {"type": "fattree", "k": 8}, "routing": "fattree-dfs",
        "pfc": true, "dcqcn": true, "cut_through": true})";
const char* const kDragonfly =
    R"({"topology": {"type": "dragonfly", "a": 4, "g": 9, "h": 2,
                     "hosts_per_switch": 1},
        "routing": "dragonfly-minimal",
        "pfc": true, "dcqcn": true, "cut_through": true})";

struct WorkloadSpec {
  const char* name;
  const char* config;  ///< experiment config document (sdtctl format)
  int switches;        ///< physical switches in the plant
  int ranks;
  std::int64_t msgBytes;
  int iterations;  ///< IMB alltoall rounds
  /// Live reroute: simulated time at which planUpdate runs and the two-phase
  /// transaction starts (0 = no live update).
  TimeNs rerouteAt;
};

const WorkloadSpec kWorkloads[] = {
    {"ft8-deploy", kFatTree8, 8, 32, 32 * kKiB, 2, 0},
    {"dfly-alltoall", kDragonfly, 3, 32, 32 * kKiB, 2, 0},
    {"ft8-live-reroute", kFatTree8, 8, 32, 32 * kKiB, 3, usToNs(200.0)},
};

/// Simulated-time slice the benchmark runs while a transaction is open, so
/// the host time of the open window can be read between slices.
constexpr TimeNs kWindowSlice = usToNs(20.0);

/// Grace period between the last flip ack and garbage collection. The
/// transaction's 1 ms default is shorter than this loaded PFC fabric's
/// in-flight time: on ft8-live-reroute seed 0, 15 epoch-1 packets are still
/// queued when their rules are collected, miss mid-path, and the MPI job
/// never finishes. 2 ms drains every pinned seed (0..63).
constexpr TimeNs kDrainDelay = msToNs(2.0);

// -- Spans -------------------------------------------------------------------

/// Layer tag of a span: a src/ module name charges its self time to that
/// layer; kOverlay spans are timed but transparent (their time stays with
/// the parent); kCheck spans are the benchmark's own verification and are
/// subtracted from the traced experiment time.
constexpr const char* kOverlay = "";
constexpr const char* kCheck = "check";
constexpr const char* kBench = "bench";

struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  int root = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  int begin(const char* name, const char* layer) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(
        {name, layer, parent, parent < 0 ? id : spans_[parent].root, wallNow(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[id].end = wallNow();
    stack_.pop_back();
  }
  /// Run `fn` inside one span and pass its result through.
  template <typename F>
  auto call(const char* name, const char* layer, F&& fn) {
    const int id = begin(name, layer);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto result = fn();
      end(id);
      return result;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer self time and per-name total time of the spans under `root`.
/// A span's self time is its duration minus its non-overlay children's.
void summarizeSpans(const std::vector<Span>& spans, int root, json::Object& out) {
  std::vector<double> childTime(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.root != root || s.parent < 0 || s.layer == kOverlay) continue;
    childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  json::Object self;
  json::Object byName;
  double checkS = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.root != root) continue;
    const double dur = s.end - s.start;
    byName[s.name] = byName[s.name].asDouble() + dur;
    if (s.layer == kCheck) {
      checkS += dur;
    } else if (s.layer != kOverlay) {
      self[s.layer] = self[s.layer].asDouble() + dur - childTime[i];
    }
  }
  const Span& r = spans[static_cast<std::size_t>(root)];
  out["trace_experiment_s"] = r.end - r.start - checkS;
  out["layer_self_s"] = std::move(self);
  out["span_s"] = std::move(byName);
}

// -- Experiment --------------------------------------------------------------

template <typename T>
T need(Result<T> r, const char* what) {
  if (!r) throw std::runtime_error(std::string(what) + ": " + r.error().message);
  return std::move(r).value();
}

/// Config, routing and plant of one experiment. Pinned in place: the routing
/// algorithm keeps a reference to the config's topology.
struct Fabric {
  Fabric(const WorkloadSpec& w, Tracer& tr) {
    config = tr.call("controller.config", "controller", [&] {
      return need(controller::parseExperimentConfig(need(json::parse(w.config), "config")),
                  "config");
    });
    routing = tr.call("routing.make", "routing", [&] {
      return need(routing::makeRouting(config.routingStrategy, config.topology),
                  "routing");
    });
    plant = tr.call("projection.plan_plant", "projection", [&] {
      return need(projection::planPlant({&config.topology},
                                        {.numSwitches = w.switches,
                                         .spec = projection::openflow128x100G()}),
                  "plant");
    });
  }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  controller::ExperimentConfig config;
  std::unique_ptr<routing::RoutingAlgorithm> routing;
  projection::Plant plant;
};

controller::DeployOptions deployOptions(const Fabric& f) {
  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = f.config.pfc;  // lossless fabrics must be safe
  return dopt;
}

/// deploy() replayed step by step, one span per public call, in deploy()'s
/// order. Mirrors SdtController::deploy for a single-tenant deployment.
controller::Deployment replayDeploy(const Fabric& f, const controller::DeployOptions& dopt,
                                    Tracer& tr, json::Object& s) {
  const topo::Topology& topo = f.config.topology;
  const routing::RoutingAlgorithm& algo = *f.routing;
  if (dopt.requireDeadlockFree) {
    const routing::DeadlockReport dl = tr.call(
        "routing.deadlock", "routing", [&] { return routing::analyzeDeadlock(topo, algo); });
    if (!dl.error.empty() || !dl.deadlockFree) {
      throw std::runtime_error("deadlock analysis refused the routing");
    }
    s["cdg_channels"] = dl.channelsUsed;
    s["cdg_edges"] = dl.dependencyEdges;
  }
  controller::Deployment dep;
  dep.projection = tr.call("projection.project", "projection", [&] {
    return need(projection::LinkProjector::project(topo, f.plant, dopt.projector),
                "project");
  });
  dep.epoch = openflow::makeScopedEpoch(dopt.tenant, 1);
  const auto tables = tr.call("controller.compile", "controller", [&] {
    return need(controller::detail::compileFlowTables(topo, dep.projection, f.plant,
                                                      algo, dopt, dep.epoch),
                "compile");
  });
  int compiled = 0;
  for (const auto& t : tables) compiled += static_cast<int>(t.size());
  s["entries_compiled"] = compiled;
  tr.call("openflow.install", "openflow", [&] {
    for (int psw = 0; psw < f.plant.numSwitches(); ++psw) {
      const projection::PhysicalSwitchSpec& spec = f.plant.switches[psw];
      auto ofs = std::make_shared<openflow::Switch>(psw, spec.numPorts,
                                                    spec.flowTableCapacity);
      for (const openflow::FlowEntry& e : tables[psw]) {
        if (auto st = ofs->table().add(e); !st) {
          throw std::runtime_error("install: " + st.error().message);
        }
      }
      ofs->setIngressEpoch(dep.epoch);
      const int n = static_cast<int>(tables[psw].size());
      dep.totalFlowEntries += n;
      dep.maxEntriesPerSwitch = std::max(dep.maxEntriesPerSwitch, n);
      dep.switches.push_back(std::move(ofs));
    }
  });
  dep.reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, dep.totalFlowEntries);
  dep.topology = topo.name();
  dep.routing = algo.name();
  dep.ecmpSalt = dopt.ecmpSalt;
  return dep;
}

/// Rule-for-rule, per-switch equality of two deployments' tables.
bool sameTables(const controller::Deployment& a, const controller::Deployment& b) {
  if (a.switches.size() != b.switches.size()) return false;
  for (std::size_t sw = 0; sw < a.switches.size(); ++sw) {
    const auto& ea = a.switches[sw]->table().entries();
    const auto& eb = b.switches[sw]->table().entries();
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (!openflow::sameRule(ea[i], eb[i])) return false;
    }
  }
  return true;
}

/// A started live update. The simulator's queue references the channel and
/// the transaction until it drains, so the caller keeps this alive until then.
struct LiveUpdate {
  std::unique_ptr<sim::ControlChannel> channel;
  std::unique_ptr<controller::ReconfigTransaction> tx;
};

/// Prepare (planUpdate with ecmpSalt 0 -> 1) and run a two-phase transaction
/// over a clean seeded control channel, in simulated-time slices while it is
/// open. Records the transaction's outcome and its open-window cost in `s`.
LiveUpdate liveUpdate(sim::Simulator& sim, controller::SdtController& ctl, const Fabric& f,
                      const controller::DeployOptions& dopt, controller::Deployment& dep,
                      std::uint64_t seed, Tracer& tr, json::Object& s) {
  const double p0 = wallNow();
  controller::UpdatePlan plan = tr.call("controller.plan_update", "controller", [&] {
    controller::DeployOptions next = dopt;
    next.ecmpSalt = dopt.ecmpSalt + 1;
    return need(ctl.planUpdate(dep, f.config.topology, *f.routing, next), "planUpdate");
  });
  s["plan_update_s"] = wallNow() - p0;

  LiveUpdate u;
  u.channel = std::make_unique<sim::ControlChannel>(sim, seed, sim::ControlChannelConfig{});
  controller::ReconfigOptions topt;
  topt.drainDelay = kDrainDelay;
  u.tx = std::make_unique<controller::ReconfigTransaction>(sim, *u.channel, dep,
                                                           std::move(plan), topt);
  controller::ReconfigTransaction& tx = *u.tx;
  // The open window is simulator work; the overlay span only marks it.
  const int run = tr.begin("sim.run", "sim");
  const int win = tr.begin("transaction.window", kOverlay);
  const std::uint64_t ev0 = sim.eventsProcessed();
  const double w0 = wallNow();
  tx.start();
  TimeNs until = sim.now();
  while (!tx.finished() && !sim.empty()) {
    until += kWindowSlice;
    sim.runUntil(until);
  }
  s["window_host_s"] = wallNow() - w0;
  s["window_events"] = static_cast<std::int64_t>(sim.eventsProcessed() - ev0);
  tr.end(win);
  tr.end(run);

  const controller::ReconfigReport& r = tx.report();
  s["tx_finished"] = tx.finished();
  s["tx_committed"] = r.committed;
  s["tx_pure"] = r.pureStateVerified;
  s["tx_installed"] = r.flowModsInstalled;
  s["tx_gc"] = r.flowModsGarbageCollected;
  s["tx_barrier_round_trips"] = r.barrierRoundTrips;
  s["tx_retries"] = r.retriesTotal;
  return u;
}

json::Object runExperiment(const WorkloadSpec& w, std::uint64_t seed, Tracer& tr) {
  json::Object s;
  const bool traced = tr.enabled();

  // Traced experiments first run deploy() as one call, outside the
  // experiment: its tables are what the step-by-step replay must rebuild.
  std::optional<controller::Deployment> reference;
  if (traced) {
    const int ref = tr.begin("reference", kBench);
    const Fabric f(w, tr);
    const controller::SdtController ctl(f.plant);
    const double d0 = wallNow();
    reference = tr.call("controller.deploy", "controller", [&] {
      return need(ctl.deploy(f.config.topology, *f.routing, deployOptions(f)), "deploy");
    });
    s["deploy_s"] = wallNow() - d0;
    tr.end(ref);
  }

  const double wall0 = wallNow();
  const double cpu0 = cpuNow();
  const int root = tr.begin("experiment", kBench);

  const Fabric f(w, tr);
  const topo::Topology& topo = f.config.topology;
  controller::SdtController ctl(f.plant);
  const controller::DeployOptions dopt = deployOptions(f);
  controller::Deployment dep;
  if (traced) {
    dep = replayDeploy(f, dopt, tr, s);
    s["replay_equal"] =
        tr.call("bench.check_replay", kCheck, [&] { return sameTables(dep, *reference); });
    s["inter_switch_links"] = dep.projection.interSwitchLinkCount();
    reference.reset();
  } else {
    dep = need(ctl.deploy(topo, *f.routing, dopt), "deploy");
  }
  s["switches"] = f.plant.numSwitches();
  s["total_entries"] = dep.totalFlowEntries;
  s["max_entries"] = dep.maxEntriesPerSwitch;

  sim::Simulator sim;
  std::unique_ptr<sim::EpochConsistencyChecker> checker;
  if (w.rerouteAt > 0) checker = std::make_unique<sim::EpochConsistencyChecker>();
  const double b0 = wallNow();
  const sim::BuiltNetwork built = tr.call("sim.build", "sim", [&] {
    sim::NetworkConfig nc;
    controller::applyFabricKnobs(f.config, nc);
    return sim::buildProjectedNetwork(sim, topo, dep.projection, f.plant, dep.switches,
                                      nc, sim::CrossbarModel{2.0, 1.0}, checker.get());
  });
  sim::TransportManager transport(sim, *built.net, sim::TransportConfig{});
  s["build_s"] = wallNow() - b0;
  s["setup_s"] = wallNow() - wall0;

  std::optional<workloads::MpiRuntime> runtime;
  tr.call("workloads.setup", "workloads", [&] {
    const workloads::Workload wl = workloads::imbAlltoall(w.ranks, w.msgBytes, w.iterations);
    runtime.emplace(sim, transport, bench::selectHosts(topo.numHosts(), w.ranks, seed));
    runtime->run(wl);
  });

  LiveUpdate update;
  double runS = 0.0;
  const auto runSim = [&](auto&& fn) {
    const double r0 = wallNow();
    tr.call("sim.run", "sim", fn);
    runS += wallNow() - r0;
  };
  if (w.rerouteAt == 0) {
    runSim([&] { sim.run(); });
  } else {
    runSim([&] { sim.runUntil(w.rerouteAt); });
    s["mid_run"] = !runtime->finished();
    update = liveUpdate(sim, ctl, f, dopt, dep, seed, tr, s);
    s["finished_before_tx_end"] = runtime->finished();
    runS += s["window_host_s"].asDouble();
    runSim([&] { sim.run(); });
    s["violations"] = static_cast<std::int64_t>(checker->violations().size());
    s["stamped_packets"] = static_cast<std::int64_t>(checker->stampedPackets());
  }

  const sim::Network& net = *built.net;
  std::int64_t fabricBytes = 0;
  std::int64_t pktHops = 0;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      fabricBytes += static_cast<std::int64_t>(net.switchPortCounters(sw, p).txBytes);
      pktHops += static_cast<std::int64_t>(net.switchPortCounters(sw, p).txPackets);
    }
  }
  std::int64_t adds = 0;
  std::int64_t removes = 0;
  for (const auto& sw : dep.switches) {
    adds += static_cast<std::int64_t>(sw->table().addsTotal());
    removes += static_cast<std::int64_t>(sw->table().removesTotal());
  }
  tr.end(root);
  s["experiment_s"] = wallNow() - wall0;
  s["cpu_s"] = cpuNow() - cpu0;
  s["run_s"] = runS;
  s["finished"] = runtime->finished();
  s["act_ns"] = static_cast<std::int64_t>(runtime->completionTime());
  s["events"] = static_cast<std::int64_t>(sim.eventsProcessed());
  s["fabric_bytes"] = fabricBytes;
  s["pkt_hops"] = pktHops;
  s["drops"] = static_cast<std::int64_t>(net.totalDrops());
  s["arena_capacity"] = static_cast<std::int64_t>(sim.arenaCapacity());
  s["adds"] = adds;
  s["removes"] = removes;
  if (traced) {
    summarizeSpans(tr.spans(), root, s);
    // The transaction layer gets a reading on every workload: without a
    // live reroute, the traced experiment ends with the same update on the
    // idle fabric, outside the experiment's time and layer accounting.
    if (w.rerouteAt == 0) {
      const int probe = tr.begin("idle_update", kBench);
      update = liveUpdate(sim, ctl, f, dopt, dep, seed, tr, s);
      sim.run();  // drain the protocol's stale timers
      tr.end(probe);
    }
  }
  return s;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

json::Array spansJson(const std::vector<Span>& spans) {
  json::Array rows;
  for (const Span& s : spans) {
    rows.emplace_back(json::Object{{"name", s.name},
                                   {"layer", s.layer},
                                   {"parent", s.parent},
                                   {"root", s.root},
                                   {"start_s", s.start},
                                   {"end_s", s.end}});
  }
  return rows;
}

void emit(const char* tag, const json::Object& obj) {
  std::printf("%s %s\n", tag, json::Value(obj).dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string val = argv[i + 1];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      trace = val == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  const WorkloadSpec* w = findWorkload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  // Sharded engines change ACT and event counts today, so the pinned
  // outputs would not hold; the benchmark measures the serial engine only.
  if (sim::Simulator::envShards() > 1 || sim::Simulator::envWorkers() > 1) {
    std::fprintf(stderr, "refusing to measure with SDT_SHARDS=%d SDT_SIM_WORKERS=%d\n",
                 sim::Simulator::envShards(), sim::Simulator::envWorkers());
    return 3;
  }
  emit("context", {{"workload", w->name},
                   {"seed", static_cast<std::int64_t>(seed)},
                   {"trace", trace},
                   {"shards", sim::Simulator::envShards()},
                   {"sim_workers", sim::Simulator::envWorkers()},
                   {"hw_threads", static_cast<int>(std::thread::hardware_concurrency())},
                   {"build_type", EXPBENCH_BUILD_TYPE}});

  Tracer tracer;
  tracer.setEnabled(trace);
  try {
    emit("sample", runExperiment(*w, seed, tracer));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "expbench: %s\n", e.what());
    return 1;
  }
  if (trace) {
    std::printf("spans %s\n", json::Value(spansJson(tracer.spans())).dump().c_str());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  emit("process", {{"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
                   {"cpu_s", cpuNow()}});
  return 0;
}
