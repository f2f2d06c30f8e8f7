// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary reproduces one table or figure from the paper's §VI and
// prints the same rows/series the paper reports (see EXPERIMENTS.md for the
// paper-vs-measured record). Binaries run standalone:
//   for b in build/bench/*; do $b; done
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "projection/plant.hpp"
#include "routing/routing.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"

namespace sdt::bench {

/// Machine-readable bench output: every bench binary records its headline
/// numbers in BENCH_<name>.json (cwd) so the perf trajectory is comparable
/// across PRs without scraping stdout. Typical use:
///
///   bench::JsonReport report("fig11_latency_overhead");
///   report.set("max_overhead", maxOverhead);
///   report.row("points", {{"msglen", 64}, {"overhead", 0.012}});
///   report.write();
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    root_["bench"] = name_;
  }

  /// Top-level scalar metric.
  void set(const std::string& key, json::Value value) { root_[key] = std::move(value); }

  /// Append one row to the named array of per-point objects.
  void row(const std::string& arrayKey, json::Object fields) {
    auto it = root_.find(arrayKey);
    if (it == root_.end()) it = root_.emplace(arrayKey, json::Array{}).first;
    it->second.asArray().emplace_back(std::move(fields));
  }

  /// Obs registry embedded in the report: hand it to collectors
  /// (obs/collectors.hpp) or NetworkMonitor::attachMetrics and write() adds
  /// a "metrics" section with everything it collected.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }

  /// Write BENCH_<name>.json; returns false (and warns) on I/O failure.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    json::Object root = root_;
    // Hardware context: every report records the machine's thread budget,
    // so numbers from different machines are comparable at a glance.
    root["hw_threads"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    root["metrics"] = obs::metricsToJson(metrics_);  // {} when nothing attached
    const std::string text = json::Value(std::move(root)).dump(2);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  json::Object root_;
  obs::Registry metrics_;
};

/// Auto-size a plant for `topo`, growing the switch count until it fits.
inline projection::Plant autoPlant(const topo::Topology& topo,
                                   projection::PhysicalSwitchSpec spec =
                                       projection::openflow128x100G(),
                                   int startSwitches = 2, int maxSwitches = 8) {
  for (int n = startSwitches; n <= maxSwitches; ++n) {
    auto p = projection::planPlant({&topo}, {.numSwitches = n, .spec = spec});
    if (p.ok()) {
      std::printf("# plant: %d x %s for '%s'\n", n, spec.model.c_str(),
                  topo.name().c_str());
      return std::move(p).value();
    }
  }
  std::fprintf(stderr, "FATAL: no plant fits '%s'\n", topo.name().c_str());
  std::abort();
}

/// Table III routing strategy for a generated topology family.
inline std::string strategyFor(const topo::Topology& topo) {
  const std::string& n = topo.name();
  if (n.rfind("fattree", 0) == 0) return "fattree-dfs";
  if (n.rfind("dragonfly", 0) == 0) return "dragonfly-minimal";
  if (n.rfind("mesh2d", 0) == 0) return "mesh-xy";
  if (n.rfind("mesh3d", 0) == 0) return "mesh-xyz";
  if (n.rfind("torus", 0) == 0) return "torus-clue";
  return "shortest";
}

/// "Randomly selected nodes but kept the same among all evaluations"
/// (§VI-D): deterministic shuffled prefix of the host set.
inline std::vector<int> selectHosts(int totalHosts, int ranks, std::uint64_t seed = 2023) {
  std::vector<int> hosts(static_cast<std::size_t>(totalHosts));
  for (int i = 0; i < totalHosts; ++i) hosts[i] = i;
  Rng rng(seed);
  rng.shuffle(hosts);
  hosts.resize(static_cast<std::size_t>(ranks));
  return hosts;
}

inline void printRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace sdt::bench
