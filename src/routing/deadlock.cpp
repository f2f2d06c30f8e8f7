#include "routing/deadlock.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "common/strings.hpp"

namespace sdt::routing {

namespace {

/// Dense channel numbering discovered lazily: ids are handed out in
/// first-seen order and looked up in a flat (link, dir, vc) table. The VC
/// stride starts at the algorithms' numVcs() and grows if a hop reports a
/// higher VC.
class ChannelIndex {
 public:
  ChannelIndex(int numLinks, int numVcs)
      : numLinks_(numLinks), vcStride_(numVcs), ids_(slotCount(numLinks, numVcs), -1) {}

  int idOf(Channel c) {
    if (c.vc >= vcStride_) grow(c.vc + 1);
    int& id = ids_[slot(c)];
    if (id < 0) {
      id = static_cast<int>(channels_.size());
      channels_.push_back(c);
    }
    return id;
  }
  [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }

 private:
  static std::size_t slotCount(int numLinks, int vcStride) {
    return static_cast<std::size_t>(numLinks) * 2 * static_cast<std::size_t>(vcStride);
  }
  [[nodiscard]] std::size_t slot(Channel c) const {
    return (static_cast<std::size_t>(c.link) * 2 + static_cast<std::size_t>(c.dir)) *
               static_cast<std::size_t>(vcStride_) +
           static_cast<std::size_t>(c.vc);
  }
  void grow(int vcStride) {
    vcStride_ = vcStride;
    ids_.assign(slotCount(numLinks_, vcStride_), -1);
    for (std::size_t id = 0; id < channels_.size(); ++id) {
      ids_[slot(channels_[id])] = static_cast<int>(id);
    }
  }

  int numLinks_;
  int vcStride_;
  std::vector<int> ids_;  ///< channel id per (link, dir, vc) slot, -1 unseen
  std::vector<Channel> channels_;
};

struct State {
  topo::SwitchId sw;
  topo::HostId dst;
  int vc;
  bool operator==(const State&) const = default;
};

struct StateHash {
  std::size_t operator()(const State& s) const {
    std::uint64_t h = static_cast<std::uint32_t>(s.sw);
    h = h * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint32_t>(s.dst);
    h = h * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint32_t>(s.vc);
    return static_cast<std::size_t>(h ^ h >> 29);
  }
};

/// One routing state. nextHop is pure, so the state is routed on its first
/// visit and every later visit (one per in-channel) replays the same hops.
struct StateInfo {
  State state;
  int firstHop = -1;  ///< into the hop pool; -1 until routed
  int numHops = 0;
  std::vector<int> inChannels{};  ///< visited in-channels (-1: injection)
};

/// Errors met while routing a state (rare, so kept apart from StateInfo).
struct RouteErrors {
  std::string held;       ///< first error of any kind, in probe order
  std::string injection;  ///< first unused-port or negative-VC error
};

}  // namespace

DeadlockReport analyzeDeadlock(const topo::Topology& topo,
                               const std::vector<const RoutingAlgorithm*>& algos,
                               int hashProbes) {
  DeadlockReport report;
  int maxVcs = 1;
  for (const RoutingAlgorithm* algo : algos) maxVcs = std::max(maxVcs, algo->numVcs());
  ChannelIndex index(topo.numLinks(), maxVcs);
  std::deque<StateInfo> states;  // stable addresses while routing adds states
  std::unordered_map<State, int, StateHash> stateIds;
  std::map<int, RouteErrors> errors;
  // (out-channel, next state id or -1 at the destination switch) per routed
  // state, distinct, in the order of their last probe: a probe's earlier
  // duplicate would only leave a worklist entry that is visited when popped.
  std::vector<std::pair<int, int>> hopPool;
  std::vector<std::pair<int, int>> probeHops;
  std::vector<std::vector<int>> adj;       // channel -> distinct channels
  std::vector<std::pair<int, int>> stack;  // worklist of (state id, inChannel)

  const auto stateId = [&](State st) {
    const auto [it, inserted] = stateIds.try_emplace(st, static_cast<int>(states.size()));
    if (inserted) states.push_back(StateInfo{st});
    return it->second;
  };

  // Probes every algorithm and flow hash at one state. Channel ids are
  // assigned here, in probe order, on the state's first visit.
  const auto route = [&](StateInfo& info, int id) {
    const State st = info.state;
    RouteErrors err;
    probeHops.clear();
    for (const RoutingAlgorithm* algo : algos) {
      for (int probe = 0; probe < hashProbes && err.injection.empty(); ++probe) {
        auto hop = algo->nextHop(st.sw, st.dst, st.vc, static_cast<std::uint64_t>(probe));
        if (!hop) {
          if (err.held.empty()) err.held = hop.error().message;
          continue;
        }
        const topo::SwitchPort out{st.sw, hop.value().outPort};
        const auto li = topo.linkAt(out);
        if (!li) {
          // Ends the analysis on any visit, so probing stops here.
          err.injection = strFormat("hop via unused port (switch %d port %d)", st.sw,
                                    hop.value().outPort);
          if (err.held.empty()) err.held = err.injection;
          break;
        }
        if (hop.value().vc < 0) {
          err.injection = strFormat("hop on negative VC %d (switch %d port %d)",
                                    hop.value().vc, st.sw, hop.value().outPort);
          if (err.held.empty()) err.held = err.injection;
          break;
        }
        const topo::Link& link = topo.link(*li);
        const int dir = link.a == out ? 0 : 1;
        const int outChannel = index.idOf(Channel{*li, dir, hop.value().vc});
        const topo::SwitchPort peer = link.peerOf(st.sw);
        // Ejection at the destination switch holds no further channel.
        const int next = peer.sw == topo.hostSwitch(st.dst)
                             ? -1
                             : stateId(State{peer.sw, st.dst, hop.value().vc});
        probeHops.emplace_back(outChannel, next);
      }
    }
    info.firstHop = static_cast<int>(hopPool.size());
    for (auto it = probeHops.begin(); it != probeHops.end(); ++it) {
      if (std::find(it + 1, probeHops.end(), *it) == probeHops.end()) hopPool.push_back(*it);
    }
    info.numHops = static_cast<int>(hopPool.size()) - info.firstHop;
    if (!err.held.empty()) errors.emplace(id, std::move(err));
    adj.resize(index.channels().size());
  };

  // Injection: every (source switch with a host, destination host) pair,
  // entering the fabric with VC0 and no held channel (-1).
  for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
    const topo::SwitchId target = topo.hostSwitch(dst);
    for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
      const topo::SwitchId sw = topo.hostSwitch(src);
      if (sw == target) continue;
      stack.emplace_back(stateId(State{sw, dst, 0}), -1);
    }
  }

  while (!stack.empty()) {
    const auto [id, inChannel] = stack.back();
    stack.pop_back();
    StateInfo& info = states[id];
    if (std::find(info.inChannels.begin(), info.inChannels.end(), inChannel) !=
        info.inChannels.end()) {
      continue;
    }
    info.inChannels.push_back(inChannel);
    if (info.firstHop < 0) route(info, id);

    // An unroutable *injection* state means the pair is unreachable (a
    // degraded topology severed every path); it contributes no channel
    // dependencies, so its routing errors are skipped. Failing mid-path —
    // while holding a channel — is a genuine routing dead end.
    if (const auto e = errors.find(id); e != errors.end()) {
      const std::string& error = inChannel < 0 ? e->second.injection : e->second.held;
      if (!error.empty()) {
        report.error = error;
        return report;
      }
    }
    for (int h = info.firstHop; h < info.firstHop + info.numHops; ++h) {
      const auto [outChannel, next] = hopPool[h];
      if (inChannel >= 0) {
        std::vector<int>& out = adj[inChannel];
        if (std::find(out.begin(), out.end(), outChannel) == out.end()) {
          out.push_back(outChannel);
        }
      }
      if (next >= 0) stack.emplace_back(next, outChannel);
    }
  }

  int edges = 0;
  for (std::vector<int>& out : adj) {
    std::sort(out.begin(), out.end());
    edges += static_cast<int>(out.size());
  }

  // Cycle detection (iterative DFS, three colors) over the sorted lists.
  const int n = static_cast<int>(index.channels().size());

  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0 white 1 gray 2 black
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<std::pair<int, std::size_t>> dfs{{start, 0}};
    color[start] = 1;
    while (!dfs.empty()) {
      auto& [v, next] = dfs.back();
      if (next < adj[v].size()) {
        const int w = adj[v][next++];
        if (color[w] == 0) {
          color[w] = 1;
          parent[w] = v;
          dfs.emplace_back(w, 0);
        } else if (color[w] == 1) {
          // Found a cycle: unwind from v back to w.
          std::vector<Channel> cycle;
          cycle.push_back(index.channels()[w]);
          for (int x = v; x != w && x != -1; x = parent[x]) {
            cycle.push_back(index.channels()[x]);
          }
          std::reverse(cycle.begin(), cycle.end());
          report.cycle = std::move(cycle);
          report.channelsUsed = n;
          report.dependencyEdges = edges;
          return report;
        }
      } else {
        color[v] = 2;
        dfs.pop_back();
      }
    }
  }
  report.deadlockFree = true;
  report.channelsUsed = n;
  report.dependencyEdges = edges;
  return report;
}

DeadlockReport analyzeDeadlock(const topo::Topology& topo, const RoutingAlgorithm& algo,
                               int hashProbes) {
  return analyzeDeadlock(topo, std::vector<const RoutingAlgorithm*>{&algo}, hashProbes);
}

}  // namespace sdt::routing
