#include "controller/controller.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "common/strings.hpp"
#include "controller/table_diff.hpp"
#include "partition/partitioner.hpp"
#include "routing/degraded.hpp"

namespace sdt::controller {

namespace {

/// Connected-component label per logical switch over the fabric links,
/// skipping the links `severedMask` marks (null: none). Labels count up in
/// the order of each component's lowest switch.
std::vector<int> componentLabels(const topo::Topology& topo,
                                 const std::vector<char>* severedMask) {
  std::vector<int> root(static_cast<std::size_t>(topo.numSwitches()));
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&](int v) {
    while (root[v] != v) v = root[v] = root[root[v]];
    return v;
  };
  for (std::size_t li = 0; li < topo.links().size(); ++li) {
    if (severedMask != nullptr && (*severedMask)[li]) continue;
    root[find(topo.links()[li].a.sw)] = find(topo.links()[li].b.sw);
  }
  std::vector<int> labelOfRoot(root.size(), -1);
  std::vector<int> component(root.size());
  int next = 0;
  for (int sw = 0; sw < topo.numSwitches(); ++sw) {
    int& label = labelOfRoot[find(sw)];
    if (label == -1) label = next++;
    component[sw] = label;
  }
  return component;
}

/// Rules compileFlowTables emits per physical switch at one VC: per logical
/// switch, one per ingress port except the output port, for each host in
/// its component. Exact at one VC, a lower bound at several, and times
/// numVcs() an upper bound.
std::vector<int> oneVcRulesPerSwitch(const topo::Topology& topo,
                                     const projection::Projection& projection,
                                     const std::vector<int>& component, int numPhysSwitches) {
  std::vector<int> hostsInComponent(static_cast<std::size_t>(topo.numSwitches()), 0);
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    ++hostsInComponent[component[topo.hostSwitch(h)]];
  }
  std::vector<int> rules(static_cast<std::size_t>(numPhysSwitches), 0);
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    int ingress = static_cast<int>(topo.hostsOf(sw).size());
    for (topo::PortId lp = 0; lp < topo.radix(sw); ++lp) {
      if (projection.physOf(topo::SwitchPort{sw, lp}).valid()) ++ingress;
    }
    const int dsts = hostsInComponent[component[sw]];
    if (ingress > 1 && dsts > 0) rules[projection.physSwitchOf(sw)] += (ingress - 1) * dsts;
  }
  return rules;
}

}  // namespace

// Shared with crash recovery via controller/table_diff.hpp; doc comments
// live on the declarations there.
namespace detail {

Result<std::vector<std::vector<openflow::FlowEntry>>> compileFlowTables(
    const topo::Topology& topo, const projection::Projection& projection,
    const projection::Plant& plant, const routing::RoutingAlgorithm& routing,
    const DeployOptions& options, std::uint32_t epoch,
    const std::vector<char>* severedMask) {
  std::vector<std::vector<openflow::FlowEntry>> tables(
      static_cast<std::size_t>(plant.numSwitches()));
  const int vcs = routing.numVcs();

  // Connected-component labels: a deployment may hold several mutually
  // isolated topologies at once (§VI-B); no rule is emitted across islands,
  // so cross-island packets die on table miss — isolation by construction.
  // A degraded topology may also have split: components follow the
  // *surviving* links.
  const std::vector<int> component = componentLabels(topo, severedMask);

  const std::vector<int> oneVcRules =
      oneVcRulesPerSwitch(topo, projection, component, plant.numSwitches());
  for (std::size_t psw = 0; psw < tables.size(); ++psw) {
    tables[psw].reserve(static_cast<std::size_t>(oneVcRules[psw]) *
                        static_cast<std::size_t>(vcs));
  }

  // Every packet is matched by (ingress port, destination [, VC]); the
  // ingress port pins the packet to its sub-switch, which is what keeps two
  // co-resident topologies/sub-switches isolated (§VI-B).
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    const int physSw = projection.physSwitchOf(sw);
    // Ingress ports of this sub-switch: all mapped fabric ports + the host
    // ports of hosts attached to this logical switch.
    std::vector<std::pair<int, bool>> ingress;  // (physical port, isHostPort)
    for (topo::PortId lp = 0; lp < topo.radix(sw); ++lp) {
      const projection::PhysPort pp = projection.physOf(topo::SwitchPort{sw, lp});
      if (pp.valid()) ingress.emplace_back(pp.port, false);
    }
    for (const topo::HostId h : topo.hostsOf(sw)) {
      ingress.emplace_back(projection.hostPortOf(h).port, true);
    }

    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (component[topo.hostSwitch(dst)] != component[sw]) continue;
      const bool local = topo.hostSwitch(dst) == sw;
      for (int vc = 0; vc < vcs; ++vc) {
        routing::Hop hop{};
        int outPhysPort;
        if (local) {
          outPhysPort = projection.hostPortOf(dst).port;
          hop.vc = vc;
        } else {
          auto r = routing.nextHop(sw, dst, vc,
                                   static_cast<std::uint64_t>(dst) + options.ecmpSalt);
          if (!r) return r.error();
          hop = r.value();
          const projection::PhysPort pp =
              projection.physOf(topo::SwitchPort{sw, hop.outPort});
          if (!pp.valid()) {
            return makeError(strFormat("switch %d port %d not projected", sw, hop.outPort));
          }
          outPhysPort = pp.port;
        }
        for (const auto& [inPort, isHostPort] : ingress) {
          if (!local && inPort == outPhysPort) continue;  // never hairpin a fabric port
          if (local && inPort == outPhysPort) continue;   // host's own delivery port
          openflow::FlowEntry entry;
          entry.priority = 100;
          entry.match.inPort = inPort;
          entry.match.dstAddr = options.hostAddrBase + static_cast<std::uint32_t>(dst);
          // Host-injected packets always carry VC0, so the VC match is only
          // meaningful on fabric ingress; host ports get the vc==0 rule.
          if (vcs > 1) {
            if (isHostPort && vc != 0) continue;
            if (!isHostPort) entry.match.trafficClass = static_cast<std::uint8_t>(vc);
          }
          entry.cookie =
              openflow::makeCookie(epoch, static_cast<std::uint32_t>(sw) + 1);
          if (!local && hop.vc != vc) {
            entry.actions.push_back(openflow::Action::setVc(hop.vc));
          }
          entry.actions.push_back(openflow::Action::output(outPhysPort));
          tables[physSw].push_back(std::move(entry));
        }
      }
    }
  }
  return tables;
}

std::string ruleKey(const openflow::FlowEntry& e) {
  std::string key = strFormat("p%d c%u m", e.priority, openflow::cookieTag(e.cookie));
  key += e.match.describe();
  for (const openflow::Action& a : e.actions) {
    key += strFormat(" a%d:%d", static_cast<int>(a.type), a.arg);
  }
  return key;
}

Result<CompiledIntent> prepareIntent(const topo::Topology& topo,
                                     const routing::RoutingAlgorithm& routing,
                                     const projection::Plant& plant,
                                     const DeployOptions& options, std::uint32_t epoch,
                                     OpTrace* trace) {
  const auto phase = [trace](const char* step) {
    if (trace != nullptr) trace->phase(step);
  };
  if (options.requireDeadlockFree) {
    phase("deadlock_check");
    const routing::DeadlockReport dl = routing::analyzeDeadlock(topo, routing);
    if (!dl.error.empty()) {
      return makeError("deadlock analysis failed: " + dl.error);
    }
    if (!dl.deadlockFree) {
      return makeError(strFormat(
          "routing '%s' on '%s' has a channel-dependency cycle (%zu channels); "
          "refusing it on a lossless fabric",
          routing.name().c_str(), topo.name().c_str(), dl.cycle.size()));
    }
  }
  phase("project");
  auto proj = projection::LinkProjector::project(topo, plant, options.projector);
  if (!proj) return proj.error();
  phase("compile");
  auto tables = compileFlowTables(topo, proj.value(), plant, routing, options, epoch);
  if (!tables) return tables.error();
  return CompiledIntent{std::move(proj).value(), std::move(tables).value()};
}

TableDiff diffEntries(const std::vector<openflow::FlowEntry>& live,
                      const std::vector<openflow::FlowEntry>& desired,
                      std::uint16_t tenant) {
  // Per rule key: desired copies no live entry matched yet, live entries
  // kept, and the epoch the desired copies carry.
  struct Slot {
    int unmatched = 0;
    int kept = 0;
    std::uint32_t epoch = 0;
  };
  std::map<std::string, Slot> slots;
  for (const openflow::FlowEntry& e : desired) {
    Slot& slot = slots[ruleKey(e)];
    ++slot.unmatched;
    slot.epoch = openflow::cookieEpoch(e.cookie);
  }
  TableDiff diff;
  for (const openflow::FlowEntry& e : live) {
    if (tenant != 0 && openflow::cookieTenant(e.cookie) != tenant) continue;
    const auto it = slots.find(ruleKey(e));
    if (it == slots.end() || it->second.unmatched == 0) {
      diff.toRemove.push_back(e);
      continue;
    }
    --it->second.unmatched;
    ++it->second.kept;
    if (openflow::cookieEpoch(e.cookie) != it->second.epoch) ++diff.restamps;
  }
  for (const openflow::FlowEntry& e : desired) {
    Slot& slot = slots[ruleKey(e)];
    if (slot.kept > 0) {
      --slot.kept;
    } else {
      diff.toAdd.push_back(&e);
    }
  }
  return diff;
}

void recountEntries(Deployment& deployment,
                    const std::function<std::size_t(const openflow::FlowTable&)>& count) {
  deployment.totalFlowEntries = 0;
  deployment.maxEntriesPerSwitch = 0;
  for (const auto& ofs : deployment.switches) {
    const int n = static_cast<int>(count(ofs->table()));
    deployment.totalFlowEntries += n;
    deployment.maxEntriesPerSwitch = std::max(deployment.maxEntriesPerSwitch, n);
  }
}

void recountEntries(Deployment& deployment, std::uint16_t tenant) {
  recountEntries(deployment, [tenant](const openflow::FlowTable& t) {
    return tenant != 0 ? t.countTenant(tenant) : t.size();
  });
}

}  // namespace detail

using detail::OpTrace;
using detail::TableDiff;
using detail::compileFlowTables;
using detail::diffEntries;
using detail::prepareIntent;
using detail::recountEntries;

CheckReport SdtController::check(const std::vector<const topo::Topology*>& topologies,
                                 const DeployOptions& options) const {
  CheckReport report;
  report.ok = true;

  // Plant supply: the scarcest switch (or pair) bounds any projection.
  int minSelfSupply = plant_.numSwitches() > 0 ? plant_.switches[0].numPorts : 0;
  int minHostSupply = minSelfSupply;
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    minSelfSupply = std::min(minSelfSupply, static_cast<int>(plant_.selfLinksOf(sw).size()));
    minHostSupply = std::min(minHostSupply, static_cast<int>(plant_.hostPortsOf(sw).size()));
  }

  for (const topo::Topology* t : topologies) {
    auto proj = projection::LinkProjector::project(*t, plant_, options.projector);
    if (!proj) {
      report.ok = false;
      // Quantify the shortfall (§V-1: "inform the user of the necessary
      // link modification"): partition the topology the way planPlant does
      // and compare demand against the plant's reserves, naming the
      // offending topology. Falls back to the projector's error when the
      // demand analysis finds no concrete gap (e.g. partitioning failed).
      const std::size_t known = report.problems.size();
      partition::PartitionOptions popt;
      popt.parts = plant_.numSwitches();
      if (auto demand = projection::partitionDemand(*t, popt); demand) {
        const projection::PartitionDemand& d = demand.value();
        const int needSelf = *std::max_element(d.selfLinks.begin(), d.selfLinks.end());
        const int needHosts = *std::max_element(d.hosts.begin(), d.hosts.end());
        if (needSelf > minSelfSupply) {
          report.problems.push_back(
              strFormat("topo '%s': needs %d self-links/switch, plant has %d",
                        t->name().c_str(), needSelf, minSelfSupply));
        }
        for (const auto& [pair, count] : d.interLinks) {
          const int supply =
              static_cast<int>(plant_.interLinksBetween(pair.first, pair.second).size());
          if (count > supply) {
            report.problems.push_back(strFormat(
                "topo '%s': needs %d inter-switch links between switches %d-%d, "
                "plant has %d",
                t->name().c_str(), count, pair.first, pair.second, supply));
          }
        }
        if (needHosts > minHostSupply) {
          report.problems.push_back(
              strFormat("topo '%s': needs %d host ports/switch, plant has %d",
                        t->name().c_str(), needHosts, minHostSupply));
        }
      }
      if (report.problems.size() == known) {
        report.problems.push_back(
            strFormat("topo '%s': %s", t->name().c_str(), proj.error().message.c_str()));
      }
      continue;
    }
    const projection::Projection& p = proj.value();
    // Demand accounting for the report (max over topologies, §IV-B: reserve
    // the maximum inter-switch links among all topologies).
    std::map<std::pair<int, int>, int> interPerPair;
    std::vector<int> selfPerSwitch(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (const projection::RealizedLink& rl : p.realizedLinks()) {
      const projection::PhysLink& l =
          rl.optical ? p.opticalCircuits()[rl.physLink]
                     : (rl.interSwitch ? plant_.interLinks[rl.physLink]
                                       : plant_.selfLinks[rl.physLink]);
      if (rl.interSwitch) {
        report.maxInterLinksPerPair = std::max(report.maxInterLinksPerPair,
                                               ++interPerPair[std::minmax(l.a.sw, l.b.sw)]);
      } else {
        report.maxSelfLinksPerSwitch =
            std::max(report.maxSelfLinksPerSwitch, ++selfPerSwitch[l.a.sw]);
      }
    }
    std::vector<int> hostsPerSwitch(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (topo::HostId h = 0; h < t->numHosts(); ++h) {
      report.maxHostPortsPerSwitch =
          std::max(report.maxHostPortsPerSwitch, ++hostsPerSwitch[p.hostPortOf(h).sw]);
    }
    // Flow-table demand (§VII-C). Matches compileFlowTables exactly at one
    // VC — (ingress ports - 1) entries per reachable destination — and is a
    // lower bound for multi-VC strategies.
    const std::vector<int> entriesPerPhys = oneVcRulesPerSwitch(
        *t, p, componentLabels(*t, nullptr), plant_.numSwitches());
    for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
      report.maxFlowEntriesPerSwitch =
          std::max(report.maxFlowEntriesPerSwitch, entriesPerPhys[psw]);
      const auto capacity = plant_.switches[psw].flowTableCapacity;
      if (static_cast<std::size_t>(entriesPerPhys[psw]) > capacity) {
        report.ok = false;
        report.problems.push_back(strFormat(
            "topo '%s': needs >=%d flow entries on physical switch %d, '%s' holds %zu",
            t->name().c_str(), entriesPerPhys[psw], psw,
            plant_.switches[psw].model.c_str(), capacity));
      }
    }
  }
  return report;
}

Result<Deployment> SdtController::deploy(const topo::Topology& topo,
                                         const routing::RoutingAlgorithm& routing,
                                         const DeployOptions& options) const {
  OpTrace trace(obs_, "deploy");
  trace.span.annotate("topology", topo.name());
  trace.span.annotate("routing", routing.name());
  Deployment deployment;
  // Tenant slices start at scoped epoch (tenant, 1); tenant 0 decodes to the
  // legacy epoch 1, so single-tenant deployments are unchanged.
  deployment.epoch = openflow::makeScopedEpoch(options.tenant, 1);
  auto intent = prepareIntent(topo, routing, plant_, options, deployment.epoch, &trace);
  if (!intent) return intent.error();

  trace.phase("install");
  deployment.projection = std::move(intent.value().projection);
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    const projection::PhysicalSwitchSpec& spec = plant_.switches[psw];
    auto& entries = intent.value().tables[psw];
    if (entries.size() > spec.flowTableCapacity) {
      return makeError(strFormat(
          "physical switch %d needs %zu flow entries but '%s' holds %zu "
          "(split the topology over more switches or merge entries, §VII-C)",
          psw, entries.size(), spec.model.c_str(), spec.flowTableCapacity));
    }
    auto ofs = std::make_shared<openflow::Switch>(psw, spec.numPorts,
                                                  spec.flowTableCapacity);
    ofs->table().reserve(entries.size());
    for (openflow::FlowEntry& e : entries) {
      if (auto s = ofs->table().add(std::move(e)); !s) return s.error();
    }
    ofs->setIngressEpoch(deployment.epoch);
    deployment.switches.push_back(std::move(ofs));
  }
  recountEntries(deployment, options.tenant);
  deployment.reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, deployment.totalFlowEntries);
  deployment.topology = topo.name();
  deployment.routing = routing.name();
  deployment.ecmpSalt = options.ecmpSalt;
  trace.now += deployment.reconfigTime;  // install covers the modeled time
  trace.span.annotate("rules", std::to_string(deployment.totalFlowEntries));
  trace.span.finish("ok", trace.now);
  return deployment;
}

Result<Deployment> SdtController::reconfigure(const Deployment& previous,
                                              const topo::Topology& next,
                                              const routing::RoutingAlgorithm& routing,
                                              const DeployOptions& options) const {
  OpTrace trace(obs_, "reconfigure_offline");
  trace.span.annotate("topology", next.name());
  trace.phase("compile");
  auto deployment = deploy(next, routing, options);
  if (!deployment) return deployment;
  // Incremental install: per switch, only the multiset difference between
  // the previous live table and the recompiled one costs flow-mods. The
  // per-entry flow-mod cost stays the dominant reconfiguration term (Table
  // II), so shrinking the mod count is exactly what shrinks the downtime.
  trace.phase("diff");
  int mods = 0;
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    const TableDiff diff =
        diffEntries(previous.switches[psw]->table().entries(),
                    deployment.value().switches[psw]->table().entries());
    mods += static_cast<int>(diff.toRemove.size() + diff.toAdd.size());
  }
  deployment.value().reconfigFlowMods = mods;
  deployment.value().reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, mods);
  trace.phase("install");
  trace.now += deployment.value().reconfigTime;
  trace.span.annotate("flow_mods", std::to_string(mods));
  trace.span.finish("ok", trace.now);
  return deployment;
}

Result<UpdatePlan> SdtController::planUpdate(const Deployment& current,
                                             const topo::Topology& next,
                                             const routing::RoutingAlgorithm& routing,
                                             const DeployOptions& options) const {
  OpTrace trace(obs_, "plan_update");
  trace.span.annotate("topology", next.name());
  // Scoped epochs advance within the tenant's 16-bit local space; rolling
  // over into the next tenant's namespace would be catastrophic, so refuse.
  if (openflow::epochLocal(current.epoch) == 0xFFFF) {
    return makeError(strFormat(
        "tenant %u exhausted its local epoch space (65535 reconfigurations)",
        openflow::epochTenant(current.epoch)));
  }
  UpdatePlan plan;
  plan.fromEpoch = current.epoch;
  plan.toEpoch = current.epoch + 1;
  auto intent = prepareIntent(next, routing, plant_, options, plan.toEpoch, &trace);
  if (!intent) return intent.error();
  plan.projection = std::move(intent.value().projection);
  plan.tables = std::move(intent.value().tables);
  trace.phase("capacity_check");

  // Host-port stability: fabric links can move between fixed cables because
  // the spares are already wired, but a host NIC sits on one physical port —
  // a plan that moves or adds one would need a human with a cable mid-update.
  for (topo::HostId h = 0; h < next.numHosts(); ++h) {
    if (h >= current.projection.numHosts()) {
      return makeError(strFormat(
          "live update would add host %d, which has no physical port in the "
          "current deployment; host NICs cannot be recabled mid-run",
          h));
    }
    const projection::PhysPort was = current.projection.hostPortOf(h);
    const projection::PhysPort now = plan.projection.hostPortOf(h);
    if (!(was == now)) {
      return makeError(strFormat(
          "live update would move host %d from physical port %d/%d to %d/%d; "
          "host NICs cannot be recabled mid-run",
          h, was.sw, was.port, now.sw, now.port));
    }
  }

  // Two-version capacity: during the update window each switch holds its
  // full live table *plus* the full next-epoch set (§VII-C is the binding
  // constraint doubled). Checked here so capacity can never abort an
  // in-flight transaction.
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    const std::size_t live = current.switches[psw]->table().size();
    const std::size_t add = plan.tables[psw].size();
    const std::size_t capacity = plant_.switches[psw].flowTableCapacity;
    if (live + add > capacity) {
      return makeError(strFormat(
          "two-phase update needs %zu + %zu flow entries on physical switch "
          "%d during the window, '%s' holds %zu",
          live, add, psw, plant_.switches[psw].model.c_str(), capacity));
    }
    plan.totalEntries += static_cast<int>(add);
  }
  plan.topology = next.name();
  plan.routing = routing.name();
  plan.ecmpSalt = options.ecmpSalt;
  trace.span.annotate("rules", std::to_string(plan.totalEntries));
  trace.span.annotate("to_epoch", std::to_string(plan.toEpoch));
  trace.span.finish("ok", trace.now);
  return plan;
}

Result<RepairReport> SdtController::repair(Deployment& deployment,
                                           const topo::Topology& topo,
                                           const routing::RoutingAlgorithm& routing,
                                           const FailureSet& failures,
                                           const RepairOptions& options) const {
  OpTrace trace(obs_, "repair");
  trace.span.annotate("failed_ports", std::to_string(failures.ports.size()));
  trace.span.annotate("crashed_switches", std::to_string(failures.crashedSwitches.size()));
  trace.phase("reproject");
  RepairReport report;
  projection::Projection& proj = deployment.projection;
  const int oldTotal = deployment.totalFlowEntries;
  const std::set<projection::PhysPort> failed(failures.ports.begin(), failures.ports.end());
  const auto healthy = [&](const projection::PhysLink& l) {
    return failed.count(l.a) == 0 && failed.count(l.b) == 0;
  };

  // Fixed physical links already carrying a logical link are not spares.
  std::vector<char> selfUsed(plant_.selfLinks.size(), 0);
  std::vector<char> interUsed(plant_.interLinks.size(), 0);
  for (const projection::RealizedLink& rl : proj.realizedLinks()) {
    if (rl.optical) continue;
    (rl.interSwitch ? interUsed : selfUsed)[static_cast<std::size_t>(rl.physLink)] = 1;
  }

  // Phase 1 — re-projection. For every logical link riding a failed port,
  // find a spare healthy physical link of the same kind joining the same
  // physical switch (pair) and move the logical endpoints onto it. The spare
  // cable is already installed and already wired into the data plane; only
  // flow entries change (the SDT claim, applied to failure recovery).
  std::vector<int> severedIds;
  const auto& realized = proj.realizedLinks();
  for (int i = 0; i < static_cast<int>(realized.size()); ++i) {
    const projection::RealizedLink rl = realized[i];
    const projection::PhysLink phys =
        rl.optical ? proj.opticalCircuits()[rl.physLink]
                   : (rl.interSwitch ? plant_.interLinks[rl.physLink]
                                     : plant_.selfLinks[rl.physLink]);
    if (healthy(phys)) continue;
    const topo::Link& logical = topo.link(rl.logicalLink);
    int spare = -1;
    // Optical circuits are torn down with their failure (re-pairing flex
    // ports mid-run would need an OCS reconfiguration pass; out of scope),
    // so they only heal by severing + rerouting.
    if (!rl.optical) {
      const auto candidates = rl.interSwitch
                                  ? plant_.interLinksBetween(phys.a.sw, phys.b.sw)
                                  : plant_.selfLinksOf(phys.a.sw);
      auto& used = rl.interSwitch ? interUsed : selfUsed;
      for (const int c : candidates) {
        const projection::PhysLink& cand =
            rl.interSwitch ? plant_.interLinks[c] : plant_.selfLinks[c];
        if (!used[static_cast<std::size_t>(c)] && healthy(cand)) {
          spare = c;
          break;
        }
      }
    }
    if (spare < 0) {
      severedIds.push_back(rl.logicalLink);
      report.severedLinks.push_back(SeveredLink{rl.logicalLink, logical.a, logical.b});
      continue;
    }
    const projection::PhysLink& sp =
        rl.interSwitch ? plant_.interLinks[spare] : plant_.selfLinks[spare];
    projection::PhysPort na = sp.a;
    projection::PhysPort nb = sp.b;
    // Inter-switch: keep each logical endpoint on its own physical switch.
    if (rl.interSwitch && proj.physSwitchOf(logical.a.sw) != sp.a.sw) std::swap(na, nb);
    proj.mapPort(logical.a, na);
    proj.mapPort(logical.b, nb);
    proj.rerealizeLink(i, spare);
    (rl.interSwitch ? interUsed : selfUsed)[static_cast<std::size_t>(spare)] = 1;
    ++report.remappedLinks;
  }
  report.degraded = !severedIds.empty();

  trace.phase("reroute");
  // Phase 2 — routing on what survives. With every link re-projected the
  // original routing still holds (the logical topology is intact); severed
  // links force a detour-routing recompute and may split the fabric.
  std::unique_ptr<routing::DegradedRouting> degradedRouting;
  const routing::RoutingAlgorithm* effective = &routing;
  std::vector<char> severedMask;
  if (report.degraded) {
    degradedRouting = std::make_unique<routing::DegradedRouting>(topo, severedIds,
                                                                 routing.numVcs());
    effective = degradedRouting.get();
    severedMask.assign(topo.links().size(), 0);
    for (const int li : severedIds) severedMask[static_cast<std::size_t>(li)] = 1;
    for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
      for (topo::HostId dst = src + 1; dst < topo.numHosts(); ++dst) {
        if (topo.hostSwitch(src) == topo.hostSwitch(dst)) continue;
        if (!degradedRouting->reachable(topo.hostSwitch(src), dst)) {
          report.unreachablePairs.emplace_back(src, dst);
        }
      }
    }
  }

  auto tables = compileFlowTables(topo, proj, plant_, *effective, options.deploy,
                                  deployment.epoch,
                                  report.degraded ? &severedMask : nullptr);
  if (!tables) return tables.error();

  // Phase 3 — incremental install: per switch, a multiset diff of the live
  // table against the recompiled one, applied as strict-delete + add
  // flow-mods over the (possibly flaky) control channel. A crashed switch's
  // live table is empty, so the diff reinstalls its exact fresh set.
  trace.phase("install");
  // Tenant containment: a scoped deployment (epoch carries a tenant id) may
  // only ever touch its own rules on the shared switches — crash cleanup and
  // the live-side of the diff are filtered to the tenant's cookie namespace.
  const std::uint16_t tenant = openflow::epochTenant(deployment.epoch);
  for (const int psw : failures.crashedSwitches) {
    if (tenant != 0) {
      deployment.switches[psw]->table().removeByTenant(tenant);
    } else {
      deployment.switches[psw]->table().clear();
    }
  }
  int newTotal = 0;
  std::uint64_t stream = 0;
  retry::RetryCounters retryCounters;
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    openflow::FlowTable& live = deployment.switches[psw]->table();
    const std::vector<openflow::FlowEntry>& desired = tables.value()[psw];
    newTotal += static_cast<int>(desired.size());

    const TableDiff diff = diffEntries(live.entries(), desired, tenant);

    const auto install = [&](const char* what) -> Status<Error> {
      const auto attempt = [&](int n) {
        return options.controlChannel ? options.controlChannel(n) : true;
      };
      const retry::RetryResult rr =
          retry::retryWithBackoff(options.retry, stream++, attempt, &retryCounters);
      report.installRetries += rr.attempts - 1;
      report.retryBackoffTime += rr.elapsed;
      if (!rr.succeeded) {
        return makeError(strFormat(
            "repair: switch %d unreachable over control channel (%s flow-mod "
            "failed after %d attempts)",
            psw, what, rr.attempts));
      }
      return {};
    };
    for (const openflow::FlowEntry& e : diff.toRemove) {
      if (auto s = install("strict-delete"); !s) return s.error();
      live.removeExact(e);
    }
    for (const openflow::FlowEntry* e : diff.toAdd) {
      if (auto s = install("add"); !s) return s.error();
      if (auto s = live.add(*e); !s) return s.error();
    }
    report.flowModsRemoved += static_cast<int>(diff.toRemove.size());
    report.flowModsAdded += static_cast<int>(diff.toAdd.size());
  }

  recountEntries(deployment, tenant);
  report.fullRedeployFlowMods = oldTotal + newTotal;
  report.repairTime =
      projection::reconfigTime(projection::TpMethod::kSDT, report.flowMods()) +
      report.retryBackoffTime;
  if (obs_.metrics != nullptr && retryCounters.retries > 0) {
    obs_.metrics
        ->counter("sdt_controller_retry_attempts_total",
                  {{"op", "repair"}, {"phase", "install"}},
                  "Control-channel resends beyond the first attempt")
        .inc(retryCounters.retries);
  }
  trace.now += report.repairTime;  // install covers the modeled repair time

  // Phase 4 — deadlock re-check on the degraded topology. Advisory: a
  // detour-induced CDG cycle is reported, not fatal (see RepairReport).
  if (report.degraded && options.deploy.requireDeadlockFree) {
    trace.phase("deadlock_check");
    report.deadlockChecked = true;
    const routing::DeadlockReport dl = routing::analyzeDeadlock(topo, *degradedRouting);
    report.deadlockFree = dl.error.empty() && dl.deadlockFree;
  }
  trace.span.annotate("remapped_links", std::to_string(report.remappedLinks));
  trace.span.annotate("severed_links", std::to_string(report.severedLinks.size()));
  trace.span.annotate("flow_mods", std::to_string(report.flowMods()));
  trace.span.finish(report.degraded ? "degraded" : "ok", trace.now);
  return report;
}

StatusOr SdtController::distributeAdmissionPolicy(
    admission::AdmissionController& target, const admission::Policy& policy) const {
  OpTrace trace(obs_, "distribute_admission_policy");
  trace.span.phase("admission.validate", trace.now);
  if (const StatusOr valid = policy.validate(); !valid.ok()) {
    trace.span.finish("invalid", trace.now);
    return valid;
  }
  trace.span.phase("admission.install", trace.now);
  target.setPolicy(policy);
  if (obs_.metrics != nullptr) {
    obs_.metrics
        ->counter("sdt_controller_admission_policy_total", {{"op", "distribute"}},
                  "Admission policies validated and pushed to the fabric edge")
        .inc();
  }
  trace.span.annotate("enabled", policy.enabled ? "true" : "false");
  trace.span.finish("ok", trace.now);
  return StatusOr::okStatus();
}

}  // namespace sdt::controller
