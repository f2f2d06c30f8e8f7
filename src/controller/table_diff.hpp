// The controller's one path from intent to tables (controller internals).
//
// deploy(), planUpdate() and crash recovery's planRecovery() compile intent
// through one prepare step; repair(), reconfigure() and recovery
// convergence diff live tables against desired ones through one
// tenant-scoped diff; and every path that changes installed tables recounts
// the deployment through one helper. The `detail` namespace marks them as
// internals with stable semantics but no API promise outside src/controller.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "controller/controller.hpp"

namespace sdt::controller::detail {

/// A controller op's trace on its modeled clock. The op takes no simulated
/// time: the root span `op` opens at the obs clock's reading and `now`
/// advances only through the modeled durations the op computes
/// (reconfigTime, retry backoff). An early error return finishes the span
/// with outcome=error.
struct OpTrace {
  OpTrace(const SdtController::ObsContext& obs, const char* op)
      : op(op), now(obs.clock ? obs.clock() : 0), span(obs.tracer, op, now) {}
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;
  ~OpTrace() { span.finish("error", now); }

  /// Close the open phase and open `<op>.<step>`.
  void phase(const char* step) { span.phase(std::string(op) + "." + step, now); }

  const char* op;
  TimeNs now;
  obs::OpSpan span;
};

/// Compile the routing strategy for one deployment into flow entries.
/// Returns the per-physical-switch entry lists, or an error when the
/// strategy fails on some (switch, destination, vc) state.
///
/// `severedMask` (repair path) marks logical links lost to failures: they
/// are excluded from the reachability computation, so pairs they disconnect
/// get no entries (table miss) instead of failing the compile.
/// `epoch` is stamped into every entry's cookie (consistent updates): rules
/// carry the configuration epoch they belong to, so packets stamped at
/// ingress only match their own configuration during a two-phase update.
Result<std::vector<std::vector<openflow::FlowEntry>>> compileFlowTables(
    const topo::Topology& topo, const projection::Projection& projection,
    const projection::Plant& plant, const routing::RoutingAlgorithm& routing,
    const DeployOptions& options, std::uint32_t epoch,
    const std::vector<char>* severedMask = nullptr);

/// An intent compiled for the plant: its projection and per-switch tables.
struct CompiledIntent {
  projection::Projection projection;
  std::vector<std::vector<openflow::FlowEntry>> tables;
};

/// The prepare step of deploy(), planUpdate() and planRecovery(): the
/// deadlock gate (when options.requireDeadlockFree), LinkProjector::project,
/// then compileFlowTables at `epoch`. With a `trace`, each step opens its
/// `<op>.deadlock_check`, `<op>.project` or `<op>.compile` phase.
Result<CompiledIntent> prepareIntent(const topo::Topology& topo,
                                     const routing::RoutingAlgorithm& routing,
                                     const projection::Plant& plant,
                                     const DeployOptions& options, std::uint32_t epoch,
                                     OpTrace* trace = nullptr);

/// Serialized rule identity for the incremental diffs' multiset keys.
/// Counters are excluded (like openflow::sameRule) and so is the cookie's
/// *epoch* half: a rule that survives a reconfiguration unchanged except for
/// its epoch stamp is the same rule — charging a delete+add for it would
/// make every diff as expensive as a full redeploy.
std::string ruleKey(const openflow::FlowEntry& e);

/// What turns one switch's live table into the desired one: the entries to
/// strict-delete, the entries to add, and how many kept entries only need
/// their epoch stamp swept.
struct TableDiff {
  std::vector<openflow::FlowEntry> toRemove;        ///< copies of live entries
  std::vector<const openflow::FlowEntry*> toAdd;    ///< pointers into desired
  /// Kept live entries whose cookie epoch differs from their desired twin's.
  int restamps = 0;
};

/// Multiset diff (by ruleKey) of a live entry list against the desired one,
/// shared by repair(), the offline reconfigure() and recovery convergence.
/// A non-zero `tenant` diffs only the live entries whose cookie carries it:
/// co-tenant rules on a shared switch are neither removed nor counted.
TableDiff diffEntries(const std::vector<openflow::FlowEntry>& live,
                      const std::vector<openflow::FlowEntry>& desired,
                      std::uint16_t tenant = 0);

/// Set `deployment`'s totalFlowEntries and maxEntriesPerSwitch from
/// count(table) over every switch.
void recountEntries(Deployment& deployment,
                    const std::function<std::size_t(const openflow::FlowTable&)>& count);
/// The same, counting the entries `tenant` owns (every entry for tenant 0).
void recountEntries(Deployment& deployment, std::uint16_t tenant);

}  // namespace sdt::controller::detail
