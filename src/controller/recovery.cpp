#include "controller/recovery.hpp"

#include "common/strings.hpp"
#include "controller/monitor.hpp"
#include "controller/table_diff.hpp"

namespace sdt::controller {

const char* recoveryDecisionName(RecoveryDecision decision) {
  switch (decision) {
    case RecoveryDecision::kNone: return "none";
    case RecoveryDecision::kRollForward: return "roll-forward";
    case RecoveryDecision::kRollBack: return "roll-back";
    case RecoveryDecision::kReinstall: return "reinstall";
  }
  return "?";
}

json::Value RecoveryReport::toJson() const {
  json::Object obj;
  obj["converged"] = converged;
  obj["decision"] = recoveryDecisionName(decision);
  obj["topology"] = topology;
  obj["routing"] = routing;
  obj["targetEpoch"] = static_cast<std::int64_t>(targetEpoch);
  obj["txWasOpen"] = txWasOpen;
  obj["txFlipped"] = txFlipped;
  obj["fromEpoch"] = static_cast<std::int64_t>(fromEpoch);
  obj["toEpoch"] = static_cast<std::int64_t>(toEpoch);
  obj["switchesDrifted"] = switchesDrifted;
  obj["switchesRebooted"] = switchesRebooted;
  obj["rulesMissing"] = rulesMissing;
  obj["rulesExtra"] = rulesExtra;
  obj["rulesRestamped"] = rulesRestamped;
  obj["flowMods"] = flowMods;
  obj["fullRedeployFlowMods"] = fullRedeployFlowMods;
  obj["statsRounds"] = statsRounds;
  obj["retriesTotal"] = retriesTotal;
  obj["startedAtNs"] = static_cast<std::int64_t>(startedAt);
  obj["finishedAtNs"] = static_cast<std::int64_t>(finishedAt);
  obj["convergenceTimeNs"] = static_cast<std::int64_t>(convergenceTime());
  obj["pureStateVerified"] = pureStateVerified;
  if (!failure.empty()) obj["failure"] = failure;
  json::Array sws;
  for (const SwitchRecoveryState& s : switches) {
    json::Object sw;
    sw["snapshotAcked"] = s.snapshotAcked;
    sw["convergeAcked"] = s.convergeAcked;
    sw["rebooted"] = s.rebooted;
    sw["drifted"] = s.drifted;
    sw["rulesMissing"] = s.rulesMissing;
    sw["rulesExtra"] = s.rulesExtra;
    sw["rulesRestamped"] = s.rulesRestamped;
    sw["convergeRounds"] = s.convergeRounds;
    sw["retries"] = s.retries;
    sws.push_back(std::move(sw));
  }
  obj["switches"] = std::move(sws);
  return obj;
}

Result<RecoveryPlan> planRecovery(const SdtController& controller,
                                  const Journal& journal,
                                  const IntentCatalog& catalog,
                                  const DeployOptions& options) {
  auto replayed = journal.replay();
  if (!replayed) return replayed.error();
  const JournalState& st = replayed.value().state;

  RecoveryPlan plan;
  plan.txWasOpen = st.txOpen;
  plan.txFlipped = st.txFlipped;
  plan.fromEpoch = st.txFromEpoch;
  plan.toEpoch = st.txToEpoch;
  if (st.txOpen && st.txFlipped) {
    // The flip marker proves the dead controller may have sent flips: some
    // ingress could already stamp the new epoch. Forward is the only safe
    // direction (Reitblatt: past the commit point, complete the update).
    plan.decision = RecoveryDecision::kRollForward;
    plan.topology = st.txTopology;
    plan.routing = st.txRouting;
    plan.ecmpSalt = st.txEcmpSalt;
    plan.targetEpoch = st.txToEpoch;
    plan.staleEpoch = st.txFromEpoch;
  } else if (st.txOpen) {
    // No flip marker: the marker is journaled before the first flip send,
    // so no packet was ever stamped with the new epoch. Rolling back to the
    // (still fully installed) old intent is safe and cheapest.
    if (!st.valid) {
      return makeError(
          "journal has an open un-flipped transaction but no prior deployed "
          "intent to roll back to");
    }
    plan.decision = RecoveryDecision::kRollBack;
    plan.topology = st.topology;
    plan.routing = st.routing;
    plan.ecmpSalt = st.ecmpSalt;
    plan.targetEpoch = st.epoch;
    plan.staleEpoch = st.txToEpoch;
  } else {
    if (!st.valid) return makeError("journal holds no deployable intent");
    plan.decision = RecoveryDecision::kReinstall;
    plan.topology = st.topology;
    plan.routing = st.routing;
    plan.ecmpSalt = st.ecmpSalt;
    plan.targetEpoch = st.epoch;
    plan.staleEpoch = 0;
  }

  const auto entry = catalog.find(plan.topology);
  if (entry == catalog.end() || entry->second.topology == nullptr ||
      entry->second.routing == nullptr) {
    return makeError(strFormat(
        "journaled intent '%s' is not in the recovery catalog", plan.topology.c_str()));
  }
  if (entry->second.routing->name() != plan.routing) {
    return makeError(strFormat(
        "catalog routing '%s' does not match journaled routing '%s' for '%s'",
        entry->second.routing->name().c_str(), plan.routing.c_str(),
        plan.topology.c_str()));
  }

  // Recompile with the *journaled* salt: the tables must be byte-identical
  // to what the dead controller installed, or the diff would churn every
  // ECMP choice. No deadlock re-check — the intent passed it at deploy time,
  // and refusing here would leave the fabric in its crashed mixed state.
  DeployOptions compileOptions = options;
  compileOptions.ecmpSalt = plan.ecmpSalt;
  compileOptions.requireDeadlockFree = false;
  auto intent = detail::prepareIntent(*entry->second.topology, *entry->second.routing,
                                      controller.plant(), compileOptions, plan.targetEpoch);
  if (!intent) return intent.error();
  plan.projection = std::move(intent.value().projection);
  plan.tables = std::move(intent.value().tables);
  for (const auto& t : plan.tables) plan.totalEntries += static_cast<int>(t.size());
  return plan;
}

RecoveryRun::RecoveryRun(sim::Simulator& sim, sim::ControlChannel& channel,
                         std::vector<std::shared_ptr<openflow::Switch>> switches,
                         RecoveryPlan plan, RecoveryOptions options, DoneFn done)
    : sim_(&sim),
      channel_(&channel),
      switches_(std::move(switches)),
      plan_(std::move(plan)),
      options_(std::move(options)),
      done_(std::move(done)),
      rounds_(sim, static_cast<int>(switches_.size()),
              {.op = "recover", .salt = 0x4EC0BEA7ULL, .retry = options_.retry,
               .tracer = options_.tracer, .metrics = options_.metrics},
              [this](int sw) { sendRequest(sw); },
              [this](int sw, int attempts) {
                finishFailure(strFormat(
                    "switch %d unreachable during recovery %s round after %d attempts",
                    sw, rounds_.phase(), attempts));
              }) {
  const auto n = static_cast<std::size_t>(numSwitches());
  pending_.resize(n);
  lastSnap_.resize(n);
  report_.decision = plan_.decision;
  report_.topology = plan_.topology;
  report_.routing = plan_.routing;
  report_.targetEpoch = plan_.targetEpoch;
  report_.txWasOpen = plan_.txWasOpen;
  report_.txFlipped = plan_.txFlipped;
  report_.fromEpoch = plan_.fromEpoch;
  report_.toEpoch = plan_.toEpoch;
  report_.switches.resize(n);
  tenant_ = openflow::epochTenant(plan_.targetEpoch);
}

const std::vector<int>* RecoveryRun::flipPortsFor(int sw) const {
  if (static_cast<std::size_t>(sw) >= plan_.flipPorts.size()) return nullptr;
  const std::vector<int>& ports = plan_.flipPorts[static_cast<std::size_t>(sw)];
  return ports.empty() ? nullptr : &ports;
}

void RecoveryRun::start() {
  report_.startedAt = sim_->now();
  rounds_.traceStart({{"decision", recoveryDecisionName(plan_.decision)},
                      {"topology", plan_.topology},
                      {"target_epoch", std::to_string(plan_.targetEpoch)},
                      {"rules", std::to_string(plan_.totalEntries)}});
  if (options_.monitor != nullptr) {
    for (int sw = 0; sw < numSwitches(); ++sw) options_.monitor->guardSwitch(sw);
  }
  openRound(Round::kReadback, "readback");
  for (int sw = 0; sw < numSwitches(); ++sw) rounds_.send(sw);
}

void RecoveryRun::openRound(Round round, const char* span) {
  currentRound_ = round;
  rounds_.begin(round == Round::kReadback ? "readback" : "converge",
                options_.convergeAttempts);
  rounds_.tracePhase(span);
}

void RecoveryRun::sendRequest(int sw) {
  const std::uint64_t gen = rounds_.generation();
  if (currentRound_ == Round::kReadback) {
    // Flow-stats request: the switch snapshots its table at *delivery* time
    // (not send time) and ships the copy back; both legs are lossy. The
    // request carries the leader's generation (term) like an OpenFlow
    // role-request: delivery raises the fence, and a request from an
    // already-deposed leader gets no reply at all.
    channel_->send(sw, [this, sw, gen]() {
      if (!switches_[static_cast<std::size_t>(sw)]->admitTerm(options_.term,
                                                             options_.leaderId)) {
        return;
      }
      const openflow::TableSnapshot snap =
          switches_[static_cast<std::size_t>(sw)]->snapshot();
      channel_->send(sw, [this, sw, gen, snap]() {
        if (finished_ || gen != rounds_.generation() || rounds_.completed(sw)) return;
        report_.switches[static_cast<std::size_t>(sw)].snapshotAcked = true;
        lastSnap_[static_cast<std::size_t>(sw)] = snap;
        completeSwitch(sw);
      });
    });
    return;
  }
  // Converge bundle: captured by value so a duplicate delivered after the
  // round advanced still re-acks the *same* bundle it acked before. The
  // xid (bound to this anti-entropy round) makes re-application a no-op.
  const ConvergeOps ops = pending_[static_cast<std::size_t>(sw)];
  const std::uint64_t xid = recoveryXid(tenant_, roundIndex_);
  channel_->send(sw, [this, sw, gen, xid, ops]() {
    openflow::Switch& ofs = *switches_[static_cast<std::size_t>(sw)];
    // Fenced: no apply, no ack.
    if (!ofs.admitTerm(options_.term, options_.leaderId)) return;
    if (ofs.acceptXid(xid)) {
      // Applied atomically (one OpenFlow bundle-commit): removes first so
      // the table never holds both an entry and its replacement.
      for (const openflow::FlowEntry& e : ops.removes) ofs.table().removeExact(e);
      // A full table here means the fabric still carries two epochs' rules
      // beyond what the removes cover; the verify round will see the
      // shortfall and the next iteration finishes the job.
      for (const openflow::FlowEntry& e : ops.adds) (void)ofs.table().add(e);
      if (ops.restamp) {
        // The tenant-scoped sweep leaves co-tenant cookies alone; the
        // whole-table sweep is the legacy single-tenant behaviour.
        if (tenant_ != 0) ofs.table().restampTenantEpoch(plan_.targetEpoch);
        else ofs.table().restampEpoch(plan_.targetEpoch);
      }
      if (ops.flipEpoch) {
        if (const std::vector<int>* ports = flipPortsFor(sw)) {
          for (const int p : *ports) ofs.setPortIngressEpoch(p, plan_.targetEpoch);
        } else if (tenant_ == 0) {
          // A tenant-scoped recovery with no listed ports owns no ingress
          // stamping on this switch; a whole-switch flip would hijack
          // co-tenant traffic.
          ofs.setIngressEpoch(plan_.targetEpoch);
        }
      }
      report_.flowMods += ops.mods();
    }
    channel_->send(sw, [this, sw, gen]() {
      if (finished_ || gen != rounds_.generation() || rounds_.completed(sw)) return;
      report_.switches[static_cast<std::size_t>(sw)].convergeAcked = true;
      completeSwitch(sw);
    });
  });
}

void RecoveryRun::completeSwitch(int sw) {
  if (rounds_.complete(sw) < numSwitches()) return;

  if (currentRound_ == Round::kReadback) {
    ++report_.statsRounds;
    // Diff every snapshot against the target: the journaled intent is the
    // truth, the snapshot is the fabric, the diff is the repair.
    bool anyDrift = false;
    for (int s = 0; s < numSwitches(); ++s) {
      const openflow::TableSnapshot& snap = lastSnap_[static_cast<std::size_t>(s)];
      // A tenant-scoped recovery diffs only the slice's own entries: rules a
      // co-tenant installed on the same shared switch are invisible here, so
      // they can be neither deleted, restamped, nor counted as drift.
      detail::TableDiff diff = detail::diffEntries(
          snap.entries, plan_.tables[static_cast<std::size_t>(s)], tenant_);
      ConvergeOps ops;
      ops.removes = std::move(diff.toRemove);
      ops.adds.reserve(diff.toAdd.size());
      for (const openflow::FlowEntry* e : diff.toAdd) ops.adds.push_back(*e);
      // Rules that survive the diff but carry the losing epoch's stamp only
      // need the cookie sweep, not a delete+add round-trip.
      ops.restampCount = diff.restamps;
      ops.restamp = ops.restampCount > 0;
      if (const std::vector<int>* ports = flipPortsFor(s)) {
        ops.flipEpoch = false;
        for (const int p : *ports) {
          std::uint32_t effective = snap.ingressEpoch;
          for (const auto& [port, epoch] : snap.portEpochs) {
            if (port == p) {
              effective = epoch;
              break;
            }
          }
          if (effective != plan_.targetEpoch) ops.flipEpoch = true;
        }
      } else {
        // No listed ports: whole-switch semantics for the legacy namespace,
        // nothing to flip for a tenant (mid-path hops don't stamp its
        // packets, and the switch-wide epoch belongs to no one tenant).
        ops.flipEpoch = tenant_ == 0 && snap.ingressEpoch != plan_.targetEpoch;
      }
      if (firstReadback_) recordFirstReadback(s, ops, snap);
      anyDrift = anyDrift || !ops.empty();
      pending_[static_cast<std::size_t>(s)] = std::move(ops);
    }
    firstReadback_ = false;
    if (!anyDrift) {
      finishSuccess();
      return;
    }
    if (report_.statsRounds >= options_.maxRounds) {
      finishFailure(strFormat(
          "anti-entropy failed to converge after %d readback rounds",
          report_.statsRounds));
      return;
    }
    beginConverge();
  } else {
    beginVerify();
  }
}

void RecoveryRun::recordFirstReadback(int sw, const ConvergeOps& ops,
                                      const openflow::TableSnapshot& snap) {
  SwitchRecoveryState& st = report_.switches[static_cast<std::size_t>(sw)];
  st.rulesMissing = static_cast<int>(ops.adds.size());
  st.rulesExtra = static_cast<int>(ops.removes.size());
  st.rulesRestamped = ops.restampCount;
  st.rebooted = snap.entries.empty() && snap.ingressEpoch == 0;
  st.drifted = !ops.empty();
  report_.rulesMissing += st.rulesMissing;
  report_.rulesExtra += st.rulesExtra;
  report_.rulesRestamped += st.rulesRestamped;
  if (st.rebooted) ++report_.switchesRebooted;
  if (st.drifted) ++report_.switchesDrifted;
  // The trust-nothing alternative: wipe what the snapshot shows, reinstall
  // the whole target. Recovery's flowMods is the incremental counterpoint.
  report_.fullRedeployFlowMods +=
      static_cast<int>(snap.entries.size()) +
      static_cast<int>(plan_.tables[static_cast<std::size_t>(sw)].size());
}

void RecoveryRun::beginConverge() {
  ++roundIndex_;
  openRound(Round::kConverge, "converge");
  // Clean switches sit the round out (no message at all); completeSwitch is
  // not called for them to keep the all-acked barrier arithmetic simple.
  // beginConverge only runs when some switch drifted, so the barrier cannot
  // already be full here; the acks arrive as simulator events.
  for (int sw = 0; sw < numSwitches(); ++sw) {
    if (pending_[static_cast<std::size_t>(sw)].empty()) {
      rounds_.complete(sw);
      continue;
    }
    ++report_.switches[static_cast<std::size_t>(sw)].convergeRounds;
    rounds_.send(sw);
  }
}

void RecoveryRun::beginVerify() {
  ++roundIndex_;
  openRound(Round::kReadback, "verify");
  for (int sw = 0; sw < numSwitches(); ++sw) rounds_.send(sw);
}

void RecoveryRun::finishSuccess() {
  // Direct audit, bypassing the channel: the verify round already proved
  // convergence through lossy snapshots, this re-proves it on the objects.
  bool pure = true;
  for (int sw = 0; sw < numSwitches(); ++sw) {
    const openflow::Switch& ofs = *switches_[static_cast<std::size_t>(sw)];
    if (const std::vector<int>* ports = flipPortsFor(sw)) {
      for (const int p : *ports) {
        if (ofs.portIngressEpoch(p) != plan_.targetEpoch) pure = false;
      }
    } else if (tenant_ == 0 && ofs.ingressEpoch() != plan_.targetEpoch) {
      pure = false;
    }
    for (const openflow::FlowEntry& e : ofs.table().entries()) {
      if (tenant_ != 0 && openflow::cookieTenant(e.cookie) != tenant_) continue;
      if (openflow::cookieEpoch(e.cookie) != plan_.targetEpoch) pure = false;
    }
  }
  if (!pure) {
    finishFailure("post-convergence purity audit failed");
    return;
  }
  report_.pureStateVerified = true;
  report_.converged = true;

  deployment_.projection = plan_.projection;
  deployment_.switches = switches_;
  deployment_.epoch = plan_.targetEpoch;
  deployment_.topology = plan_.topology;
  deployment_.routing = plan_.routing;
  deployment_.ecmpSalt = plan_.ecmpSalt;
  detail::recountEntries(deployment_, tenant_);
  deployment_.reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, report_.flowMods);

  if (options_.journal != nullptr) {
    JournalRecord rec;
    rec.kind = JournalRecordKind::kRecovery;
    rec.at = sim_->now();
    rec.epoch = plan_.targetEpoch;
    rec.topology = plan_.topology;
    rec.routing = plan_.routing;
    rec.ecmpSalt = plan_.ecmpSalt;
    (void)options_.journal->append(std::move(rec));
  }
  finish();
}

void RecoveryRun::finishFailure(const std::string& why) {
  report_.converged = false;
  report_.failure = why;
  finish();
}

void RecoveryRun::cancel() {
  if (finished_) return;
  cancelled_ = true;
  report_.converged = false;
  report_.failure = "cancelled";
  finish();
}

void RecoveryRun::finish() {
  finished_ = true;
  rounds_.stop();  // cancels every outstanding timer and in-flight handler
  report_.finishedAt = sim_->now();
  for (int sw = 0; sw < numSwitches(); ++sw) {
    report_.switches[static_cast<std::size_t>(sw)].retries = rounds_.retries(sw);
  }
  report_.retriesTotal = rounds_.retriesTotal();
  rounds_.traceFinish(cancelled_ ? "cancelled" : report_.converged ? "converged" : "failed",
                      report_.failure,
                      {{"stats_rounds", std::to_string(report_.statsRounds)},
                       {"flow_mods", std::to_string(report_.flowMods)}});
  if (options_.monitor != nullptr) {
    // Unguard reseeds the tx-counter baselines, so the converge burst's
    // stalled counters cannot read as a wedged transceiver afterwards.
    for (int sw = 0; sw < numSwitches(); ++sw) options_.monitor->unguardSwitch(sw);
  }
  // A cancelled run never reports: the process that would have received the
  // completion is dead.
  if (done_ && !cancelled_) done_(report_);
}

Status<Error> journalDeploy(Journal& journal, const Deployment& deployment,
                            TimeNs at) {
  JournalRecord rec;
  rec.kind = JournalRecordKind::kDeploy;
  rec.at = at;
  rec.epoch = deployment.epoch;
  rec.topology = deployment.topology;
  rec.routing = deployment.routing;
  rec.ecmpSalt = deployment.ecmpSalt;
  return journal.append(std::move(rec));
}

}  // namespace sdt::controller
