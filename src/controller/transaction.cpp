#include "controller/transaction.hpp"

#include "common/strings.hpp"
#include "controller/journal.hpp"
#include "controller/monitor.hpp"
#include "controller/table_diff.hpp"

namespace sdt::controller {

const char* reconfigPhaseName(ReconfigPhase phase) {
  switch (phase) {
    case ReconfigPhase::kPrepare: return "prepare";
    case ReconfigPhase::kInstall: return "install";
    case ReconfigPhase::kBarrier: return "barrier";
    case ReconfigPhase::kFlip: return "flip";
    case ReconfigPhase::kDrain: return "drain";
    case ReconfigPhase::kGc: return "gc";
    case ReconfigPhase::kDone: return "done";
  }
  return "?";
}

const char* crashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kPrepare: return "prepare";
    case CrashPoint::kMidInstall: return "mid-install";
    case CrashPoint::kPreFlip: return "pre-flip";
    case CrashPoint::kPostFlip: return "post-flip";
    case CrashPoint::kMidGc: return "mid-gc";
  }
  return "?";
}

json::Value ReconfigReport::toJson() const {
  json::Object obj;
  obj["committed"] = committed;
  obj["rolledBack"] = rolledBack;
  obj["phaseReached"] = reconfigPhaseName(phaseReached);
  obj["fromEpoch"] = static_cast<std::int64_t>(fromEpoch);
  obj["toEpoch"] = static_cast<std::int64_t>(toEpoch);
  obj["flowModsInstalled"] = flowModsInstalled;
  obj["flowModsRolledBack"] = flowModsRolledBack;
  obj["flowModsGarbageCollected"] = flowModsGarbageCollected;
  obj["barrierRoundTrips"] = barrierRoundTrips;
  obj["retriesTotal"] = retriesTotal;
  obj["startedAtNs"] = static_cast<std::int64_t>(startedAt);
  obj["updateWindowNs"] = static_cast<std::int64_t>(updateWindow());
  obj["finishedAtNs"] = static_cast<std::int64_t>(finishedAt);
  obj["rollbackLatencyNs"] = static_cast<std::int64_t>(rollbackLatency);
  obj["pureStateVerified"] = pureStateVerified;
  obj["gcIncomplete"] = gcIncomplete;
  if (!failure.empty()) obj["failure"] = failure;
  json::Array sws;
  for (const SwitchTxState& s : switches) {
    json::Object sw;
    sw["installAcked"] = s.installAcked;
    sw["barrierAcked"] = s.barrierAcked;
    sw["flipAcked"] = s.flipAcked;
    sw["gcAcked"] = s.gcAcked;
    sw["rollbackAcked"] = s.rollbackAcked;
    sw["retries"] = s.retries;
    sws.push_back(std::move(sw));
  }
  obj["switches"] = std::move(sws);
  return obj;
}

ReconfigTransaction::ReconfigTransaction(sim::Simulator& sim,
                                         sim::ControlChannel& channel,
                                         Deployment& deployment, UpdatePlan plan,
                                         ReconfigOptions options, DoneFn done)
    : sim_(&sim),
      channel_(&channel),
      deployment_(&deployment),
      plan_(std::move(plan)),
      options_(std::move(options)),
      done_(std::move(done)),
      rounds_(sim, static_cast<int>(deployment.switches.size()),
              {.op = "reconfigure", .salt = 0x7C0FF1E5ULL, .retry = options_.retry,
               .tracer = options_.tracer, .metrics = options_.metrics},
              [this](int sw) { sendRequest(sw); },
              [this](int sw, int attempts) { onExhausted(sw, attempts); }) {
  const auto n = static_cast<std::size_t>(numSwitches());
  report_.switches.resize(n);
  rolledBack_.assign(n, 0);
  report_.fromEpoch = plan_.fromEpoch;
  report_.toEpoch = plan_.toEpoch;
  scope_ = plan_.scope;
  if (scope_.empty()) {
    scope_.reserve(n);
    for (int sw = 0; sw < numSwitches(); ++sw) scope_.push_back(sw);
  }
  flipPortsBySwitch_.resize(n);
  for (std::size_t i = 0; i < plan_.scope.size() && i < plan_.flipPorts.size(); ++i) {
    flipPortsBySwitch_[static_cast<std::size_t>(plan_.scope[i])] = plan_.flipPorts[i];
  }
}

bool* ReconfigTransaction::ackedFlag(int sw, Round round) {
  SwitchTxState& s = report_.switches[static_cast<std::size_t>(sw)];
  switch (round) {
    case Round::kInstall: return &s.installAcked;
    case Round::kBarrier: return &s.barrierAcked;
    case Round::kFlip: return &s.flipAcked;
    case Round::kGc: return &s.gcAcked;
    case Round::kRollback: return &s.rollbackAcked;
  }
  return nullptr;
}

const char* ReconfigTransaction::roundName(Round round) {
  switch (round) {
    case Round::kInstall: return "install";
    case Round::kBarrier: return "barrier";
    case Round::kFlip: return "flip";
    case Round::kGc: return "gc";
    case Round::kRollback: return "rollback";
  }
  return "?";
}

void ReconfigTransaction::start() {
  report_.startedAt = sim_->now();
  rounds_.traceStart({{"topology", plan_.topology},
                      {"from_epoch", std::to_string(plan_.fromEpoch)},
                      {"to_epoch", std::to_string(plan_.toEpoch)},
                      {"rules", std::to_string(plan_.totalEntries)}});
  rounds_.tracePhase("prepare");
  // WAL discipline: the prepare record hits the journal before the first
  // install leaves the controller, so any later crash finds an open
  // transaction with its full target intent.
  journalMark(JournalRecordKind::kTxPrepare);
  if (maybeCrash(CrashPoint::kPrepare)) return;
  phase_ = ReconfigPhase::kInstall;
  report_.phaseReached = ReconfigPhase::kInstall;
  if (options_.monitor != nullptr) {
    for (const int sw : scope_) options_.monitor->guardSwitch(sw);
  }
  openRound(Round::kInstall);
}

void ReconfigTransaction::openRound(Round round) {
  currentRound_ = round;
  const bool forwardOnly = round == Round::kFlip || round == Round::kGc ||
                           round == Round::kRollback;
  rounds_.begin(roundName(round),
                forwardOnly ? options_.commitAttempts : options_.retry.maxAttempts);
  rounds_.tracePhase(roundName(round));
  for (const int sw : scope_) rounds_.send(sw);
}

void ReconfigTransaction::sendRequest(int sw) {
  // Request travels to the switch; every delivered copy re-sends the ack
  // (the *apply* is idempotent, the ack is not — a lost ack must be
  // recoverable by retransmitting the request).
  const Round round = currentRound_;
  channel_->send(sw, [this, sw, round]() {
    // A fenced bundle (stale leader term) is dropped without an ack — the
    // real agent would answer with an error the dead session never reads.
    if (!applyAtSwitch(sw, round)) return;
    channel_->send(sw, [this, sw, round]() { onAck(sw, round); });
  });
}

void ReconfigTransaction::onExhausted(int sw, int attempts) {
  // Bounded rounds before the commit point abort the whole transaction; the
  // forward-only rounds give up on this switch and let finish() report the
  // unverified state.
  if (currentRound_ == Round::kInstall || currentRound_ == Round::kBarrier) {
    abort(currentRound_ == Round::kInstall ? ReconfigPhase::kInstall
                                           : ReconfigPhase::kBarrier,
          strFormat("switch %d unreachable in %s phase after %d attempts", sw,
                    rounds_.phase(), attempts));
    return;
  }
  stuck_ = true;
  if (currentRound_ == Round::kGc) report_.gcIncomplete = true;
  if (rounds_.complete(sw) == scopeSize()) advancePhase();
}

bool ReconfigTransaction::applyAtSwitch(int sw, Round round) {
  if (finished_) return true;
  openflow::Switch& ofs = *deployment_->switches[static_cast<std::size_t>(sw)];
  // Term fence first: a bundle from a deposed leader must not touch the
  // table, consume an xid, or even bump the barrier counter.
  if (!ofs.admitTerm(options_.term, options_.leaderId)) return false;
  // Mutating bundles carry an OpenFlow xid; the switch itself refuses
  // re-application (openflow::Switch::acceptXid), which is what makes the
  // at-least-once channel safe — see the dedup note on acceptXid().
  const std::uint64_t xid = txXid(plan_.toEpoch, static_cast<int>(round));
  switch (round) {
    case Round::kInstall: {
      // A request that limps in after this switch already processed the
      // abort must not resurrect the new epoch's rules.
      if (rolledBack_[static_cast<std::size_t>(sw)] != 0) break;
      if (!ofs.acceptXid(xid)) break;
      for (const openflow::FlowEntry& e : plan_.tables[static_cast<std::size_t>(sw)]) {
        if (auto s = ofs.table().add(e); !s) {
          abort(ReconfigPhase::kInstall,
                strFormat("switch %d rejected a flow-mod: %s", sw,
                          s.error().message.c_str()));
          return true;
        }
        ++report_.flowModsInstalled;
      }
      break;
    }
    case Round::kBarrier:
      // Barriers are naturally idempotent; every delivered request is
      // processed (and separately acked), like a real OpenFlow agent.
      ofs.barrier();
      break;
    case Round::kFlip: {
      // Also idempotent (a pure config write), so no xid is consumed: even
      // a flip retransmitted after a switch reboot must re-apply. A scoped
      // plan flips only the slice's own ingress ports — a scoped switch with
      // no listed ports (a mid-path hop; packets arrive already stamped)
      // gets NO flip, because a whole-switch flip on shared hardware would
      // move every co-tenant's unstamped traffic onto this tenant's epoch.
      if (plan_.scope.empty()) {
        ofs.setIngressEpoch(plan_.toEpoch);
      } else {
        for (const int p : flipPortsBySwitch_[static_cast<std::size_t>(sw)]) {
          ofs.setPortIngressEpoch(p, plan_.toEpoch);
        }
      }
      break;
    }
    case Round::kGc:
      if (!ofs.acceptXid(xid)) break;
      report_.flowModsGarbageCollected +=
          static_cast<int>(ofs.table().removeByEpoch(plan_.fromEpoch));
      break;
    case Round::kRollback:
      if (!ofs.acceptXid(xid)) break;
      report_.flowModsRolledBack +=
          static_cast<int>(ofs.table().removeByEpoch(plan_.toEpoch));
      rolledBack_[static_cast<std::size_t>(sw)] = 1;
      break;
  }
  return true;
}

void ReconfigTransaction::onAck(int sw, Round round) {
  if (finished_) return;
  bool* flag = ackedFlag(sw, round);
  if (*flag) return;  // duplicate or retransmitted ack
  *flag = true;
  if (round == Round::kBarrier) ++report_.barrierRoundTrips;
  // Only acks for the round in progress advance the protocol; a stale ack
  // from an earlier phase (or one arriving after this switch's give-up was
  // recorded) just updates the bookkeeping above.
  if (round != currentRound_ || rounds_.completed(sw)) return;
  const int acks = rounds_.complete(sw);
  // Mid-phase crash points fire on the *first* ack of their round: the
  // moment the fabric is most asymmetric (one switch has acted, the rest
  // have not), which is the hardest state recovery must untangle.
  if (acks == 1) {
    if (round == Round::kInstall && maybeCrash(CrashPoint::kMidInstall)) return;
    if (round == Round::kFlip && maybeCrash(CrashPoint::kPostFlip)) return;
    if (round == Round::kGc && maybeCrash(CrashPoint::kMidGc)) return;
  }
  if (acks == scopeSize()) advancePhase();
}

void ReconfigTransaction::advancePhase() {
  switch (currentRound_) {
    case Round::kInstall:
      phase_ = ReconfigPhase::kBarrier;
      report_.phaseReached = ReconfigPhase::kBarrier;
      openRound(Round::kBarrier);
      break;
    case Round::kBarrier:
      // Commit point: the first flip message may stamp a packet with the new
      // epoch the moment it lands, after which rollback is off the table.
      // The crash point sits *before* the flip marker is journaled: a
      // controller that dies here provably sent no flip, so its successor
      // may (must) roll back.
      if (maybeCrash(CrashPoint::kPreFlip)) return;
      journalMark(JournalRecordKind::kTxFlip);
      phase_ = ReconfigPhase::kFlip;
      report_.phaseReached = ReconfigPhase::kFlip;
      openRound(Round::kFlip);
      break;
    case Round::kFlip: {
      // No round runs while draining; reset() retires the flip round's
      // timers and arms the generation the drain timer checks.
      rounds_.reset();
      report_.updateWindowEnd = sim_->now();
      phase_ = ReconfigPhase::kDrain;
      report_.phaseReached = ReconfigPhase::kDrain;
      rounds_.tracePhase("drain");
      const std::uint64_t gen = rounds_.generation();
      sim_->schedule(options_.drainDelay, [this, gen]() {
        if (finished_ || gen != rounds_.generation()) return;
        journalMark(JournalRecordKind::kTxGc);
        phase_ = ReconfigPhase::kGc;
        report_.phaseReached = ReconfigPhase::kGc;
        openRound(Round::kGc);
      });
      break;
    }
    case Round::kGc:
      report_.committed = true;
      report_.phaseReached = ReconfigPhase::kDone;
      finish();
      break;
    case Round::kRollback:
      report_.rolledBack = true;
      report_.rollbackLatency = sim_->now() - abortAt_;
      finish();
      break;
  }
}

void ReconfigTransaction::abort(ReconfigPhase at, const std::string& why) {
  if (aborting_ || finished_) return;
  aborting_ = true;
  if (static_cast<int>(at) > static_cast<int>(report_.phaseReached)) {
    report_.phaseReached = at;
  }
  report_.failure = why;
  abortAt_ = sim_->now();
  openRound(Round::kRollback);  // cancels every outstanding install/barrier retry
}

void ReconfigTransaction::journalMark(JournalRecordKind kind) {
  if (options_.journal == nullptr) return;
  JournalRecord rec;
  rec.kind = kind;
  rec.at = sim_->now();
  rec.epoch = kind == JournalRecordKind::kTxCommit ? plan_.toEpoch : plan_.fromEpoch;
  rec.fromEpoch = plan_.fromEpoch;
  rec.toEpoch = plan_.toEpoch;
  rec.topology = plan_.topology;
  rec.routing = plan_.routing;
  rec.ecmpSalt = plan_.ecmpSalt;
  // Deliberately non-fatal: a journal that stops accepting writes must not
  // take the live fabric down with it. Recovery treats the journal as a
  // prefix of the truth anyway.
  (void)options_.journal->append(std::move(rec));
}

bool ReconfigTransaction::maybeCrash(CrashPoint point) {
  if (options_.crashAt != point || crashed_ || finished_) return false;
  crashed_ = true;
  finished_ = true;  // the fence: every callback checks this first
  rounds_.stop();    // cancels outstanding retry timers deterministically
  report_.failure = strFormat("controller crashed at %s", crashPointName(point));
  closeReport("crashed");
  // No journal record, no monitor unguard, no done callback: a killed
  // process runs no cleanup. The guards the transaction took stay in place
  // until recovery re-takes and releases them. The trace, though, is the
  // *observer's* record, not the dead controller's — it closes out.
  if (options_.onCrash) options_.onCrash();
  return true;
}

void ReconfigTransaction::closeReport(const char* outcome) {
  report_.finishedAt = sim_->now();
  for (std::size_t sw = 0; sw < report_.switches.size(); ++sw) {
    report_.switches[sw].retries = rounds_.retries(static_cast<int>(sw));
  }
  report_.retriesTotal = rounds_.retriesTotal();
  rounds_.traceFinish(outcome, report_.failure, {});
}

void ReconfigTransaction::finish() {
  finished_ = true;
  rounds_.stop();
  journalMark(report_.committed ? JournalRecordKind::kTxCommit
                                : JournalRecordKind::kTxAbort);

  // Purity audit: after a committed transaction every switch must hold only
  // epoch-N+1 rules and stamp N+1; after a rollback, only epoch-N and stamp
  // N. (Epoch-0 wildcard rules — none in SDT-compiled tables — would pass
  // either way by construction.)
  const std::uint32_t keep = report_.committed ? plan_.toEpoch : plan_.fromEpoch;
  const std::uint32_t gone = report_.committed ? plan_.fromEpoch : plan_.toEpoch;
  bool pure = true;
  for (const int sw : scope_) {
    const openflow::Switch& ofs = *deployment_->switches[static_cast<std::size_t>(sw)];
    bool swPure = ofs.table().countEpoch(gone) == 0;
    if (plan_.scope.empty()) {
      swPure = swPure && ofs.ingressEpoch() == keep;
    } else {
      // Scoped: only the listed ports carry this tenant's stamp; the
      // switch-wide epoch (and other tenants' port stamps) are not ours.
      for (const int p : flipPortsBySwitch_[static_cast<std::size_t>(sw)]) {
        swPure = swPure && ofs.portIngressEpoch(p) == keep;
      }
    }
    if (!swPure) {
      pure = false;
      if (report_.committed) report_.gcIncomplete = true;
    }
  }
  report_.pureStateVerified = pure && !stuck_;

  if (report_.committed) {
    deployment_->projection = plan_.projection;
    deployment_->epoch = plan_.toEpoch;
    // A scoped transaction over shared switches counts only the slice's own
    // epoch (none off-scope), so co-tenant rules never inflate its totals.
    detail::recountEntries(*deployment_, [this](const openflow::FlowTable& t) {
      return plan_.scope.empty() ? t.size() : t.countEpoch(plan_.toEpoch);
    });
  }
  if (options_.monitor != nullptr) {
    for (const int sw : scope_) options_.monitor->unguardSwitch(sw);
  }
  closeReport(report_.committed ? "committed" : "rolled_back");
  if (done_) done_(report_);
}

}  // namespace sdt::controller
