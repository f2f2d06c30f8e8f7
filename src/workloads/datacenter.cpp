#include "workloads/datacenter.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <utility>

namespace sdt::workloads {

namespace {

/// Decorrelate source RNG streams from one config seed.
std::uint64_t sourceSeed(std::uint64_t base, std::size_t idx) {
  std::uint64_t mix = base ^ ((idx + 1) * 0x9E3779B97F4A7C15ULL);
  return detail::splitmix64(mix);
}

}  // namespace

ServingRuntime::ServingRuntime(sim::Simulator& sim, sim::Network& net,
                               sim::TransportManager& transport,
                               ServingConfig config)
    : sim_(&sim), transport_(&transport), config_(config) {
  assert(config_.duration > 0);
  hostScale_.assign(static_cast<std::size_t>(net.numHosts()), 1.0);
}

void ServingRuntime::addIncast(IncastSpec spec) {
  assert(spec.aggregator >= 0 && !spec.senders.empty());
  Source src;
  src.kind = SourceKind::kIncast;
  src.owner = spec.aggregator;
  src.incast = std::move(spec);
  src.rng = Rng(sourceSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addPartitionAggregate(PartitionAggregateSpec spec) {
  assert(spec.root >= 0 && !spec.workers.empty());
  Source src;
  src.kind = SourceKind::kPartAgg;
  src.owner = spec.root;
  src.partAgg = std::move(spec);
  src.rng = Rng(sourceSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addReplication(ReplicationSpec spec) {
  assert(spec.client >= 0 && spec.primary >= 0 && spec.client != spec.primary);
  Source src;
  src.kind = SourceKind::kReplication;
  src.owner = spec.client;
  src.repl = std::move(spec);
  src.rng = Rng(sourceSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addBurstyMix(BurstyMixSpec spec) {
  assert(spec.hosts.size() >= 2);
  Source src;
  src.kind = SourceKind::kBursty;
  src.owner = -1;
  src.bursty = std::move(spec);
  src.rng = Rng(sourceSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::attachOverload(sim::FaultInjector& injector) {
  injector.setOverloadSink([this](const sim::FaultSpec& spec) {
    const bool storm = spec.kind == sim::FaultKind::kOverloadStorm;
    const double scale = storm ? spec.intensity : 1.0;
    if (spec.srcHost < 0) {
      globalScale_ = scale;
    } else {
      setHostRateScale(spec.srcHost, scale);
    }
  });
}

void ServingRuntime::setHostRateScale(int host, double scale) {
  assert(host >= 0 && host < static_cast<int>(hostScale_.size()));
  hostScale_[static_cast<std::size_t>(host)] = scale;
}

void ServingRuntime::attachMetrics(obs::Registry& registry) {
  for (int c = 0; c < admission::kNumPriorities; ++c) {
    const char* cls = admission::priorityName(static_cast<Priority>(c));
    const obs::Labels base = {{"class", cls}};
    obs::Labels hit = base;
    hit.emplace_back("result", "hit");
    obs::Labels miss = base;
    miss.emplace_back("result", "miss");
    const auto ci = static_cast<std::size_t>(c);
    sloHitCtr_[ci] = &registry.counter("sdt_dc_slo_total", hit,
                                       "serving completions scored against the class SLO");
    sloMissCtr_[ci] = &registry.counter("sdt_dc_slo_total", miss,
                                        "serving completions scored against the class SLO");
    latencyHist_[ci] = &registry.histogram("sdt_dc_flow_latency_ns", obs::latencyBucketsNs(),
                                           base, "serving unit completion latency (ns)");
  }
}

double ServingRuntime::scaleFor(const Source& src) const {
  double scale = globalScale_;
  if (src.owner >= 0) scale *= hostScale_[static_cast<std::size_t>(src.owner)];
  return scale > 0.0 ? scale : 1e-9;
}

int ServingRuntime::maxDefers() const {
  return admission_ != nullptr ? admission_->policy().maxDefers : 0;
}

TimeNs ServingRuntime::sloFor(Priority cls) const {
  const admission::Policy& p = admission_ != nullptr ? admission_->policy() : sloPolicy_;
  return p.classes[static_cast<std::size_t>(priorityIndex(cls))].sloNs;
}

void ServingRuntime::start() {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Source& src = sources_[i];
    // Stagger first arrivals with each source's own stream so sources do
    // not fire in lockstep at t = start.
    const TimeNs mean = src.kind == SourceKind::kIncast ? src.incast.meanRoundInterval
                        : src.kind == SourceKind::kPartAgg
                            ? src.partAgg.meanQueryInterval
                        : src.kind == SourceKind::kReplication
                            ? src.repl.meanWriteInterval
                            : src.bursty.meanFlowInterval;
    const auto first = std::max<TimeNs>(
        1, static_cast<TimeNs>(src.rng.exponential(static_cast<double>(mean))));
    sim_->schedule(config_.start + first, [this, i]() { sourceTick(i); });
  }
}

void ServingRuntime::sourceTick(std::size_t idx) {
  if (sim_->now() >= deadline()) return;
  Source& src = sources_[idx];
  const double scale = scaleFor(src);
  TimeNs next = 0;
  switch (src.kind) {
    case SourceKind::kIncast:
      fireIncast(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.incast.meanRoundInterval) / scale));
      break;
    case SourceKind::kPartAgg:
      firePartAgg(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.partAgg.meanQueryInterval) / scale));
      break;
    case SourceKind::kReplication:
      fireReplication(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.repl.meanWriteInterval) / scale));
      break;
    case SourceKind::kBursty: {
      if (!src.inBurst) {
        src.inBurst = true;
        src.burstEndsAt =
            sim_->now() + std::max<TimeNs>(1, static_cast<TimeNs>(src.rng.exponential(
                              static_cast<double>(src.bursty.meanBurstLen))));
      }
      if (sim_->now() < src.burstEndsAt) {
        fireBurstyFlow(src);
        next = static_cast<TimeNs>(src.rng.exponential(
            static_cast<double>(src.bursty.meanFlowInterval) / scale));
      } else {
        src.inBurst = false;
        next = static_cast<TimeNs>(
            src.rng.exponential(static_cast<double>(src.bursty.meanOffLen)));
      }
      break;
    }
  }
  next = std::max<TimeNs>(1, next);
  sim_->schedule(next, [this, idx]() { sourceTick(idx); });
}

void ServingRuntime::fireIncast(Source& src) {
  const IncastSpec& spec = src.incast;
  for (const int sender : spec.senders) {
    const int dst = spec.aggregator;
    const std::int64_t bytes = spec.bytesPerFlow;
    const Priority cls = spec.priority;
    launchUnit(sender, cls, bytes, [this, sender, dst, bytes, cls](TimeNs bornAt) {
      transport_->sendMessage(sender, dst, bytes, 0,
                              [this, cls, bornAt, bytes](std::uint64_t, sim::Time at) {
                                recordCompletion(cls, bornAt, at, bytes);
                              });
    });
  }
}

void ServingRuntime::firePartAgg(Source& src) {
  // One query = root requests every worker, every worker responds; the
  // whole fan is admitted (and charged) as a single unit at the root.
  const PartitionAggregateSpec spec = src.partAgg;
  const auto workers = static_cast<std::int64_t>(spec.workers.size());
  const std::int64_t unitBytes = workers * (spec.requestBytes + spec.responseBytes);
  const Priority cls = spec.priority;
  launchUnit(spec.root, cls, unitBytes, [this, spec, unitBytes, cls](TimeNs bornAt) {
    auto remaining = std::make_shared<int>(static_cast<int>(spec.workers.size()));
    for (const int worker : spec.workers) {
      sendUngated(spec.root, worker, spec.requestBytes,
                  [this, spec, worker, remaining, bornAt, unitBytes, cls](TimeNs) {
                    // Worker: answer the root.
                    sendUngated(worker, spec.root, spec.responseBytes,
                                [this, remaining, bornAt, unitBytes, cls](TimeNs at) {
                                  // Root: last response closes the query.
                                  if (--*remaining == 0) {
                                    recordCompletion(cls, bornAt, at, unitBytes);
                                  }
                                });
                  });
    }
  });
}

void ServingRuntime::fireReplication(Source& src) {
  const ReplicationSpec spec = src.repl;
  const auto replicas = static_cast<std::int64_t>(spec.replicas.size());
  const std::int64_t unitBytes = spec.writeBytes * (1 + replicas);
  const Priority cls = spec.priority;
  launchUnit(spec.client, cls, unitBytes, [this, spec, unitBytes, cls](TimeNs bornAt) {
    sendUngated(spec.client, spec.primary, spec.writeBytes,
                [this, spec, unitBytes, cls, bornAt](TimeNs at) {
                  // Primary: replicate, gather acks, then commit.
                  auto commit = [this, spec, unitBytes, cls, bornAt]() {
                    sendUngated(spec.primary, spec.client, kCtrlBytes,
                                [this, unitBytes, cls, bornAt](TimeNs doneAt) {
                                  recordCompletion(cls, bornAt, doneAt, unitBytes);
                                });
                  };
                  if (spec.replicas.empty()) {
                    (void)at;
                    commit();
                    return;
                  }
                  auto acks = std::make_shared<int>(static_cast<int>(spec.replicas.size()));
                  for (const int replica : spec.replicas) {
                    sendUngated(spec.primary, replica, spec.writeBytes,
                                [this, spec, replica, acks, commit](TimeNs) {
                                  // Replica: ack the primary.
                                  sendUngated(replica, spec.primary, kCtrlBytes,
                                              [acks, commit](TimeNs) {
                                                if (--*acks == 0) commit();
                                              });
                                });
                  }
                });
  });
}

void ServingRuntime::fireBurstyFlow(Source& src) {
  const BurstyMixSpec& spec = src.bursty;
  const auto n = spec.hosts.size();
  const auto si = static_cast<std::size_t>(src.rng.below(n));
  auto di = static_cast<std::size_t>(src.rng.below(n - 1));
  if (di >= si) ++di;  // uniform over the n-1 hosts != src
  const int sender = spec.hosts[si];
  const int dst = spec.hosts[di];
  const std::int64_t bytes = spec.bytesPerFlow;
  const Priority cls = spec.priority;
  launchUnit(sender, cls, bytes, [this, sender, dst, bytes, cls](TimeNs bornAt) {
    transport_->sendMessage(sender, dst, bytes, 0,
                            [this, cls, bornAt, bytes](std::uint64_t, sim::Time at) {
                              recordCompletion(cls, bornAt, at, bytes);
                            });
  });
}

void ServingRuntime::launchUnit(int srcHost, Priority cls, std::int64_t chargeBytes,
                                std::function<void(TimeNs)> admitAction) {
  std::uint32_t unit;
  if (freeUnits_.empty()) {
    unit = static_cast<std::uint32_t>(pendingUnits_.size());
    pendingUnits_.emplace_back();
  } else {
    unit = freeUnits_.back();
    freeUnits_.pop_back();
  }
  pendingUnits_[unit] = {srcHost, cls, 0, chargeBytes, 0, std::move(admitAction)};
  auto start = [this, unit]() {
    PendingUnit& u = pendingUnits_[unit];
    ++statsFor(u.cls).offered;
    u.defersLeft = maxDefers();
    u.bornAt = sim_->now();
    tryStart(unit);
  };
  static_assert(sim::Simulator::kFitsInline<decltype(start)>);
  sim_->schedule(0, start);
}

void ServingRuntime::tryStart(std::uint32_t unit) {
  PendingUnit& u = pendingUnits_[unit];
  if (admission_ != nullptr) {
    switch (admission_->request(u.srcHost, u.cls, u.chargeBytes)) {
      case admission::Decision::kShed:
        ++statsFor(u.cls).shed;
        u.admitAction = nullptr;
        freeUnits_.push_back(unit);
        return;
      case admission::Decision::kDefer:
        if (u.defersLeft > 0) {
          --u.defersLeft;
          ++statsFor(u.cls).deferRetries;
          auto retry = [this, unit]() { tryStart(unit); };
          static_assert(sim::Simulator::kFitsInline<decltype(retry)>);
          sim_->schedule(admission_->policy().deferDelay, retry);
        } else {
          ++statsFor(u.cls).shed;
          u.admitAction = nullptr;
          freeUnits_.push_back(unit);
        }
        return;
      case admission::Decision::kAdmit:
        break;
    }
  }
  ++statsFor(u.cls).admitted;
  // The action may launch further units, which can grow pendingUnits_:
  // take what it needs out of the table first.
  const TimeNs bornAt = u.bornAt;
  const std::function<void(TimeNs)> admitAction = std::move(u.admitAction);
  u.admitAction = nullptr;
  freeUnits_.push_back(unit);
  admitAction(bornAt);
}

void ServingRuntime::sendUngated(int srcHost, int dstHost, std::int64_t bytes,
                                 std::function<void(TimeNs)> onDone) {
  transport_->sendMessage(srcHost, dstHost, bytes, 0,
                          [onDone = std::move(onDone)](std::uint64_t, sim::Time at) {
                            onDone(at);
                          });
}

void ServingRuntime::recordCompletion(Priority cls, TimeNs bornAt, TimeNs completedAt,
                                      std::int64_t bytes) {
  ClassStats& stats = statsFor(cls);
  const TimeNs latency = completedAt - bornAt;
  ++stats.completed;
  stats.completedBytes += bytes;
  stats.latencySumNs += static_cast<std::uint64_t>(latency);
  stats.maxLatencyNs = std::max(stats.maxLatencyNs, latency);
  const bool hit = latency <= sloFor(cls);
  if (hit) {
    ++stats.sloHit;
    stats.sloGoodBytes += bytes;
  } else {
    ++stats.sloMiss;
  }
  const auto ci = static_cast<std::size_t>(priorityIndex(cls));
  if (latencyHist_[ci] != nullptr) {
    latencyHist_[ci]->observe(static_cast<double>(latency));
    (hit ? sloHitCtr_[ci] : sloMissCtr_[ci])->inc();
  }
}

ServingRuntime::ClassStats ServingRuntime::totalStats() const {
  ClassStats out;
  for (int c = 0; c < admission::kNumPriorities; ++c) {
    const ClassStats s = classStats(static_cast<Priority>(c));
    out.offered += s.offered;
    out.admitted += s.admitted;
    out.deferRetries += s.deferRetries;
    out.shed += s.shed;
    out.completed += s.completed;
    out.sloHit += s.sloHit;
    out.sloMiss += s.sloMiss;
    out.completedBytes += s.completedBytes;
    out.sloGoodBytes += s.sloGoodBytes;
    out.latencySumNs += s.latencySumNs;
    out.maxLatencyNs = std::max(out.maxLatencyNs, s.maxLatencyNs);
  }
  return out;
}

// ---- MPI-style closed-loop equivalents ------------------------------------

Workload incast(int ranks, std::int64_t bytesPerFlow, int rounds) {
  assert(ranks >= 2);
  Workload w;
  w.name = "incast";
  w.perRank.resize(static_cast<std::size_t>(ranks));
  int tag = 1;
  for (int round = 0; round < rounds; ++round) {
    for (int r = 1; r < ranks; ++r) {
      w.perRank[static_cast<std::size_t>(r)].push_back(
          Op::send(0, bytesPerFlow, tag));
      w.perRank[0].push_back(Op::recv(r, tag));
    }
    ++tag;
    for (auto& program : w.perRank) program.push_back(Op::barrier());
  }
  return w;
}

Workload partitionAggregate(int ranks, std::int64_t requestBytes,
                            std::int64_t responseBytes, int queries) {
  assert(ranks >= 2);
  Workload w;
  w.name = "partagg";
  w.perRank.resize(static_cast<std::size_t>(ranks));
  int tag = 1;
  for (int q = 0; q < queries; ++q) {
    for (int r = 1; r < ranks; ++r) {
      w.perRank[0].push_back(Op::send(r, requestBytes, tag));
      w.perRank[static_cast<std::size_t>(r)].push_back(Op::recv(0, tag));
      w.perRank[static_cast<std::size_t>(r)].push_back(
          Op::send(0, responseBytes, tag + 1));
    }
    for (int r = 1; r < ranks; ++r) {
      w.perRank[0].push_back(Op::recv(r, tag + 1));
    }
    tag += 2;
    for (auto& program : w.perRank) program.push_back(Op::barrier());
  }
  return w;
}

}  // namespace sdt::workloads
