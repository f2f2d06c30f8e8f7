// Span tracer for controller operations.
//
// A span is a named interval of *simulated* time with an optional parent:
// a deploy, a two-phase reconfiguration, one of its phases
// (prepare/install/barrier/flip/drain/gc), a repair, a recovery round.
// Controller operations are event-driven — a phase starts in one callback
// and ends in another — so spans are begun and ended explicitly by id
// rather than by RAII scope.
//
// Timestamps come from whoever begins/ends the span (the simulator clock or
// the controller's modeled-time accounting), never from a wall clock, so a
// trace is as reproducible as the run that produced it. Span ids are
// indices into an append-only vector: child spans recorded after their
// parents, stable export order for free.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace sdt::obs {

/// Index into the tracer's span vector. 0 is a valid id; use kNoSpan for
/// "no parent".
using SpanId = std::size_t;
inline constexpr SpanId kNoSpan = static_cast<SpanId>(-1);

struct Span {
  std::string name;
  SpanId parent = kNoSpan;
  TimeNs start = 0;
  TimeNs end = 0;
  bool closed = false;
  /// Free-form annotations ("rules", "attempts", "outcome"...), in the
  /// order they were added.
  std::vector<std::pair<std::string, std::string>> attrs;

  [[nodiscard]] TimeNs duration() const { return closed ? end - start : 0; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span at simulated time `at`.
  SpanId begin(const std::string& name, TimeNs at, SpanId parent = kNoSpan);
  /// Close a span. Closing an already-closed or out-of-range id is a no-op
  /// (an aborted operation may race its own cleanup path to the close).
  void end(SpanId id, TimeNs at);
  /// Annotate an open or closed span.
  void annotate(SpanId id, const std::string& key, const std::string& value);

  [[nodiscard]] std::size_t size() const;
  /// Snapshot of all spans in creation order.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One operation's trace: a root span with at most one open phase child.
/// Opening a phase closes the one before it; finish() closes both. The
/// caller passes every timestamp from its own clock (the simulator's, or a
/// controller op's modeled time). Without a tracer every call is a no-op.
class OpSpan {
 public:
  using Attributes = std::vector<std::pair<const char*, std::string>>;

  OpSpan() = default;
  OpSpan(Tracer* tracer, const std::string& name, TimeNs at);

  /// Annotate the root (no-op once finished).
  void annotate(const std::string& key, const std::string& value);
  /// Close the open phase and open `name` under the root.
  void phase(const std::string& name, TimeNs at);
  /// Close the open phase, annotate the root with "outcome" and then
  /// `attrs` in order, and close it. No-op once finished.
  void finish(const char* outcome, TimeNs at, const Attributes& attrs = {});

 private:
  Tracer* tracer_ = nullptr;
  SpanId root_ = kNoSpan;
  SpanId phase_ = kNoSpan;
};

}  // namespace sdt::obs
