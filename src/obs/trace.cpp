#include "obs/trace.hpp"

namespace sdt::obs {

SpanId Tracer::begin(const std::string& name, TimeNs at, SpanId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.parent = parent < spans_.size() ? parent : kNoSpan;
  span.start = at;
  span.end = at;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::end(SpanId id, TimeNs at) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= spans_.size() || spans_[id].closed) return;
  spans_[id].end = at;
  spans_[id].closed = true;
}

void Tracer::annotate(SpanId id, const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= spans_.size()) return;
  spans_[id].attrs.emplace_back(key, value);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

OpSpan::OpSpan(Tracer* tracer, const std::string& name, TimeNs at) : tracer_(tracer) {
  if (tracer_ != nullptr) root_ = tracer_->begin(name, at);
}

void OpSpan::annotate(const std::string& key, const std::string& value) {
  if (tracer_ != nullptr && root_ != kNoSpan) tracer_->annotate(root_, key, value);
}

void OpSpan::phase(const std::string& name, TimeNs at) {
  if (tracer_ == nullptr) return;
  if (phase_ != kNoSpan) tracer_->end(phase_, at);
  phase_ = tracer_->begin(name, at, root_);
}

void OpSpan::finish(const char* outcome, TimeNs at, const Attributes& attrs) {
  if (tracer_ == nullptr) return;
  if (phase_ != kNoSpan) {
    tracer_->end(phase_, at);
    phase_ = kNoSpan;
  }
  if (root_ == kNoSpan) return;
  tracer_->annotate(root_, "outcome", outcome);
  for (const auto& [key, value] : attrs) tracer_->annotate(root_, key, value);
  tracer_->end(root_, at);
  root_ = kNoSpan;
}

}  // namespace sdt::obs
