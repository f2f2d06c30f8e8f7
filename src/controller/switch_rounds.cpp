#include "controller/switch_rounds.hpp"

#include <algorithm>

namespace sdt::controller {

SwitchRounds::SwitchRounds(sim::Simulator& sim, int numSwitches, Options options,
                           SendFn send, ExhaustedFn exhausted)
    : sim_(&sim),
      options_(std::move(options)),
      send_(std::move(send)),
      exhausted_(std::move(exhausted)) {
  const auto n = static_cast<std::size_t>(numSwitches);
  complete_.assign(n, 0);
  retries_.assign(n, 0);
  backoffRng_.reserve(n);
  for (std::size_t sw = 0; sw < n; ++sw) {
    std::uint64_t mix = options_.retry.seed ^ (options_.salt + sw);
    backoffRng_.emplace_back(sdt::detail::splitmix64(mix));
  }
}

void SwitchRounds::reset() {
  ++gen_;
  std::fill(complete_.begin(), complete_.end(), 0);
  acks_ = 0;
}

void SwitchRounds::attempt(int sw, int n) {
  if (stopped_ || completed(sw)) return;
  if (n > 1) {
    ++retriesTotal_;
    ++retries_[static_cast<std::size_t>(sw)];
    if (options_.metrics != nullptr) {
      options_.metrics
          ->counter("sdt_controller_retry_attempts_total",
                    {{"op", options_.op}, {"phase", phase_}},
                    "Control-channel resends beyond the first attempt")
          .inc();
    }
  }
  send_(sw);
  const std::uint64_t gen = gen_;
  sim_->schedule(options_.retry.attemptTimeout,
                 [this, sw, n, gen]() { onTimeout(sw, n, gen); });
}

void SwitchRounds::onTimeout(int sw, int n, std::uint64_t gen) {
  if (stopped_ || gen != gen_ || completed(sw)) return;
  if (n >= cap_) {
    exhausted_(sw, n);
    return;
  }
  const TimeNs wait =
      retry::backoffWait(options_.retry, n, backoffRng_[static_cast<std::size_t>(sw)]);
  sim_->schedule(wait, [this, sw, n, gen]() {
    if (gen == gen_) attempt(sw, n + 1);  // attempt() checks the rest
  });
}

void SwitchRounds::traceStart(const Attributes& attrs) {
  span_ = obs::OpSpan(options_.tracer, options_.op, sim_->now());
  for (const auto& [key, value] : attrs) span_.annotate(key, value);
}

void SwitchRounds::tracePhase(const char* name) {
  if (options_.tracer == nullptr) return;
  span_.phase(std::string(options_.op) + "." + name, sim_->now());
}

void SwitchRounds::traceFinish(const char* outcome, const std::string& failure,
                               Attributes attrs) {
  if (options_.tracer == nullptr) return;
  attrs.emplace_back("retries", std::to_string(retriesTotal_));
  if (!failure.empty()) attrs.emplace_back("failure", failure);
  span_.finish(outcome, sim_->now(), attrs);
}

}  // namespace sdt::controller
