#include "src/core/fault.h"

#include <cassert>
#include <string>

namespace nadino {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kLink:
      return "link";
    case FaultSite::kFabric:
      return "fabric";
    case FaultSite::kRnicTx:
      return "rnic_tx";
    case FaultSite::kRnicRx:
      return "rnic_rx";
    case FaultSite::kComch:
      return "comch";
    case FaultSite::kSocDma:
      return "soc_dma";
    case FaultSite::kTransport:
      return "transport";
    case FaultSite::kSkMsg:
      return "skmsg";
    case FaultSite::kDneTx:
      return "dne_tx";
    case FaultSite::kDneRx:
      return "dne_rx";
    case FaultSite::kWrProgTrigger:
      return "wrprog_trigger";
    case FaultSite::kWrProgCond:
      return "wrprog_cond";
  }
  return "?";
}

const char* FaultActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kPass:
      return "pass";
    case FaultAction::kDrop:
      return "drop";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kDuplicate:
      return "duplicate";
    case FaultAction::kCorrupt:
      return "corrupt";
  }
  return "?";
}

uint8_t FaultSiteSupportedActions(FaultSite site) {
  // The per-site matrix from DESIGN.md §3a. Wire-level sites can duplicate
  // (packets are value-copied and the receive paths are idempotent);
  // descriptor/buffer sites cannot (a duplicated descriptor would double-free
  // its buffer). Corruption requires a payload the site can hand over.
  switch (site) {
    case FaultSite::kLink:
    case FaultSite::kFabric:
      return kFaultCanDrop | kFaultCanDelay | kFaultCanDuplicate;
    case FaultSite::kRnicTx:
    case FaultSite::kRnicRx:
      return kFaultCanDrop | kFaultCanDelay | kFaultCanDuplicate | kFaultCanCorrupt;
    case FaultSite::kComch:
      return kFaultCanDrop | kFaultCanDelay | kFaultCanCorrupt;
    case FaultSite::kSocDma:
      return kFaultCanDrop | kFaultCanDelay | kFaultCanCorrupt;
    case FaultSite::kTransport:
    case FaultSite::kSkMsg:
      return kFaultCanDrop | kFaultCanDelay;
    case FaultSite::kDneTx:
    case FaultSite::kDneRx:
      return kFaultCanDrop | kFaultCanDelay | kFaultCanCorrupt;
    case FaultSite::kWrProgTrigger:
    case FaultSite::kWrProgCond:
      // Drop = stuck trigger / misfired branch: the program declines and the
      // message falls back to software delivery (conserved, counted). The
      // NIC never duplicates a program wake, and the header the conditional
      // reads is checksummed upstream — no duplicate/corrupt analogue.
      return kFaultCanDrop | kFaultCanDelay;
  }
  return 0;
}

namespace {

uint8_t ActionBit(FaultAction action) {
  switch (action) {
    case FaultAction::kDrop:
      return kFaultCanDrop;
    case FaultAction::kDelay:
      return kFaultCanDelay;
    case FaultAction::kDuplicate:
      return kFaultCanDuplicate;
    case FaultAction::kCorrupt:
      return kFaultCanCorrupt;
    case FaultAction::kPass:
      return 0;
  }
  return 0;
}

}  // namespace

FaultPlane::FaultPlane(Simulator* sim, MetricsRegistry* metrics, uint64_t seed)
    // Decorrelate from Env's workload stream: the plane consuming draws must
    // not mirror the arrival-process jitter of the same seed.
    : sim_(sim), metrics_(metrics), rng_(seed ^ 0xD1B54A32D192ED03ull) {}

int FaultPlane::Install(const FaultSpec& spec) {
  const uint8_t supported = FaultSiteSupportedActions(spec.site);
  if (spec.action == FaultAction::kPass || (supported & ActionBit(spec.action)) == 0) {
    return -1;
  }
  specs_.push_back(Armed{spec});
  ++armed_per_site_[static_cast<size_t>(spec.site)];
  return static_cast<int>(specs_.size()) - 1;
}

bool FaultPlane::Matches(const Armed& armed, FaultSite site, const FaultScope& scope,
                         SimTime now) const {
  const FaultSpec& spec = armed.spec;
  if (spec.site != site) {
    return false;
  }
  if (spec.max_injections != 0 && armed.injections >= spec.max_injections) {
    return false;
  }
  if (spec.tenant != kInvalidTenant && spec.tenant != scope.tenant) {
    return false;
  }
  if (spec.node != kInvalidNode && spec.node != scope.node) {
    return false;
  }
  if (spec.one_shot) {
    return !armed.fired && now >= spec.at;
  }
  if (now < spec.window_start) {
    return false;
  }
  if (spec.window_end != 0 && now >= spec.window_end) {
    return false;
  }
  return true;
}

void FaultPlane::CountInjection(Armed& armed, FaultSite site, const FaultScope& scope) {
  ++armed.injections;
  ++injected_total_;
  ++injected_by_site_[static_cast<size_t>(site)];

  // Key convention: site and kind live in the metric name (MetricLabels only
  // models tenant/node/engine); the scope of the crossing supplies the labels.
  MetricLabels labels;
  if (scope.tenant != kInvalidTenant) {
    labels.tenant = static_cast<int64_t>(scope.tenant);
  }
  if (scope.node != kInvalidNode) {
    labels.node = static_cast<int64_t>(scope.node);
  }
  std::string name = "fault_injected_";
  name += FaultSiteName(site);
  name += '_';
  name += FaultActionName(armed.spec.action);
  metrics_->Counter(name, labels).Increment();

  if (tracer_ != nullptr) {
    std::string label = FaultSiteName(site);
    label += '/';
    label += FaultActionName(armed.spec.action);
    const uint32_t actor = scope.node != kInvalidNode ? scope.node : 0;
    const uint64_t arg0 = scope.tenant != kInvalidTenant ? scope.tenant : 0;
    tracer_->Record(TraceCategory::kFault, actor, std::move(label), arg0, injected_total_);
  }
}

FaultDecision FaultPlane::Intercept(FaultSite site, const FaultScope& scope, std::byte* data,
                                    size_t len) {
  // Fast path — MUST not touch rng_ so an unfaulted run is bit-identical to
  // one where the plane does not exist at all.
  if (!ArmedAt(site)) {
    return {};
  }
  const SimTime now = sim_->now();
  for (Armed& armed : specs_) {
    if (!Matches(armed, site, scope, now)) {
      continue;
    }
    if (armed.spec.one_shot) {
      armed.fired = true;
    } else if (armed.spec.probability < 1.0 && !rng_.Chance(armed.spec.probability)) {
      continue;
    }
    if (armed.spec.action == FaultAction::kCorrupt) {
      if (data == nullptr || len == 0) {
        continue;  // Nothing to flip here; an honest plane does not count it.
      }
      const size_t offset = static_cast<size_t>(rng_.UniformInt(0, len - 1));
      const auto mask = static_cast<std::byte>(rng_.UniformInt(1, 255));
      data[offset] ^= mask;
    }
    CountInjection(armed, site, scope);
    return {armed.spec.action, armed.spec.delay};
  }
  return {};
}

}  // namespace nadino
