#include "src/core/slo.h"

#include <algorithm>
#include <cmath>

namespace nadino {

SimDuration RetryPolicy::BackoffFor(uint32_t attempt, Rng& rng) const {
  if (attempt == 0) {
    attempt = 1;
  }
  double delay = static_cast<double>(backoff_base);
  for (uint32_t i = 1; i < attempt; ++i) {
    delay *= backoff_multiplier;
    if (delay >= static_cast<double>(backoff_cap)) {
      break;
    }
  }
  delay = std::min(delay, static_cast<double>(backoff_cap));
  if (jitter_fraction > 0.0) {
    delay *= rng.Uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
  }
  return std::max<SimDuration>(1, static_cast<SimDuration>(delay));
}

// ---------------------------------------------------------------------------
// SloObject
// ---------------------------------------------------------------------------

SloObject::SloObject(Simulator* sim, MetricsRegistry* metrics, TenantId tenant,
                     const SloTarget& target)
    : sim_(sim), tenant_(tenant), target_(target) {
  const MetricLabels labels = MetricLabels::Tenant(static_cast<int64_t>(tenant));
  m_requests_ = metrics->ResolveCounter("slo_requests", labels);
  m_violations_ = metrics->ResolveCounter("slo_violations", labels);
  m_errors_ = metrics->ResolveCounter("slo_errors", labels);
  m_budget_consumed_ = metrics->ResolveCounter("slo_error_budget_consumed", labels);
  m_budget_exhausted_ = metrics->ResolveCounter("slo_budget_exhausted", labels);
  m_latency_ = metrics->ResolveHistogram("slo_latency", labels);
}

int64_t SloObject::WindowIndex() const {
  return target_.burn_window <= 0 ? 0 : sim_->now() / target_.burn_window;
}

void SloObject::MaybeRoll() {
  const int64_t index = WindowIndex();
  if (index != window_index_) {
    window_index_ = index;
    window_requests_ = 0;
    window_consumed_ = 0;
  }
}

void SloObject::RecordRequest() {
  MaybeRoll();
  ++window_requests_;
  m_requests_.Increment();
}

void SloObject::RecordLatency(SimDuration latency) {
  MaybeRoll();
  m_latency_.Record(latency);
  if (latency > target_.p99_target) {
    m_violations_.Increment();
  }
}

void SloObject::RecordError() {
  MaybeRoll();
  ++window_consumed_;
  m_errors_.Increment();
  m_budget_consumed_.Increment();
}

uint64_t SloObject::BudgetAllowed() const {
  const uint64_t requests = WindowIndex() == window_index_ ? window_requests_ : 0;
  const uint64_t earned = static_cast<uint64_t>(
      std::ceil(static_cast<double>(requests) * target_.error_budget_fraction));
  return std::max(earned, target_.min_budget_per_window);
}

bool SloObject::TryConsumeRetryToken() {
  MaybeRoll();
  if (window_consumed_ >= BudgetAllowed()) {
    m_budget_exhausted_.Increment();
    return false;
  }
  ++window_consumed_;
  m_budget_consumed_.Increment();
  return true;
}

double SloObject::BurnRate() const {
  const uint64_t allowed = BudgetAllowed();
  if (allowed == 0) {
    return 0.0;
  }
  const uint64_t consumed = WindowIndex() == window_index_ ? window_consumed_ : 0;
  return static_cast<double>(consumed) / static_cast<double>(allowed);
}

// ---------------------------------------------------------------------------
// SloRegistry
// ---------------------------------------------------------------------------

namespace {
// Decorrelates the jitter stream from both the workload Rng and the
// FaultPlane Rng, which are seeded from the same Env seed.
constexpr uint64_t kSloSeedSalt = 0x510b0b5e'd15ea5edull;
}  // namespace

SloRegistry::SloRegistry(Simulator* sim, MetricsRegistry* metrics, uint64_t seed)
    : sim_(sim), metrics_(metrics), rng_(seed ^ kSloSeedSalt) {}

SloObject* SloRegistry::Register(TenantId tenant, const SloTarget& target) {
  auto it = objects_.find(tenant);
  if (it != objects_.end()) {
    return it->second.get();
  }
  auto object = std::make_unique<SloObject>(sim_, metrics_, tenant, target);
  SloObject* raw = object.get();
  objects_[tenant] = std::move(object);
  metrics_->RegisterGaugeCallback("slo_burn_rate",
                                  MetricLabels::Tenant(static_cast<int64_t>(tenant)),
                                  [raw] { return raw->BurnRate(); });
  return raw;
}

SloObject* SloRegistry::OfTenant(TenantId tenant) {
  const auto it = objects_.find(tenant);
  return it == objects_.end() ? nullptr : it->second.get();
}

void SloRegistry::SetRetryPolicy(TenantId tenant, const RetryPolicy& policy) {
  retry_policies_[tenant] = policy;
}

const RetryPolicy* SloRegistry::RetryPolicyOf(TenantId tenant) const {
  const auto it = retry_policies_.find(tenant);
  return it == retry_policies_.end() ? nullptr : &it->second;
}

}  // namespace nadino
