// Per-tenant SLO objects and retry policy.
//
// Section 4.2 argues the DPU data plane must enforce "workload-specific
// policies" per tenant. The MetricsRegistry already records per-tenant
// latency histograms and fault/drop counters; this module turns them into
// actionable state:
//
//   * SloObject — a tenant's latency targets (p50/p99) plus an error budget
//     over a rolling burn window. Latency samples land in the registry's
//     slo_latency{tenant} histogram (so one snapshot shows raw data AND
//     policy state); terminal errors and retries consume the window's budget.
//   * RetryPolicy — bounded re-transmission with per-attempt timeouts and
//     exponential backoff. The chain executor and the DNE TX path consult it
//     so a FaultPlane drop or a transport NACK becomes a timed re-send
//     instead of a terminal chain failure. The retry budget is capped by the
//     tenant's error budget: a tenant that has burned its window cannot
//     amplify load with further retries.
//   * SloRegistry — owned by Env next to the FaultPlane; one object per
//     registered tenant. The DWRR scheduler does not read it: tenants keep
//     the fixed weights they were attached with (paper section 3.3).
//
// Determinism contract (mirrors the FaultPlane): the registry draws backoff
// jitter from its OWN Rng, seeded from Env's seed, and draws NOTHING for
// unregistered tenants — a run with no SLOs registered is byte-identical to
// a run before this layer existed, and equal seed + equal SLO/retry config
// yields byte-identical metric snapshots.

#ifndef SRC_CORE_SLO_H_
#define SRC_CORE_SLO_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/core/types.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {

struct SloTarget {
  SimDuration p50_target = 1 * kMillisecond;
  SimDuration p99_target = 10 * kMillisecond;
  // Fraction of the window's requests that may fail (terminal errors) or be
  // retried before the budget is exhausted.
  double error_budget_fraction = 0.01;
  // Rolling window over which the budget is granted and burn rate measured.
  SimDuration burn_window = 1 * kSecond;
  // Budget floor per window: low-traffic tenants (a single chain invocation)
  // still get enough budget to ride out a fault burst.
  uint64_t min_budget_per_window = 16;
};

struct RetryPolicy {
  uint32_t max_attempts = 3;  // Total tries for one message, first included.
  // Per-attempt timeout armed as a simulator event by the chain executor;
  // 0 disables executor-level timeouts (DNE-level retry still applies).
  SimDuration timeout = 2 * kMillisecond;
  SimDuration backoff_base = 100 * kMicrosecond;
  double backoff_multiplier = 2.0;
  SimDuration backoff_cap = 10 * kMillisecond;
  // Backoff is scaled by a seeded uniform draw in [1-j, 1+j); 0 disables
  // jitter (and draws nothing, keeping the RNG stream untouched).
  double jitter_fraction = 0.1;

  // Backoff before attempt `attempt + 1`, given `attempt` tries have failed
  // (attempt >= 1). Deterministic for a given Rng state.
  SimDuration BackoffFor(uint32_t attempt, Rng& rng) const;
};

// Per-tenant SLO state. Created via SloRegistry::Register; all instruments
// live in the shared MetricsRegistry under slo_*{tenant} keys.
class SloObject {
 public:
  SloObject(Simulator* sim, MetricsRegistry* metrics, TenantId tenant, const SloTarget& target);

  SloObject(const SloObject&) = delete;
  SloObject& operator=(const SloObject&) = delete;

  TenantId tenant() const { return tenant_; }
  const SloTarget& target() const { return target_; }

  // A request entered the current window (grows the window's budget grant).
  void RecordRequest();

  // A request completed; feeds slo_latency{tenant} and counts a violation
  // when the sample exceeds the p99 target.
  void RecordLatency(SimDuration latency);

  // Terminal failure (retries exhausted, budget denied, pool exhausted):
  // consumes budget and counts slo_errors{tenant}.
  void RecordError();

  // Retry admission: consumes one unit of the window's error budget and
  // returns true, or returns false (counting slo_budget_exhausted{tenant})
  // when the window's grant is spent. Gate every re-send on this.
  bool TryConsumeRetryToken();

  // Budget units granted for the current window given its traffic so far.
  uint64_t BudgetAllowed() const;

  // consumed / allowed for the current window; >= 1.0 means exhausted.
  double BurnRate() const;

  uint64_t window_requests() const {
    return WindowIndex() == window_index_ ? window_requests_ : 0;
  }
  uint64_t window_consumed() const {
    return WindowIndex() == window_index_ ? window_consumed_ : 0;
  }

 private:
  int64_t WindowIndex() const;
  // Lazily rolls the window counters forward to the current window.
  void MaybeRoll();

  Simulator* sim_;
  TenantId tenant_;
  SloTarget target_;
  int64_t window_index_ = 0;
  uint64_t window_requests_ = 0;
  uint64_t window_consumed_ = 0;
  // Registry-backed instruments (labels: {tenant}), resolved once at
  // construction into raw-word handles (metrics.h).
  CounterHandle m_requests_;
  CounterHandle m_violations_;
  CounterHandle m_errors_;
  CounterHandle m_budget_consumed_;
  CounterHandle m_budget_exhausted_;
  HistogramHandle m_latency_;
};

// Owned by Env; one per experiment. Not thread-safe (neither is the sim).
class SloRegistry {
 public:
  SloRegistry(Simulator* sim, MetricsRegistry* metrics, uint64_t seed);

  SloRegistry(const SloRegistry&) = delete;
  SloRegistry& operator=(const SloRegistry&) = delete;

  // Creates (or returns) the tenant's SloObject and publishes its
  // slo_burn_rate{tenant} gauge callback.
  SloObject* Register(TenantId tenant, const SloTarget& target);

  // nullptr when the tenant never registered — callers treat that as
  // "no policy" and fall back to pre-SLO behaviour (and draw no RNG).
  SloObject* OfTenant(TenantId tenant);

  void SetRetryPolicy(TenantId tenant, const RetryPolicy& policy);
  // nullptr => no retries for this tenant (terminal failures as before).
  const RetryPolicy* RetryPolicyOf(TenantId tenant) const;

  bool empty() const { return objects_.empty() && retry_policies_.empty(); }

  // Shared stream for backoff jitter; separate from Env's workload Rng so
  // arming retries never perturbs workload synthesis.
  Rng& jitter_rng() { return rng_; }

 private:
  Simulator* sim_;
  MetricsRegistry* metrics_;
  Rng rng_;
  std::map<TenantId, std::unique_ptr<SloObject>> objects_;
  std::map<TenantId, RetryPolicy> retry_policies_;
};

}  // namespace nadino

#endif  // SRC_CORE_SLO_H_
