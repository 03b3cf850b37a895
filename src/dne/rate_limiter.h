// Per-tenant traffic policies beyond weighted fairness.
//
// Section 4.2: "since NADINO supports multi-tenancy via a userspace software
// solution, it is easy for users to apply workload-specific optimizations by
// customizing policies in DNE". This module supplies token-bucket rate
// limiting: cap a tenant's RNIC bandwidth regardless of contention (shaping
// applied at engine admission, ahead of the DWRR scheduler).

#ifndef SRC_DNE_RATE_LIMITER_H_
#define SRC_DNE_RATE_LIMITER_H_

#include <cstdint>
#include <map>

#include "src/core/types.h"
#include "src/sim/time.h"

namespace nadino {

// Classic token bucket over virtual time. Tokens are bytes.
class TokenBucket {
 public:
  // `rate_bps` in bits/second; `burst_bytes` is the bucket depth.
  TokenBucket(double rate_bps, uint64_t burst_bytes);

  // Earliest virtual time at which `bytes` may pass, reserving the tokens.
  // Returns `now` when the bucket already holds enough.
  SimTime ReserveSendTime(uint64_t bytes, SimTime now);

  // Tokens currently available at `now` (no reservation).
  double AvailableTokens(SimTime now) const;

  double rate_bps() const { return rate_bps_; }
  uint64_t burst_bytes() const { return burst_bytes_; }

 private:
  double rate_bps_;
  uint64_t burst_bytes_;
  // Token level is tracked lazily: `tokens_` as of `updated_at_`. Reservations
  // may drive the level negative; the deficit maps to a future send time.
  double tokens_;
  SimTime updated_at_ = 0;
};

// Per-tenant shaping table used by the network engine's admission path.
class TenantRateLimiter {
 public:
  struct Stats {
    uint64_t admitted = 0;
    uint64_t delayed = 0;
    SimDuration total_delay = 0;
  };

  // No entry => tenant is unshaped.
  void SetRate(TenantId tenant, double rate_bps, uint64_t burst_bytes);
  bool IsShaped(TenantId tenant) const { return buckets_.count(tenant) > 0; }

  // Delay (possibly zero) to impose on a `bytes`-sized message of `tenant`
  // admitted at `now`. Reserves the tokens.
  SimDuration AdmissionDelay(TenantId tenant, uint64_t bytes, SimTime now);

  const Stats& stats() const { return stats_; }

 private:
  std::map<TenantId, TokenBucket> buckets_;
  Stats stats_;
};

}  // namespace nadino

#endif  // SRC_DNE_RATE_LIMITER_H_
