#include "src/dne/rate_limiter.h"

#include <algorithm>
#include <cmath>

namespace nadino {

TokenBucket::TokenBucket(double rate_bps, uint64_t burst_bytes)
    : rate_bps_(rate_bps), burst_bytes_(burst_bytes),
      tokens_(static_cast<double>(burst_bytes)) {}

double TokenBucket::AvailableTokens(SimTime now) const {
  const double refilled =
      tokens_ + rate_bps_ / 8.0 * ToSeconds(now - updated_at_);
  return std::min(refilled, static_cast<double>(burst_bytes_));
}

SimTime TokenBucket::ReserveSendTime(uint64_t bytes, SimTime now) {
  tokens_ = AvailableTokens(now);
  updated_at_ = now;
  tokens_ -= static_cast<double>(bytes);
  if (tokens_ >= 0.0) {
    return now;
  }
  // The deficit refills at rate_bps: the message may pass once it has. Ceil
  // the conversion to integer nanoseconds — truncating admitted messages up
  // to 1 ns before the refill, letting a long run at exact line rate creep
  // ahead of the configured rate. The token balance itself stays exact (the
  // fractional deficit carries to the next ReserveSendTime), so rounding up
  // here never double-charges a message.
  const double deficit_seconds = -tokens_ * 8.0 / rate_bps_;
  return now + static_cast<SimDuration>(std::ceil(deficit_seconds * static_cast<double>(kSecond)));
}

void TenantRateLimiter::SetRate(TenantId tenant, double rate_bps, uint64_t burst_bytes) {
  buckets_.erase(tenant);
  buckets_.emplace(tenant, TokenBucket(rate_bps, burst_bytes));
}

SimDuration TenantRateLimiter::AdmissionDelay(TenantId tenant, uint64_t bytes, SimTime now) {
  const auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    ++stats_.admitted;
    return 0;
  }
  const SimTime send_at = it->second.ReserveSendTime(bytes, now);
  if (send_at <= now) {
    ++stats_.admitted;
    return 0;
  }
  ++stats_.delayed;
  stats_.total_delay += send_at - now;
  return send_at - now;
}

}  // namespace nadino
