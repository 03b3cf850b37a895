// Load generation: a wrk-like closed-loop client fleet driving the ingress
// gateway (sections 4.1.3, 4.3) and per-tenant echo loads for the RDMA
// multi-tenancy experiments (sections 4.2, Appendix A). The open-loop
// counterpart (aggregated arrival processes, DESIGN.md §3g) lives in
// src/runtime/openloop.h.

#ifndef SRC_RUNTIME_WORKLOAD_H_
#define SRC_RUNTIME_WORKLOAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/ingress/gateway.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/function.h"
#include "src/runtime/message_header.h"
#include "src/sim/flat_id_map.h"
#include "src/sim/stats.h"

namespace nadino {

// N concurrent clients, each keeping exactly one request outstanding against
// the ingress (wrk's closed-loop behaviour with one connection per client).
class ClosedLoopClients {
 public:
  struct Options {
    int num_clients = 1;
    std::string path = "/echo";
    uint32_t payload_bytes = 256;
  };

  // Client start times are staggered to avoid a synchronized burst at t=0.
  // Starts cycle inside kStaggerWindow: client N lands kStartStagger after
  // client N-1 until the window fills, then the ramp wraps to the top of the
  // window with a per-lap phase shift so no two clients (of the first
  // kStaggerWindow-nanoseconds' worth) share a start instant.
  static constexpr SimDuration kStartStagger = 10 * kMicrosecond;
  static constexpr SimDuration kStaggerWindow = 1 * kMillisecond;

  ClosedLoopClients(Env& env, IngressGateway* gateway, const Options& options);

  void Start();

  // Adds one more client immediately (Fig. 14's +1 client / 10 s ramp).
  void AddClient();

  // Start delay for client `client_id` relative to the AddClient instant.
  // Exposed for the ramp regression test: delays are distinct for the first
  // (kStaggerWindow / kStartStagger) * kStartStagger clients and always fall
  // inside [0, kStaggerWindow).
  SimDuration StaggerDelay(uint32_t client_id) const;

  // Stops issuing new requests (in-flight ones complete).
  void Stop() { stopped_ = true; }

  const LatencyHistogram& latencies() const { return latencies_; }
  LatencyHistogram& mutable_latencies() { return latencies_; }
  RateMeter& rate() { return rate_; }
  uint64_t completed() const { return completed_; }
  int num_clients() const { return next_client_; }

 private:
  void IssueRequest(uint32_t client_id);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  IngressGateway* gateway_;
  Options options_;
  bool stopped_ = false;
  int next_client_ = 0;
  uint64_t completed_ = 0;
  std::vector<SimTime> issued_at_;  // Per client: its outstanding request's issue time.
  LatencyHistogram latencies_;
  RateMeter rate_;
};

// A client/server echo pair for one tenant, placed on two nodes, driving
// inter-node transfers through the network engine. Closed loop with a
// configurable window of outstanding requests; activation windows reproduce
// the staggered tenant arrivals of Figs. 15/17.
//
// Accounting contract (the FaultPlane makes all of these reachable):
//  - Only responses matching an issued-and-still-pending request id are
//    counted: a FaultPlane-duplicated response, a response outliving its
//    reaped request, or a corrupted/unparseable header recycles the buffer
//    without touching outstanding_/completed_/rate (they are tallied in
//    unmatched_responses() instead).
//  - With Options::pending_timeout set, permanently lost requests ("counted
//    not hung" drops whose response will never arrive) are reaped: the
//    pending entry is erased, the window slot is released, and reaped() is
//    incremented — so pending_requests() stays bounded by the window no
//    matter how long a chaos run goes.
class TenantEchoLoad {
 public:
  struct Options {
    uint32_t payload_bytes = 256;
    int window = 64;  // Outstanding requests while active.
    // When > 0, a pending request unanswered for this long is considered
    // permanently dropped (retries exhausted) and reaped. 0 disables the
    // reaper; fault-free runs are byte-identical either way.
    SimDuration pending_timeout = 0;
  };

  TenantEchoLoad(Env& env, DataPlane* dataplane, FunctionRuntime* client,
                 FunctionRuntime* server, const Options& options);

  // Activates at `from` and deactivates at `to` (virtual time).
  void ScheduleActive(SimTime from, SimTime to);
  void SetActive(bool active);
  bool active() const { return active_; }

  // Fires once, when the tenant's first echo response completes. The churn
  // harness uses it to measure time-to-first-byte for a cold tenant.
  void SetOnFirstResponse(std::function<void()> hook) { on_first_response_ = std::move(hook); }

  RateMeter& rate() { return rate_; }
  uint64_t completed() const { return completed_; }
  TenantId tenant() const { return client_->tenant(); }
  const LatencyHistogram& latencies() const { return latencies_; }
  LatencyHistogram& mutable_latencies() { return latencies_; }

  // Accounting introspection (chaos-test assertions).
  int outstanding() const { return outstanding_; }
  size_t pending_requests() const { return issue_times_.size(); }
  size_t pending_peak() const { return pending_peak_; }
  uint64_t reaped() const { return reaped_; }
  uint64_t unmatched_responses() const { return unmatched_responses_; }

 private:
  void Fill();
  // Issues one request; false when the pool backpressures (retry on the next
  // completion) or the send fails.
  bool IssueOne();
  void OnClientMessage(Buffer* buffer);
  void OnServerMessage(FunctionRuntime& server, Buffer* buffer);
  // Periodic sweep dropping pending entries older than pending_timeout. Arms
  // lazily (first issue) and disarms when the load is inactive with nothing
  // pending, so finite runs still drain the event queue.
  void ArmReaper();
  void ReapTick();

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  DataPlane* dataplane_;
  FunctionRuntime* client_;
  FunctionRuntime* server_;
  Options options_;
  bool active_ = false;
  bool reaper_armed_ = false;
  int outstanding_ = 0;
  uint64_t completed_ = 0;
  uint64_t next_request_ = 1;
  uint64_t reap_cursor_ = 1;  // Every id below it is answered or reaped.
  uint64_t reaped_ = 0;
  uint64_t unmatched_responses_ = 0;
  size_t pending_peak_ = 0;
  RateMeter rate_;
  LatencyHistogram latencies_;
  // request id -> issue time. Ids are issued in increasing order, so id
  // order is also issue-time order and the reaper walks ids upward.
  FlatIdMap<uint64_t, SimTime> issue_times_;
  std::function<void()> on_first_response_;
};

// Samples a set of RateMeters (and optionally utilizations) once per window,
// building the time series behind Figs. 14/15/17. Stop() flushes the final
// partial window (meters roll, hooks fire once more at the stop instant),
// so a series never silently loses its tail; the pending tick then fires as
// a no-op.
class PeriodicSampler {
 public:
  using SampleHook = std::function<void(SimTime)>;

  PeriodicSampler(Env& env, SimDuration period) : env_(&env), period_(period) {}

  void AddRate(RateMeter* meter) { meters_.push_back(meter); }
  void AddHook(SampleHook hook) { hooks_.push_back(std::move(hook)); }

  void Start();
  void Stop();

 private:
  void Tick();

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  SimDuration period_;
  bool stopped_ = false;
  std::vector<RateMeter*> meters_;
  std::vector<SampleHook> hooks_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_WORKLOAD_H_
