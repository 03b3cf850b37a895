// Function-chain (DAG) specification and the RPC executor layered on the
// unified I/O library (paper section 3.5: "we layer RPC semantics and
// DAG-style dataflows on top of the same primitives").
//
// A chain gives each participating function a behavior: a compute time, an
// ordered list of downstream calls (issued sequentially, RPC-style, as a
// Knative-like service mesh would), and a response payload size. The executor
// drives requests through the chain, reusing the arrived buffer for the next
// hop whenever it stays on-node (true zero-copy forwarding) and correlating
// responses to pending calls by request id carried in the message header.

#ifndef SRC_RUNTIME_CHAIN_H_
#define SRC_RUNTIME_CHAIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/mem/buffer.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/function.h"
#include "src/runtime/message_header.h"
#include "src/sim/flat_id_map.h"
#include "src/sim/simulator.h"

namespace nadino {

struct CallSpec {
  FunctionId callee = kInvalidFunction;
  uint32_t request_payload = 256;
};

struct FunctionBehavior {
  SimDuration compute = 0;
  std::vector<CallSpec> calls;  // Empty => leaf; else issued in order.
  uint32_t response_payload = 256;
};

struct ChainSpec {
  ChainId id = 0;
  TenantId tenant = 0;
  std::string name;
  FunctionId entry = kInvalidFunction;
  uint32_t entry_request_payload = 256;
  std::map<FunctionId, FunctionBehavior> behaviors;

  // Total function-to-function data exchanges (requests + responses) for one
  // invocation, excluding the client<->entry pair. The paper's evaluated
  // boutique chains each exceed 11 (section 4.3).
  size_t ExpectedExchanges() const;
};

class ChainExecutor {
 public:
  // Drives registered chains over `dataplane`. Responses that reach a
  // non-chain endpoint (ingress gateway, load generator) are NOT routed
  // through the executor — those endpoints own their handlers; per-hop
  // failures inside the chain surface through errors() and the retry/SLO
  // counters instead.
  ChainExecutor(Env& env, DataPlane* dataplane);

  void RegisterChain(const ChainSpec& spec);

  // Installs this executor as the function's message handler.
  void AttachFunction(FunctionRuntime* function);

  // Allocates a fresh correlation id for an externally injected request
  // (ingress / load generator).
  uint64_t NextRequestId() { return next_request_id_++; }

  // --- NIC offload (src/rdma/wr_program.h) ----------------------------------
  // Compiles `chain` into per-hop WR programs and installs them at each hop's
  // RNIC. Only *linear* segments lower: every behavior has at most one call
  // (no fan-out), every hop has exactly one placement, consecutive hops sit
  // on distinct nodes, the tenant has no RetryPolicy (executor-level retries
  // need software pending state), and the data plane exposes a
  // WrProgramEngine on every hop's node. Returns the number of hop programs
  // installed (0 = chain kept fully in software); `install_latency`, when
  // non-null, receives the summed control-plane installation cost. Offloaded
  // hops that decline at runtime (injected wrprog_* faults, QP errors) fall
  // back to this executor automatically.
  size_t OffloadChain(ChainId chain, SimDuration* install_latency = nullptr);

  uint64_t errors() const { return errors_; }
  uint64_t requests_handled() const { return requests_handled_; }

  // In-flight calls, for "never hung" chaos assertions: after a fault window
  // plus drained retries, this must be zero (every call terminated via a
  // response or a budget-exhausted error).
  size_t pending_calls() const { return pending_.size(); }

 private:
  struct PendingCall {
    ChainId chain = 0;
    TenantId tenant = kInvalidTenant;
    // The issuing runtime, retained so a timeout can re-issue the call from
    // a fresh pool buffer. Functions outlive the executor's pending calls
    // (both live for the whole experiment).
    FunctionRuntime* issuer = nullptr;
    FunctionId caller = kInvalidFunction;
    uint64_t parent_request = 0;
    FunctionId parent_src = kInvalidFunction;
    size_t call_index = 0;
    uint32_t attempt = 1;  // Bounded by the tenant's RetryPolicy.
  };

  void OnMessage(FunctionRuntime& fn, Buffer* buffer);
  void HandleRequest(FunctionRuntime& fn, Buffer* buffer, const MessageHeader& header);
  void HandleResponse(FunctionRuntime& fn, Buffer* buffer, const MessageHeader& header);

  // Issues behavior.calls[index] from `fn`, reusing `buffer`.
  void IssueCall(FunctionRuntime& fn, Buffer* buffer, const PendingCall& ctx);

  // Sends fn's response back to the original requester, reusing `buffer`.
  void Reply(FunctionRuntime& fn, Buffer* buffer, ChainId chain, uint64_t parent_request,
             FunctionId parent_src);

  const FunctionBehavior* BehaviorOf(ChainId chain, FunctionId fn) const;
  TenantId TenantOf(ChainId chain) const;

  void Fail(FunctionRuntime& fn, Buffer* buffer);

  // --- Retry recovery (src/core/slo.h) --------------------------------------
  // Arms the tenant's per-attempt timeout for an in-flight call; a no-op
  // when the tenant has no RetryPolicy (no event scheduled, no RNG drawn).
  void ArmTimeout(uint64_t call_id, TenantId tenant);
  // Fires at the deadline: if the call is still pending, marks the attempt
  // stale and either schedules a backed-off re-issue or fails terminally.
  void OnCallTimeout(uint64_t call_id);
  // Re-issues a timed-out call from a fresh pool buffer with a new
  // correlation id (a late original response is no longer pending, so it is
  // recycled quietly instead of counted as an error).
  void ReissueCall(PendingCall ctx);
  // Terminal failure of one attempt chain-side: counts the error and
  // consumes SLO budget.
  void FailAttempt(const PendingCall& ctx);

  // Per-tenant retry_* counter handles, resolved lazily on the tenant's first
  // retry event so runs without policies keep byte-identical snapshots
  // (bench goldens), then bumped through raw-word handles (metrics.h).
  struct RetryHandles {
    CounterHandle timeouts;
    CounterHandle exhausted;
    CounterHandle budget_denied;
    CounterHandle attempts;
    CounterHandle stale_responses;
  };
  RetryHandles& RetryHandlesFor(TenantId tenant);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  DataPlane* dataplane_;
  std::map<ChainId, ChainSpec> chains_;
  FlatIdMap<uint64_t, PendingCall> pending_;
  std::map<TenantId, RetryHandles> retry_handles_;
  uint64_t next_request_id_ = 1;
  uint64_t errors_ = 0;
  uint64_t requests_handled_ = 0;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_CHAIN_H_
