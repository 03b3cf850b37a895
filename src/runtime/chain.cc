#include "src/runtime/chain.h"

#include "src/rdma/wr_program.h"
#include "src/runtime/routing_table.h"

namespace nadino {

namespace {

size_t ExchangesFrom(const ChainSpec& spec, FunctionId fn) {
  const auto it = spec.behaviors.find(fn);
  if (it == spec.behaviors.end()) {
    return 0;
  }
  size_t total = 0;
  for (const CallSpec& call : it->second.calls) {
    total += 2;  // Request + response.
    total += ExchangesFrom(spec, call.callee);
  }
  return total;
}

}  // namespace

size_t ChainSpec::ExpectedExchanges() const { return ExchangesFrom(*this, entry); }

ChainExecutor::ChainExecutor(Env& env, DataPlane* dataplane)
    : env_(&env), dataplane_(dataplane) {}

void ChainExecutor::RegisterChain(const ChainSpec& spec) { chains_[spec.id] = spec; }

void ChainExecutor::AttachFunction(FunctionRuntime* function) {
  function->SetHandler(
      [this](FunctionRuntime& fn, Buffer* buffer) { OnMessage(fn, buffer); });
}

const FunctionBehavior* ChainExecutor::BehaviorOf(ChainId chain, FunctionId fn) const {
  const auto chain_it = chains_.find(chain);
  if (chain_it == chains_.end()) {
    return nullptr;
  }
  const auto fn_it = chain_it->second.behaviors.find(fn);
  return fn_it == chain_it->second.behaviors.end() ? nullptr : &fn_it->second;
}

TenantId ChainExecutor::TenantOf(ChainId chain) const {
  const auto it = chains_.find(chain);
  return it == chains_.end() ? kInvalidTenant : it->second.tenant;
}

void ChainExecutor::Fail(FunctionRuntime& fn, Buffer* buffer) {
  ++errors_;
  fn.pool()->Put(buffer, fn.owner_id());
}

void ChainExecutor::OnMessage(FunctionRuntime& fn, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value() || header->dst != fn.id()) {
    // Truncated, corrupted, or misrouted: the integrity checks failed.
    Fail(fn, buffer);
    return;
  }
  if (header->is_response()) {
    HandleResponse(fn, buffer, *header);
  } else {
    HandleRequest(fn, buffer, *header);
  }
}

void ChainExecutor::HandleRequest(FunctionRuntime& fn, Buffer* buffer,
                                  const MessageHeader& header) {
  const FunctionBehavior* behavior = BehaviorOf(header.chain, fn.id());
  if (behavior == nullptr) {
    Fail(fn, buffer);
    return;
  }
  // NIC-offload doorbell: requests that arrive via IPC (intra-node send, or
  // re-entry after a software fallback upstream) never produce the recv CQE
  // the installed WR program waits on, so ring it from here. A successful
  // Launch takes the buffer and runs the hop on the RNIC — including the
  // tenant's SLO request accounting — so this executor is done with it. A
  // decline (no program, injected wrprog_* fault, dead next hop) falls
  // through to the ordinary software hop below.
  if (WrProgramEngine* programs = dataplane_->wr_programs(fn.node()->id());
      programs != nullptr && programs->Launch(fn, buffer, header)) {
    return;
  }
  ++requests_handled_;
  if (SloObject* slo = env_->slos().OfTenant(TenantOf(header.chain))) {
    slo->RecordRequest();
  }
  // Execute the application logic on the function's dedicated core, then
  // either call the callees in turn or respond.
  fn.core()->Submit(behavior->compute, [this, &fn, buffer, header]() {
    const FunctionBehavior* b = BehaviorOf(header.chain, fn.id());
    if (b == nullptr) {
      Fail(fn, buffer);
      return;
    }
    if (b->calls.empty()) {
      Reply(fn, buffer, header.chain, header.request_id, header.src);
      return;
    }
    PendingCall ctx;
    ctx.chain = header.chain;
    ctx.tenant = TenantOf(header.chain);
    ctx.issuer = &fn;
    ctx.caller = fn.id();
    ctx.parent_request = header.request_id;
    ctx.parent_src = header.src;
    ctx.call_index = 0;
    IssueCall(fn, buffer, ctx);
  });
}

void ChainExecutor::IssueCall(FunctionRuntime& fn, Buffer* buffer, const PendingCall& ctx) {
  const auto chain_it = chains_.find(ctx.chain);
  const FunctionBehavior* behavior = BehaviorOf(ctx.chain, ctx.caller);
  if (chain_it == chains_.end() || behavior == nullptr ||
      ctx.call_index >= behavior->calls.size()) {
    Fail(fn, buffer);
    return;
  }
  const CallSpec& call = behavior->calls[ctx.call_index];
  const uint64_t call_id = next_request_id_++;
  pending_[call_id] = ctx;

  MessageHeader out;
  out.chain = ctx.chain;
  out.src = fn.id();
  out.dst = call.callee;
  out.payload_length = call.request_payload;
  out.request_id = call_id;
  // The call forwards the payload the caller received; only the header and
  // any bytes past the received length are written.
  if (!RewriteHeader(buffer, out)) {
    pending_.Erase(call_id);
    Fail(fn, buffer);
    return;
  }
  if (!dataplane_->Send(&fn, buffer)) {
    pending_.Erase(call_id);
    Fail(fn, buffer);
    return;
  }
  ArmTimeout(call_id, ctx.tenant);
}

void ChainExecutor::HandleResponse(FunctionRuntime& fn, Buffer* buffer,
                                   const MessageHeader& header) {
  const PendingCall* pending = pending_.Find(header.request_id);
  if (pending == nullptr || pending->caller != fn.id()) {
    if (pending == nullptr && header.request_id < next_request_id_) {
      // The answer to a call this executor issued and no longer waits on:
      // the attempt timed out and a retry (or its terminal failure)
      // superseded it, or the call completed and this is the callee's answer
      // to a second copy (a re-sent or duplicated WR). Recycle quietly —
      // counting it as an error would charge one call twice.
      RetryHandlesFor(TenantOf(header.chain)).stale_responses.Increment();
      fn.pool()->Put(buffer, fn.owner_id());
      return;
    }
    Fail(fn, buffer);
    return;
  }
  PendingCall ctx = *pending;
  pending_.Erase(header.request_id);
  const FunctionBehavior* behavior = BehaviorOf(ctx.chain, ctx.caller);
  if (behavior == nullptr) {
    Fail(fn, buffer);
    return;
  }
  ++ctx.call_index;
  ctx.attempt = 1;  // The next sequential call starts its own attempt count.
  if (ctx.call_index < behavior->calls.size()) {
    IssueCall(fn, buffer, ctx);
    return;
  }
  Reply(fn, buffer, ctx.chain, ctx.parent_request, ctx.parent_src);
}

void ChainExecutor::Reply(FunctionRuntime& fn, Buffer* buffer, ChainId chain,
                          uint64_t parent_request, FunctionId parent_src) {
  const FunctionBehavior* behavior = BehaviorOf(chain, fn.id());
  MessageHeader out;
  out.chain = chain;
  out.src = fn.id();
  out.dst = parent_src;
  out.payload_length = behavior == nullptr ? 0 : behavior->response_payload;
  out.request_id = parent_request;
  out.flags = MessageHeader::kFlagResponse;
  // Answer in the buffer that arrived.
  if (!RewriteHeader(buffer, out)) {
    Fail(fn, buffer);
    return;
  }
  if (!dataplane_->Send(&fn, buffer)) {
    Fail(fn, buffer);
  }
}

// ---------------------------------------------------------------------------
// Retry recovery (src/core/slo.h): per-attempt timeouts as simulator events,
// exponential backoff with seeded jitter, retry budget capped by the
// tenant's error budget. All retry_* metrics are created lazily so runs
// without policies keep byte-identical snapshots.
// ---------------------------------------------------------------------------

void ChainExecutor::ArmTimeout(uint64_t call_id, TenantId tenant) {
  const RetryPolicy* policy = env_->slos().RetryPolicyOf(tenant);
  if (policy == nullptr || policy->timeout <= 0) {
    return;
  }
  sim().Schedule(policy->timeout, [this, call_id]() { OnCallTimeout(call_id); });
}

void ChainExecutor::OnCallTimeout(uint64_t call_id) {
  PendingCall ctx;
  if (!pending_.Take(call_id, &ctx)) {
    return;  // Answered (or superseded) before the deadline.
  }
  RetryHandles& retry = RetryHandlesFor(ctx.tenant);
  retry.timeouts.Increment();
  env_->Trace(TraceCategory::kApp, ctx.caller, "call_timeout", call_id, ctx.attempt);
  const RetryPolicy* policy = env_->slos().RetryPolicyOf(ctx.tenant);
  SloObject* slo = env_->slos().OfTenant(ctx.tenant);
  if (policy == nullptr || ctx.attempt >= policy->max_attempts) {
    retry.exhausted.Increment();
    FailAttempt(ctx);
    return;
  }
  if (slo != nullptr && !slo->TryConsumeRetryToken()) {
    retry.budget_denied.Increment();
    FailAttempt(ctx);
    return;
  }
  const SimDuration backoff = policy->BackoffFor(ctx.attempt, env_->slos().jitter_rng());
  ctx.attempt += 1;
  retry.attempts.Increment();
  sim().Schedule(backoff, [this, ctx]() { ReissueCall(ctx); });
}

ChainExecutor::RetryHandles& ChainExecutor::RetryHandlesFor(TenantId tenant) {
  const auto it = retry_handles_.find(tenant);
  if (it != retry_handles_.end()) {
    return it->second;
  }
  const MetricLabels labels = MetricLabels::Tenant(static_cast<int64_t>(tenant));
  MetricsRegistry& reg = env_->metrics();
  RetryHandles handles;
  handles.timeouts = reg.ResolveCounter("retry_timeouts", labels);
  handles.exhausted = reg.ResolveCounter("retry_exhausted", labels);
  handles.budget_denied = reg.ResolveCounter("retry_budget_denied", labels);
  handles.attempts = reg.ResolveCounter("retry_attempts", labels);
  handles.stale_responses = reg.ResolveCounter("retry_stale_responses", labels);
  return retry_handles_.emplace(tenant, handles).first->second;
}

void ChainExecutor::ReissueCall(PendingCall ctx) {
  FunctionRuntime* fn = ctx.issuer;
  const FunctionBehavior* behavior = BehaviorOf(ctx.chain, ctx.caller);
  if (fn == nullptr || behavior == nullptr || ctx.call_index >= behavior->calls.size()) {
    FailAttempt(ctx);
    return;
  }
  const CallSpec& call = behavior->calls[ctx.call_index];
  Buffer* buffer = fn->pool()->Get(fn->owner_id());
  if (buffer == nullptr) {
    // Pool backpressure at retry time: treat as terminal rather than
    // queueing unboundedly against an exhausted pool.
    FailAttempt(ctx);
    return;
  }
  const uint64_t call_id = next_request_id_++;
  pending_[call_id] = ctx;
  MessageHeader out;
  out.chain = ctx.chain;
  out.src = ctx.caller;
  out.dst = call.callee;
  out.payload_length = call.request_payload;
  out.request_id = call_id;
  env_->Trace(TraceCategory::kApp, ctx.caller, "call_retry", call_id, ctx.attempt);
  if (!WriteMessage(buffer, out) || !dataplane_->Send(fn, buffer)) {
    pending_.Erase(call_id);
    fn->pool()->Put(buffer, fn->owner_id());
    FailAttempt(ctx);
    return;
  }
  ArmTimeout(call_id, ctx.tenant);
}

void ChainExecutor::FailAttempt(const PendingCall& ctx) {
  ++errors_;
  if (SloObject* slo = env_->slos().OfTenant(ctx.tenant)) {
    slo->RecordError();
  }
  env_->Trace(TraceCategory::kApp, ctx.caller, "call_failed", ctx.parent_request, ctx.attempt);
}

// ---------------------------------------------------------------------------
// NIC offload: the chain-to-WR-program compiler (src/rdma/wr_program.h).
// ---------------------------------------------------------------------------

size_t ChainExecutor::OffloadChain(ChainId chain, SimDuration* install_latency) {
  const auto chain_it = chains_.find(chain);
  RoutingTable* routing = dataplane_->routing();
  if (chain_it == chains_.end() || routing == nullptr) {
    return 0;
  }
  const ChainSpec& spec = chain_it->second;
  // Executor-level retries keep per-attempt state (pending calls, timeouts,
  // stale ids) that only exists in software; a tenant with a RetryPolicy
  // stays on the software path entirely.
  if (env_->slos().RetryPolicyOf(spec.tenant) != nullptr) {
    return 0;
  }
  // Walk the segment from the entry. Only linear shapes lower: a hop with
  // several calls needs software response correlation, which a triggered-WR
  // chain cannot express.
  std::vector<FunctionId> hops;
  FunctionId fn = spec.entry;
  while (fn != kInvalidFunction) {
    if (hops.size() >= 64) {
      return 0;  // Cycle (or absurd depth): not a chain we can pin on a NIC.
    }
    const auto behavior_it = spec.behaviors.find(fn);
    if (behavior_it == spec.behaviors.end() || behavior_it->second.calls.size() > 1) {
      return 0;
    }
    hops.push_back(fn);
    fn = behavior_it->second.calls.empty() ? kInvalidFunction
                                           : behavior_it->second.calls[0].callee;
  }
  // Placement eligibility: exactly one placement per hop (a replica set
  // would need the routing policy's per-message pick — software state), a
  // WrProgramEngine on every hop's node, and consecutive hops on distinct
  // nodes (an intra-node hop is an IPC delivery with no recv CQE to trigger
  // on, and a NIC cannot SEND to itself).
  std::vector<NodeId> nodes;
  for (const FunctionId hop : hops) {
    const std::vector<NodeId>* placements = routing->PlacementsOf(hop);
    if (placements == nullptr || placements->size() != 1) {
      return 0;
    }
    nodes.push_back(placements->front());
    if (dataplane_->wr_programs(nodes.back()) == nullptr) {
      return 0;
    }
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i] == nodes[i - 1]) {
      return 0;
    }
  }
  // Lower and install, all-or-nothing: a half-offloaded chain would work (the
  // correlation contract composes), but eligibility failures here are static
  // — better to report "kept in software" than silently split.
  SimDuration total_install = 0;
  size_t installed = 0;
  for (size_t i = 0; i < hops.size(); ++i) {
    WrProgramEngine* programs = dataplane_->wr_programs(nodes[i]);
    const FunctionBehavior& behavior = spec.behaviors.at(hops[i]);
    WrProgramEngine::HopSpec hop;
    hop.chain = chain;
    hop.tenant = spec.tenant;
    hop.hop = hops[i];
    hop.compute = behavior.compute;
    if (i + 1 < hops.size()) {
      hop.next_fn = hops[i + 1];
      hop.next_node = nodes[i + 1];
      hop.forward_payload = behavior.calls[0].request_payload;
    } else {
      // The final hop answers whoever issued into the offloaded segment. A
      // chain hop as requester means the segment was entered mid-chain (a
      // software fallback upstream): answer with the payload the hop AFTER it
      // would have replied with in software. Anyone else is an external
      // client, who sees the entry hop's response in the software execution.
      for (size_t j = 0; j + 1 < hops.size(); ++j) {
        hop.response_by_src[hops[j]] = spec.behaviors.at(hops[j + 1]).response_payload;
      }
      hop.response_payload = spec.behaviors.at(spec.entry).response_payload;
    }
    SimDuration hop_install = 0;
    if (!programs->Install(hop, &hop_install)) {
      for (size_t j = 0; j < installed; ++j) {
        dataplane_->wr_programs(nodes[j])->Uninstall(chain, hops[j]);
      }
      return 0;
    }
    total_install += hop_install;
    ++installed;
  }
  if (install_latency != nullptr) {
    *install_latency = total_install;
  }
  return installed;
}

}  // namespace nadino
