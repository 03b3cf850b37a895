#include "src/runtime/workload.h"

#include <algorithm>

namespace nadino {

ClosedLoopClients::ClosedLoopClients(Env& env, IngressGateway* gateway, const Options& options)
    : env_(&env), gateway_(gateway), options_(options) {}

void ClosedLoopClients::Start() {
  for (int i = 0; i < options_.num_clients; ++i) {
    AddClient();
  }
}

SimDuration ClosedLoopClients::StaggerDelay(uint32_t client_id) const {
  // The ramp cycles inside the window ON PURPOSE (an unbounded ramp would push
  // late clients arbitrarily far out), but wrapping must not re-synchronize:
  // the old `stagger * id % window` put client slots_per_window·k back onto
  // client 0's instant, recreating the burst the stagger exists to avoid.
  // Each lap through the window instead shifts by one nanosecond, so starts
  // stay distinct for the first slots·stagger clients (1M).
  constexpr uint32_t kSlots = static_cast<uint32_t>(kStaggerWindow / kStartStagger);
  const uint32_t lap = client_id / kSlots;
  return static_cast<SimDuration>(client_id % kSlots) * kStartStagger +
         static_cast<SimDuration>(lap % static_cast<uint64_t>(kStartStagger));
}

void ClosedLoopClients::AddClient() {
  const uint32_t client_id = static_cast<uint32_t>(next_client_++);
  issued_at_.push_back(0);
  sim().Schedule(StaggerDelay(client_id), [this, client_id]() { IssueRequest(client_id); });
}

void ClosedLoopClients::IssueRequest(uint32_t client_id) {
  if (stopped_) {
    return;
  }
  issued_at_[client_id] = sim().now();
  // Client-side wire: the request crosses the client<->ingress Ethernet. The
  // completion captures only {this, client_id}, which fits std::function's
  // local buffer; each client has one request out, so its issue time lives
  // in issued_at_.
  sim().Schedule(env_->cost().client_wire_one_way, [this, client_id]() {
    gateway_->SubmitRequest(client_id, options_.path, options_.payload_bytes,
                            [this, client_id]() {
                              latencies_.Record(sim().now() - issued_at_[client_id]);
                              rate_.RecordCompletion();
                              ++completed_;
                              if (stopped_) {
                                return;
                              }
                              IssueRequest(client_id);
                            });
  });
}

TenantEchoLoad::TenantEchoLoad(Env& env, DataPlane* dataplane, FunctionRuntime* client,
                               FunctionRuntime* server, const Options& options)
    : env_(&env), dataplane_(dataplane), client_(client), server_(server), options_(options) {
  client_->SetHandler(
      [this](FunctionRuntime& /*fn*/, Buffer* buffer) { OnClientMessage(buffer); });
  server_->SetHandler(
      [this](FunctionRuntime& fn, Buffer* buffer) { OnServerMessage(fn, buffer); });
}

void TenantEchoLoad::ScheduleActive(SimTime from, SimTime to) {
  if (to <= from) {
    // Empty window: a tenant whose lifetime ends before its setup gate opens
    // (e.g. eager connection prewarm outlasting a short-lived tenant) never
    // issues — otherwise the deactivation would fire first and the late
    // activation would run the load forever.
    return;
  }
  sim().ScheduleAt(from, [this]() { SetActive(true); });
  sim().ScheduleAt(to, [this]() { SetActive(false); });
}

void TenantEchoLoad::SetActive(bool active) {
  active_ = active;
  if (active_) {
    Fill();
  }
}

void TenantEchoLoad::Fill() {
  while (active_ && outstanding_ < options_.window) {
    if (!IssueOne()) {
      break;  // Backpressure: resume filling as completions come back.
    }
  }
}

bool TenantEchoLoad::IssueOne() {
  Buffer* buffer = client_->pool()->Get(client_->owner_id());
  if (buffer == nullptr) {
    return false;  // Pool backpressure: retry as completions come back.
  }
  MessageHeader header;
  header.chain = 0;
  header.src = client_->id();
  header.dst = server_->id();
  header.payload_length = options_.payload_bytes;
  header.request_id = next_request_++;
  if (!WriteMessage(buffer, header) || !dataplane_->Send(client_, buffer)) {
    client_->pool()->Put(buffer, client_->owner_id());
    return false;
  }
  issue_times_[header.request_id] = sim().now();
  pending_peak_ = std::max(pending_peak_, issue_times_.size());
  ++outstanding_;
  if (SloObject* slo = env_->slos().OfTenant(client_->tenant())) {
    slo->RecordRequest();
  }
  ArmReaper();
  return true;
}

void TenantEchoLoad::OnClientMessage(Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  const SimTime* issued_at =
      header.has_value() ? issue_times_.Find(header->request_id) : nullptr;
  if (issued_at == nullptr) {
    // Unparseable header (corruption) or a request id we no longer track (a
    // FaultPlane duplicate, or a response outliving its reaped request).
    // Counting it would drive outstanding_ negative and over-fill the window
    // on the next Fill(), so only the buffer is recycled.
    ++unmatched_responses_;
    client_->pool()->Put(buffer, client_->owner_id());
    return;
  }
  const SimDuration latency = sim().now() - *issued_at;
  latencies_.Record(latency);
  if (SloObject* slo = env_->slos().OfTenant(client_->tenant())) {
    slo->RecordLatency(latency);
  }
  issue_times_.Erase(header->request_id);
  // A matched echo response: recycle and keep the window full.
  client_->pool()->Put(buffer, client_->owner_id());
  --outstanding_;
  ++completed_;
  if (completed_ == 1 && on_first_response_) {
    on_first_response_();
  }
  rate_.RecordCompletion();
  Fill();
}

void TenantEchoLoad::OnServerMessage(FunctionRuntime& server, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    server.pool()->Put(buffer, server.owner_id());
    return;
  }
  MessageHeader reply;
  reply.chain = header->chain;
  reply.src = server.id();
  reply.dst = header->src;
  reply.payload_length = header->payload_length;
  reply.request_id = header->request_id;
  reply.flags = MessageHeader::kFlagResponse;
  if (!RewriteHeader(buffer, reply) || !dataplane_->Send(&server, buffer)) {
    server.pool()->Put(buffer, server.owner_id());
  }
}

void TenantEchoLoad::ArmReaper() {
  if (options_.pending_timeout <= 0 || reaper_armed_) {
    return;
  }
  reaper_armed_ = true;
  sim().Schedule(options_.pending_timeout, [this]() { ReapTick(); });
}

void TenantEchoLoad::ReapTick() {
  reaper_armed_ = false;
  const SimTime cutoff = sim().now() - options_.pending_timeout;
  // Ids below reap_cursor_ are no longer pending. Ids rise with issue time,
  // so the walk stops at the first pending request that is not yet due.
  for (; reap_cursor_ < next_request_; ++reap_cursor_) {
    const SimTime* issued_at = issue_times_.Find(reap_cursor_);
    if (issued_at == nullptr) {
      continue;  // Answered.
    }
    if (*issued_at > cutoff) {
      break;
    }
    // Permanently dropped ("counted not hung" at the injection site, retries
    // exhausted): the response will never arrive. Release the window slot and
    // forget the id — a zombie late response lands in unmatched_responses_.
    issue_times_.Erase(reap_cursor_);
    --outstanding_;
    ++reaped_;
  }
  Fill();
  if (active_ || !issue_times_.empty()) {
    reaper_armed_ = true;
    sim().Schedule(options_.pending_timeout, [this]() { ReapTick(); });
  }
}

void PeriodicSampler::Start() { Tick(); }

void PeriodicSampler::Tick() {
  if (stopped_) {
    return;
  }
  tick_event_ = sim().Schedule(period_, [this]() {
    for (RateMeter* meter : meters_) {
      meter->Roll(sim().now());
    }
    for (const SampleHook& hook : hooks_) {
      hook(sim().now());
    }
    Tick();
  });
}

void PeriodicSampler::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  sim().Cancel(tick_event_);
  tick_event_ = kInvalidEventId;
  // Flush the final partial window: without this, completions since the last
  // tick never reach the series (RateMeter::Roll's zero-width guard makes a
  // Stop() exactly on a tick boundary harmless).
  for (RateMeter* meter : meters_) {
    meter->Roll(sim().now());
  }
  for (const SampleHook& hook : hooks_) {
    hook(sim().now());
  }
}

}  // namespace nadino
