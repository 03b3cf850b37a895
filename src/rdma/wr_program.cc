#include "src/rdma/wr_program.h"

#include <utility>

#include "src/dne/network_engine.h"
#include "src/rdma/control_plane.h"

namespace nadino {

WrProgramEngine::WrProgramEngine(Env& env, Node* node, NetworkEngine* engine,
                                 RoutingTable* routing)
    : env_(&env), node_(node), engine_(engine), routing_(routing) {
  const MetricLabels labels = MetricLabels::Node(node_->id());
  m_installed_ = env_->metrics().ResolveCounter("wrprog_installs", labels);
  m_offloaded_ = env_->metrics().ResolveCounter("wrprog_offloaded", labels);
  m_responses_ = env_->metrics().ResolveCounter("wrprog_responses", labels);
  m_fallbacks_ = env_->metrics().ResolveCounter("wrprog_fallbacks", labels);
  m_send_errors_ = env_->metrics().ResolveCounter("wrprog_send_errors", labels);
  node_->rnic().cq().SetSteering([this](const Completion& cqe) { return Steer(cqe); });
}

WrProgramEngine::~WrProgramEngine() {
  node_->rnic().cq().SetSteering(nullptr);
  for (auto& [key, in] : installed_) {
    (void)key;
    if (in.qp != 0) {
      node_->rnic().qp_cache().Unpin(in.qp);
    }
  }
}

NodeId WrProgramEngine::node() const { return node_->id(); }

WrProgramEngine::Installed* WrProgramEngine::Find(ChainId chain, FunctionId hop) {
  const auto it = installed_.find(Key(chain, hop));
  return it == installed_.end() ? nullptr : &it->second;
}

const WrProgram* WrProgramEngine::ProgramFor(ChainId chain, FunctionId hop) const {
  const auto it = installed_.find(Key(chain, hop));
  return it == installed_.end() ? nullptr : &it->second.program;
}

bool WrProgramEngine::Install(const HopSpec& spec, SimDuration* install_latency) {
  Uninstall(spec.chain, spec.hop);  // Re-install replaces (and unpins) cleanly.

  const bool final_hop = spec.next_fn == kInvalidFunction;
  QpNum qp = 0;
  SimDuration control_cost = 0;
  if (!final_hop) {
    // The forward edge's QP is acquired at install time: a WR program's SEND
    // targets a *wired* QP, so a segment whose connection cannot be produced
    // now is simply ineligible for offload (the compiler keeps it in
    // software). Final hops resolve their egress at run time instead — the
    // requester can be any client function on any node.
    const ConnectionService::Acquired acquired =
        node_->connections().Acquire(spec.next_node, spec.tenant);
    if (acquired.qp == 0) {
      return false;
    }
    qp = acquired.qp;
    control_cost = acquired.control_cost;
    node_->rnic().qp_cache().Pin(qp);
  }

  Installed in;
  in.spec = spec;
  in.qp = qp;
  in.program.id = next_program_id_++;
  in.program.chain = spec.chain;
  in.program.tenant = spec.tenant;
  in.program.hop = spec.hop;
  // Step 0: the conditional WAIT — armed on the shared RQ, gated on the
  // arrived header's destination-function field matching this hop.
  WrProgramStep wait;
  wait.wr.opcode = RdmaOpcode::kRecv;
  wait.wr.signaled = false;
  wait.edge = WrEdge::kConditional;
  wait.match = spec.hop;
  in.program.steps.push_back(wait);
  // Step 1: the lowered payload transform (header rewrite + checksum), dwelled
  // for the hop's modeled compute.
  WrProgramStep transform;
  transform.wr.opcode = RdmaOpcode::kWrite;
  transform.wr.signaled = false;
  transform.edge = WrEdge::kTriggered;
  transform.dwell = spec.compute;
  in.program.steps.push_back(transform);
  // Step 2: the forward/response SEND. Unsignaled: the DPU worker must never
  // wake for an offloaded hop (OnCompletion charges core time per SEND CQE).
  WrProgramStep send;
  send.wr.opcode = RdmaOpcode::kSend;
  send.wr.signaled = false;
  send.wr.imm = final_hop ? 0 : spec.next_fn;
  send.edge = WrEdge::kTriggered;
  in.program.steps.push_back(send);

  installed_[Key(spec.chain, spec.hop)] = std::move(in);
  m_installed_.Increment();
  if (install_latency != nullptr) {
    // WQE writes + doorbell per step, plus any control-path cost of wiring
    // the egress QP.
    *install_latency =
        static_cast<SimDuration>(3) * env_->cost().wrprog_install_per_wr + control_cost;
  }
  return true;
}

void WrProgramEngine::Uninstall(ChainId chain, FunctionId hop) {
  const auto it = installed_.find(Key(chain, hop));
  if (it == installed_.end()) {
    return;
  }
  if (it->second.qp != 0) {
    node_->rnic().qp_cache().Unpin(it->second.qp);
  }
  installed_.erase(it);
}

bool WrProgramEngine::Admit(const Installed& in, const MessageHeader& header, NodeId* next_node,
                            QpNum* qp, SimDuration* extra) {
  const FaultScope scope{in.spec.tenant, node_->id()};
  // The recv completion waking the program: a stuck trigger never fires, so
  // the message stays on the software path (counted, never hung).
  const FaultDecision trigger = env_->faults().Intercept(FaultSite::kWrProgTrigger, scope);
  if (trigger.action == FaultAction::kDrop) {
    m_fallbacks_.Increment();
    return false;
  }
  *extra += trigger.delay;
  // The conditional edge matching the header: a misfired branch aborts the
  // program the same way.
  const FaultDecision cond = env_->faults().Intercept(FaultSite::kWrProgCond, scope);
  if (cond.action == FaultAction::kDrop) {
    m_fallbacks_.Increment();
    return false;
  }
  *extra += cond.delay;

  if (in.spec.next_fn == kInvalidFunction) {
    // Final hop: the response target is the incoming src, resolved now. A
    // requester on THIS node cannot be answered over the wire (the reply is
    // an IPC delivery) — decline so the software hop replies normally.
    const NodeId target = routing_ == nullptr ? kInvalidNode : routing_->NodeOf(header.src);
    if (target == kInvalidNode || target == node_->id()) {
      m_fallbacks_.Increment();
      return false;
    }
    const ConnectionService::Acquired acquired =
        node_->connections().Acquire(target, in.spec.tenant);
    if (acquired.qp == 0) {
      m_fallbacks_.Increment();
      return false;
    }
    *next_node = target;
    *qp = acquired.qp;
    *extra += acquired.control_cost;
    return true;
  }

  // Forward hop: the compile-time next node must be a placement of the next
  // function (Install accepts any spec), and the pinned QP must still be
  // usable.
  if (routing_ == nullptr || !routing_->HasPlacement(in.spec.next_fn, in.spec.next_node) ||
      in.qp == 0 || node_->rnic().InError(in.qp)) {
    m_fallbacks_.Increment();
    return false;
  }
  *next_node = in.spec.next_node;
  *qp = in.qp;
  return true;
}

bool WrProgramEngine::Steer(const Completion& cqe) {
  if (cqe.opcode != RdmaOpcode::kRecv || cqe.status != WrStatus::kSuccess ||
      cqe.buffer == nullptr) {
    return false;
  }
  const std::optional<MessageHeader> header = ReadMessage(*cqe.buffer);
  if (!header.has_value() || header->is_response()) {
    return false;
  }
  Installed* in = Find(header->chain, header->dst);
  if (in == nullptr || in->spec.tenant != cqe.tenant) {
    return false;
  }
  NodeId next_node = kInvalidNode;
  QpNum qp = 0;
  SimDuration extra = 0;
  if (!Admit(*in, *header, &next_node, &qp, &extra)) {
    return false;
  }
  // Commit: consume the RBR entry so the core thread's replenisher still
  // posts a matching receive buffer for this CQE, exactly as the software RX
  // stage would. The buffer stays RNIC-owned end to end — zero copies, zero
  // ownership hops.
  Buffer* buffer = engine_->rbr().Consume(cqe.wr_id, cqe.tenant);
  if (buffer == nullptr) {
    m_fallbacks_.Increment();
    return false;
  }
  BufferPool* pool = node_->tenants().PoolOfTenant(cqe.tenant);
  if (pool == nullptr) {
    m_fallbacks_.Increment();
    return false;
  }
  RunProgram(*in, buffer, pool, *header, qp, extra);
  return true;
}

bool WrProgramEngine::Launch(FunctionRuntime& fn, Buffer* buffer, const MessageHeader& header) {
  if (header.is_response()) {
    return false;
  }
  Installed* in = Find(header.chain, header.dst);
  if (in == nullptr || in->spec.tenant != fn.tenant()) {
    return false;
  }
  NodeId next_node = kInvalidNode;
  QpNum qp = 0;
  SimDuration extra = 0;
  if (!Admit(*in, header, &next_node, &qp, &extra)) {
    return false;
  }
  BufferPool* pool = fn.pool();
  if (pool == nullptr ||
      !pool->Transfer(buffer, fn.owner_id(), OwnerId::Rnic(node_->id()))) {
    m_fallbacks_.Increment();
    return false;
  }
  RunProgram(*in, buffer, pool, header, qp, extra);
  return true;
}

void WrProgramEngine::RunProgram(const Installed& in, Buffer* buffer, BufferPool* pool,
                                 MessageHeader header, QpNum qp, SimDuration extra) {
  m_offloaded_.Increment();
  // Request accounting parity with the software executor: every hop a request
  // traverses records against the tenant's SLO window, offloaded or not —
  // the equivalence property test pins this.
  SloObject* slo = env_->slos().OfTenant(in.spec.tenant);
  if (slo != nullptr) {
    slo->RecordRequest();
  }
  const CostModel& cost = env_->cost();
  const SimDuration service =
      cost.wrprog_trigger + cost.wrprog_cond + in.spec.compute + extra;
  // Capture the spec BY VALUE: an Uninstall (e.g. tenant departure) must not
  // dangle a program that already fired.
  const HopSpec spec = in.spec;
  env_->Trace(TraceCategory::kRdma, node_->id(), "wrprog_fire", spec.chain, header.request_id);
  sim().Schedule(service, [this, spec, buffer, pool, header, qp]() {
    const bool final_hop = spec.next_fn == kInvalidFunction;
    MessageHeader out;
    out.chain = header.chain;
    // Correlation contract: interior forwards preserve the incoming
    // (src, request_id) so the final hop answers whoever issued into the
    // offloaded segment — this is what makes mixed software/offloaded
    // composition automatic.
    out.request_id = header.request_id;
    if (final_hop) {
      out.src = spec.hop;
      out.dst = header.src;
      out.flags = MessageHeader::kFlagResponse;
      const auto it = spec.response_by_src.find(header.src);
      out.payload_length =
          it == spec.response_by_src.end() ? spec.response_payload : it->second;
    } else {
      out.src = header.src;
      out.dst = spec.next_fn;
      out.payload_length = spec.forward_payload;
    }
    // Zero-copy hop: forward the bytes that arrived under a rewritten header.
    if (!RewriteHeader(buffer, out)) {
      m_send_errors_.Increment();
      pool->Put(buffer, OwnerId::Rnic(node_->id()));
      return;
    }
    WorkRequest wr;
    wr.opcode = RdmaOpcode::kSend;
    wr.wr_id = next_wr_id_++;
    wr.imm = out.dst;
    wr.signaled = false;  // The engine's CQ consumers must never wake for us.
    wr.src = buffer;
    const NodeId home = node_->id();
    const bool posted = node_->rnic().PostWr(
        qp, wr, [this, buffer, pool, home](const Completion& done) {
          if (done.status != WrStatus::kSuccess) {
            m_send_errors_.Increment();
          }
          pool->Put(buffer, OwnerId::Rnic(home));
        });
    if (!posted) {
      // The QP died between admission and fire: the message is already
      // rewritten, so hand it to the engine's software TX path — slower, but
      // the request survives (counted as a fallback, never lost).
      m_fallbacks_.Increment();
      SoftwareForward(spec.tenant, buffer, pool);
      return;
    }
    if (final_hop) {
      m_responses_.Increment();
    }
  });
}

void WrProgramEngine::SoftwareForward(TenantId tenant, Buffer* buffer, BufferPool* pool) {
  if (engine_ == nullptr ||
      !pool->Transfer(buffer, OwnerId::Rnic(node_->id()), engine_->owner_id())) {
    m_send_errors_.Increment();
    pool->Put(buffer, OwnerId::Rnic(node_->id()));
    return;
  }
  if (!engine_->SendFromEngine(tenant, buffer)) {
    m_send_errors_.Increment();
    pool->Put(buffer, engine_->owner_id());
  }
}

}  // namespace nadino
