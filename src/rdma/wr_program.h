// NIC-resident WR-program interpreter (RedN-style offloaded chain dispatch).
//
// A WrProgramEngine sits between a node's RNIC completion queue and its
// network engine: linear chain hops compiled by ChainExecutor::OffloadChain
// are installed here as WR programs (verbs.h), and arriving chain requests
// that match an installed program are consumed *at the CQ* — the steering
// hook fires in NIC context, the hop's forwarding decision and payload
// transform execute as triggered/conditional WRs in the cost model
// (wrprog_trigger / wrprog_cond / the lowered compute dwell), and the next
// hop's SEND posts on a pre-established, ICM-pinned QP. No DPU or host core
// is occupied for an offloaded hop; that is the entire point.
//
// Fallback contract (DESIGN.md §3i): any reason a program cannot run a
// message — an injected wrprog_* drop, a re-placed next hop, a QP in the
// error state, a response target on the local node — declines the
// message *before* consuming it, so the ordinary software path (DNE RX →
// IPC → ChainExecutor) delivers it instead. Counted, never lost, never hung.
// Because every forward preserves the incoming (src, request_id), a segment
// can drop to software at any hop and the per-tenant served/error counts
// still match the pure-software execution — the equivalence property
// tests/chain_offload_equivalence_test.cc pins.

#ifndef SRC_RDMA_WR_PROGRAM_H_
#define SRC_RDMA_WR_PROGRAM_H_

#include <cstdint>
#include <map>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/runtime/message_header.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/rdma/verbs.h"

namespace nadino {

class FunctionRuntime;
class NetworkEngine;

class WrProgramEngine {
 public:
  // One hop of a lowered linear chain segment, as compiled by
  // ChainExecutor::OffloadChain.
  struct HopSpec {
    ChainId chain = 0;
    TenantId tenant = kInvalidTenant;
    FunctionId hop = kInvalidFunction;  // The function this program services.
    // The hop's application compute, lowered to a triggered-WR sequence of
    // equal modeled duration (RedN's Turing-completeness result); charged as
    // NIC latency, not core time. Hops whose compute cannot lower (fan-out,
    // data-dependent branching) are rejected by the compiler instead.
    SimDuration compute = 0;
    // Forward edge: the next hop, fixed at compile time. kInvalidFunction
    // marks the final hop, whose program responds to the incoming header's
    // src (resolved at runtime — the requester may be any client function).
    FunctionId next_fn = kInvalidFunction;
    NodeId next_node = kInvalidNode;
    uint32_t forward_payload = 0;  // Request bytes toward next_fn.
    // Final hop: response payload toward the original requester. Keyed by the
    // upstream src so a segment entered mid-chain (software fallback upstream)
    // answers with exactly the bytes that hop would have produced in
    // software; `response_payload` covers external (non-chain) requesters.
    uint32_t response_payload = 0;
    std::map<FunctionId, uint32_t> response_by_src;
  };

  // Installs the CQ steering hook on the node's RNIC. One engine per node.
  WrProgramEngine(Env& env, Node* node, NetworkEngine* engine, RoutingTable* routing);
  ~WrProgramEngine();

  WrProgramEngine(const WrProgramEngine&) = delete;
  WrProgramEngine& operator=(const WrProgramEngine&) = delete;

  // Lowers `spec` into a three-step WR program (conditional WAIT on the recv,
  // triggered transform dwell, triggered SEND), acquires + pins the egress QP
  // for forward hops, and arms the steering match. Returns false — nothing
  // installed — when the egress QP cannot be acquired now (the compiler
  // treats the segment as ineligible). `install_latency`, when non-null,
  // receives the modeled control-plane cost (WQE writes + doorbell).
  bool Install(const HopSpec& spec, SimDuration* install_latency = nullptr);

  void Uninstall(ChainId chain, FunctionId hop);

  // The compiled program for (chain, hop), or nullptr.
  const WrProgram* ProgramFor(ChainId chain, FunctionId hop) const;

  // Software-entry doorbell: runs the hop program for a request that arrived
  // via IPC rather than the wire (intra-node send, or a software fallback
  // upstream). Takes `buffer` from the function's ownership on success;
  // returns false — buffer untouched, caller proceeds in software — when no
  // program matches or runtime admission declines.
  bool Launch(FunctionRuntime& fn, Buffer* buffer, const MessageHeader& header);

  NodeId node() const;

 private:
  struct Installed {
    HopSpec spec;
    WrProgram program;
    QpNum qp = 0;  // Pinned egress QP (forward hops only).
  };

  static uint64_t Key(ChainId chain, FunctionId hop) {
    return (static_cast<uint64_t>(chain) << 32) | hop;
  }

  Installed* Find(ChainId chain, FunctionId hop);

  // The CompletionQueue steering hook: true = consumed by a program.
  bool Steer(const Completion& cqe);

  // Runtime admission: wrprog_* fault interception, next-hop placement, QP
  // usability, response-target resolution. False = decline (fallback
  // counted); on success fills the egress coordinates and any fault-injected
  // extra latency.
  bool Admit(const Installed& in, const MessageHeader& header, NodeId* next_node, QpNum* qp,
             SimDuration* extra);

  // The committed hop execution: charges the NIC-side service latency, then
  // rewrites the header and posts the unsignaled SEND. `buffer` is
  // RNIC-owned from here until the send completion recycles it.
  void RunProgram(const Installed& in, Buffer* buffer, BufferPool* pool, MessageHeader header,
                  QpNum qp, SimDuration extra);

  // A program SEND that could not post (QP died between admission and fire):
  // hand the already-rewritten message to the engine's software TX path so
  // the request survives.
  void SoftwareForward(TenantId tenant, Buffer* buffer, BufferPool* pool);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Node* node_;
  NetworkEngine* engine_;
  RoutingTable* routing_;
  std::map<uint64_t, Installed> installed_;
  uint64_t next_program_id_ = 1;
  // Program WRs live in their own id space so they can never collide with
  // the network engine's wr_ids inside the RNIC's pending-ACK table (the
  // engine and the programs share the tenant's pooled QPs).
  uint64_t next_wr_id_ = (1ULL << 62) + 1;
  // Registry-backed wrprog_* counters (labels: node). Resolved at
  // construction — a WrProgramEngine only exists when offload is enabled, so
  // default runs keep byte-identical metric snapshots.
  CounterHandle m_installed_;    // Install() calls that armed a program.
  CounterHandle m_offloaded_;    // Messages consumed and forwarded on-NIC.
  CounterHandle m_responses_;    // Final-hop responses issued on-NIC.
  CounterHandle m_fallbacks_;    // Messages declined to the software path.
  CounterHandle m_send_errors_;  // Program SENDs that completed with error.
};

}  // namespace nadino

#endif  // SRC_RDMA_WR_PROGRAM_H_
