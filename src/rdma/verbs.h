// IB-verbs-like type definitions for the simulated RDMA stack.
//
// The model implements Reliable Connected (RC) transport only, matching the
// paper (section 2.1): in-order delivery, end-to-end reliability, and both
// two-sided (send/recv) and one-sided (write) operations. NADINO posts no
// READ, so the model has none.

#ifndef SRC_RDMA_VERBS_H_
#define SRC_RDMA_VERBS_H_

#include <cstdint>
#include <vector>

#include "src/core/types.h"
#include "src/sim/time.h"
#include "src/mem/buffer.h"

namespace nadino {

enum class RdmaOpcode : uint8_t {
  kSend,      // Two-sided: consumes a posted receive buffer at the peer.
  kRecv,      // Completion of a posted receive.
  kWrite,     // One-sided: writes into a remote buffer, peer CPU oblivious.
};

enum class WrStatus : uint8_t {
  kSuccess,
  kRemoteAccessError,  // One-sided op against an unregistered / protected MR.
  kRnrRetryExceeded,   // Receiver never posted a buffer.
  kQpError,
  // The packet was lost in the NIC pipeline (injected kRnicTx/kRnicRx drop).
  // Unlike kRnrRetryExceeded this does NOT move the QP to the error state:
  // the WR completes with an error so the poster can recycle its buffer, and
  // the connection stays usable — RC's retransmission would normally mask
  // such a loss entirely; the error completion models retry exhaustion on
  // one WR without tearing the QP down.
  kTransportError,
};

// Access rights granted when registering a memory region, mirroring
// IBV_ACCESS_* flags.
enum MrAccess : uint8_t {
  kMrLocal = 0,
  kMrRemoteWrite = 1 << 0,
};

// A completion-queue entry.
struct Completion {
  uint64_t wr_id = 0;
  RdmaOpcode opcode = RdmaOpcode::kSend;
  WrStatus status = WrStatus::kSuccess;
  uint32_t byte_len = 0;
  QpNum qp = 0;
  TenantId tenant = kInvalidTenant;
  NodeId src_node = kInvalidNode;
  // For kRecv completions: the receive buffer the payload was DMAed into.
  Buffer* buffer = nullptr;
  // Immediate data carried by sends/writes (NADINO uses it for the
  // destination-function id so the RX stage can route descriptors).
  uint32_t imm = 0;
};

// A first-class work request: everything a data-path verb needs, decoupled
// from the call site that posts it. PostSend/PostWrite lower to one-WR
// requests (see RdmaEngine::PostWr), so the engine has a single
// posting path for both software callers and NIC-resident WR programs.
struct WorkRequest {
  RdmaOpcode opcode = RdmaOpcode::kSend;
  uint64_t wr_id = 0;
  // Immediate data (NADINO: destination-function id for RX routing).
  uint32_t imm = 0;
  // Unsignaled WRs surface no CQE to the software consumer; a WR program's
  // interior steps run unsignaled so the DPU/host cores never wake for them.
  bool signaled = true;
  // The scatter/gather element. The simulation's unit of registered memory is
  // the pool buffer, so one Buffer* stands in for the SGE list.
  const Buffer* src = nullptr;  // kSend / kWrite payload source.
  // One-sided target coordinates (kWrite).
  PoolId remote_pool = 0;
  uint32_t remote_index = 0;
};

// How a step of a WR program is armed, mirroring RedN's triggered-WR
// primitives: a step either fires when the previous step completes, or is
// CAS-gated on a header field of the message that woke the program.
enum class WrEdge : uint8_t {
  kTriggered,    // Fire on the prior step's completion (WAIT/ENABLE chain).
  kConditional,  // Fire only if the header's dst-function field == `match`.
};

struct WrProgramStep {
  WorkRequest wr;
  WrEdge edge = WrEdge::kTriggered;
  // kConditional: required value of the arrived header's destination-function
  // field. A mismatch aborts the program and falls back to software delivery.
  uint32_t match = 0;
  // Modeled RNIC execution time for this step beyond the per-edge trigger
  // cost — the duration of the triggered-WR sequence the step lowers to
  // (payload transform, checksum rewrite). Charged as NIC latency, never as
  // core occupancy.
  SimDuration dwell = 0;
};

// An ordered list of WRs with triggered/conditional edges, installed at a
// QP and executed by the RNIC without DPU/host involvement (RedN: "RDMA is
// Turing complete"). The interpreter lives in src/rdma/wr_program.{h,cc}.
struct WrProgram {
  uint64_t id = 0;
  ChainId chain = 0;
  TenantId tenant = kInvalidTenant;
  // The function hop this program services: a recv completion whose header
  // addresses this function wakes the program (its step-0 conditional edge).
  FunctionId hop = kInvalidFunction;
  std::vector<WrProgramStep> steps;
};

}  // namespace nadino

#endif  // SRC_RDMA_VERBS_H_
