// The unified I/O library interface (paper section 3.5): functions call
// Send() with an addressed buffer; the data plane decides intra-node
// (shared-memory IPC) vs inter-node (RDMA / TCP / ...) transparently.
//
// NADINO and every baseline system implement this interface, so the same
// application code (chain executor, Online Boutique, generators) runs
// unchanged over any of them — the apples-to-apples structure of section 4.3.

#ifndef SRC_RUNTIME_DATAPLANE_H_
#define SRC_RUNTIME_DATAPLANE_H_

#include <cstdint>
#include <string>

#include "src/core/env.h"
#include "src/mem/buffer.h"
#include "src/runtime/function.h"

namespace nadino {

class RoutingTable;
class WrProgramEngine;

class DataPlane {
 public:
  explicit DataPlane(Env& env)
      : env_(&env),
        m_sends_(env.metrics().ResolveCounter("dataplane_sends")),
        m_intra_node_(env.metrics().ResolveCounter("dataplane_intra_node")),
        m_inter_node_(env.metrics().ResolveCounter("dataplane_inter_node")),
        m_drops_(env.metrics().ResolveCounter("dataplane_drops")),
        m_payload_copies_(env.metrics().ResolveCounter("dataplane_payload_copies")) {}

  virtual ~DataPlane() = default;

  // Registers a function and wires up its delivery path (Comch endpoint,
  // SK_MSG socket, TCP port... depending on the implementation).
  virtual void RegisterFunction(FunctionRuntime* function) = 0;

  // Sends `buffer` (owned by `src`) to the function named in the message
  // header. Returns false when the message is unroutable or malformed; the
  // buffer then stays with the caller.
  virtual bool Send(FunctionRuntime* src, Buffer* buffer) = 0;

  virtual std::string name() const = 0;

  // The cluster routing table this plane resolves destinations against, or
  // nullptr for planes with fixed wiring. The chain compiler
  // (ChainExecutor::OffloadChain) reads each hop's placement from it.
  virtual RoutingTable* routing() { return nullptr; }

  // The WR-program interpreter installed at `node`'s RNIC (NIC-offloaded
  // chain dispatch, src/rdma/wr_program.h), or nullptr when the plane does
  // not offload (all planes except NADINO with Options::offload_chains set).
  // The chain compiler (ChainExecutor::OffloadChain) and the per-hop launch
  // path consult this.
  virtual WrProgramEngine* wr_programs(NodeId /*node*/) { return nullptr; }

 protected:
  Env& env() const { return *env_; }

  Env* env_;
  // Registry-backed dataplane_* counters (unlabelled: one data plane per
  // experiment Env), resolved once at construction into raw-word handles
  // (metrics.h).
  CounterHandle m_sends_;
  CounterHandle m_intra_node_;
  CounterHandle m_inter_node_;
  CounterHandle m_drops_;
  // Software payload copies on the data path (socket copies, pool-to-pool
  // copies). NADINO paths must keep this at zero — the zero-copy invariant.
  CounterHandle m_payload_copies_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_DATAPLANE_H_
