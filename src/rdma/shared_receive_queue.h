// Per-tenant shared receive queue.
//
// Paper section 3.3: to reduce QP memory footprint, all of a tenant's RC QPs
// on a node share a single RQ, posted with buffers from that tenant's private
// memory pool — so the RNIC always delivers incoming data into the right
// tenant's pool. Buffers posted here are owned by the RNIC until consumed.
//
// Each posted buffer carries the receiver's work-request id; the recv
// completion reports that id (standard verbs semantics), which the DNE's
// receive-buffer registry uses to find the descriptor (section 3.5.2).

#ifndef SRC_RDMA_SHARED_RECEIVE_QUEUE_H_
#define SRC_RDMA_SHARED_RECEIVE_QUEUE_H_

#include <cstdint>

#include "src/core/types.h"
#include "src/mem/buffer.h"
#include "src/sim/ring_queue.h"

namespace nadino {

class SharedReceiveQueue {
 public:
  struct PostedRecv {
    Buffer* buffer = nullptr;
    uint64_t wr_id = 0;
  };

  explicit SharedReceiveQueue(TenantId tenant) : tenant_(tenant) {}

  // Posts a receive buffer under the receiver-chosen `wr_id`. The buffer must
  // already be owned by the RNIC and belong to this tenant's pool; returns
  // false (and counts the violation) otherwise.
  bool Post(Buffer* buffer, uint64_t wr_id, NodeId rnic_node);

  // Pops the oldest posted buffer; {nullptr, 0} if empty (RNR condition).
  PostedRecv Pop();

  TenantId tenant() const { return tenant_; }
  size_t depth() const { return queue_.size(); }
  uint64_t posted() const { return posted_; }
  uint64_t consumed() const { return consumed_; }
  uint64_t post_violations() const { return post_violations_; }

 private:
  TenantId tenant_;
  RingQueue<PostedRecv> queue_;  // Reposting a consumed buffer never allocates.
  uint64_t posted_ = 0;
  uint64_t consumed_ = 0;
  uint64_t post_violations_ = 0;
};

}  // namespace nadino

#endif  // SRC_RDMA_SHARED_RECEIVE_QUEUE_H_
