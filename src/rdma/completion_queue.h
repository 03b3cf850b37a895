// Completion queue shared by all RC QPs on a node (paper section 3.3: "All
// RCQPs on a given node share a single Completion Queue").
//
// Consumption is handler-driven, matching how the engines use verbs: a
// busy-polling run-to-completion loop registers a handler that fires as CQEs
// arrive (the handler charges its own core).

#ifndef SRC_RDMA_COMPLETION_QUEUE_H_
#define SRC_RDMA_COMPLETION_QUEUE_H_

#include <cstdint>
#include <functional>

#include "src/rdma/verbs.h"

namespace nadino {

class CompletionQueue {
 public:
  using Handler = std::function<void(const Completion&)>;

  // A steering hook consulted before the handler. Returning true means the
  // CQE was consumed "in the NIC" — an installed WR program matched it — and
  // the software consumer never sees it. WR programs use
  // this to take over chain-hop receives without waking the DPU cores.
  using Steering = std::function<bool(const Completion&)>;

  // Registers the busy-poll consumer. With a handler set, pushed CQEs are
  // dispatched immediately (the poller would have seen them on its next spin);
  // without one they are counted and dropped, as no consumer polls them.
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Installs the NIC-side steering hook (nullptr to remove). At most one.
  void SetSteering(Steering steering) { steering_ = std::move(steering); }

  void Push(const Completion& cqe);

  uint64_t total_completions() const { return total_; }
  uint64_t steered_completions() const { return steered_; }

 private:
  Handler handler_;
  Steering steering_;
  uint64_t total_ = 0;
  uint64_t steered_ = 0;
};

}  // namespace nadino

#endif  // SRC_RDMA_COMPLETION_QUEUE_H_
