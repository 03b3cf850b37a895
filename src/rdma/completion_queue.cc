#include "src/rdma/completion_queue.h"

namespace nadino {

void CompletionQueue::Push(const Completion& cqe) {
  ++total_;
  if (steering_ && steering_(cqe)) {
    ++steered_;
    return;
  }
  if (handler_) {
    handler_(cqe);
  }
}

}  // namespace nadino
