// Queueing resources: the building block for every contended hardware unit in
// the model (CPU cores, DPU cores, SoC DMA engines).
//
// A FifoResource is a single server with a FIFO queue. Work is submitted as
// (service_time, completion_callback); the resource serializes jobs, tracks
// busy time for utilization accounting, and exposes queue depth so congestion
// -aware policies (e.g. the DNE's least-congested RC connection selection)
// can inspect it.
//
// Jobs are move-only InlineCallbacks held in a ring buffer that keeps its
// capacity, so a steady-state Submit touches no allocator (DESIGN.md §3c).

#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>
#include <string>

#include "src/sim/inline_callback.h"
#include "src/sim/ring_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {

class FifoResource {
 public:
  // 96 bytes, the size of an event slot's capture: any capture that fits an
  // event fits a job. The largest job the model submits is the baseline data
  // plane's Junction send (88 B: a copied wire payload and its endpoints).
  using Callback = InlineCallback<96>;

  // `speed_factor` scales every submitted service time; a wimpy DPU core is
  // modelled as a FifoResource with speed_factor > 1 (jobs take longer).
  FifoResource(Simulator* sim, std::string name, double speed_factor = 1.0);

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  // Submits a job needing `service` time (before speed scaling); `done` fires
  // when the job completes. Jobs run in submission order. An empty `done`
  // (nullptr, an empty std::function) is pure time consumption.
  void Submit(SimDuration service, Callback done);

  // Submits a job with no completion callback (pure time consumption).
  void Consume(SimDuration service) { Submit(service, nullptr); }

  // Number of jobs waiting or in service.
  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }

  bool busy() const { return busy_; }

  // Accumulated busy nanoseconds since construction or the last checkpoint.
  SimDuration busy_time() const;

  // Utilization in [0, 1] over the window since the last ResetWindow() call.
  double WindowUtilization() const;

  // Starts a fresh utilization window at the current virtual time.
  void ResetWindow();

  // When true, the resource reports 100% window utilization regardless of
  // useful work: models a busy-polling (pinned) core, matching how `top`
  // reports a poll loop. Useful-work utilization stays queryable through
  // WindowUsefulUtilization().
  void set_pinned(bool pinned) { pinned_ = pinned; }
  bool pinned() const { return pinned_; }

  // Useful-work utilization over the window, ignoring the pinned flag. The
  // ingress autoscaler uses this: it measures CPU time spent on data-plane
  // work inside the poll loop (paper section 3.6).
  double WindowUsefulUtilization() const;

  const std::string& name() const { return name_; }
  double speed_factor() const { return speed_factor_; }
  uint64_t jobs_completed() const { return jobs_completed_; }

  // Submitted callbacks whose capture exceeded Callback::kInlineBytes and
  // heap-allocated.
  uint64_t callback_spills() const { return callback_spills_; }

 private:
  struct Job {
    SimDuration service = 0;
    Callback done;
  };

  // Puts a job in service and schedules its completion; the completion event
  // captures only {this, scaled service}.
  void Start(SimDuration service, Callback&& done);
  void Complete(SimDuration scaled);

  Simulator* sim_;
  std::string name_;
  double speed_factor_;
  bool busy_ = false;
  bool pinned_ = false;
  Callback in_service_;  // The running job's callback; moved out on completion.
  RingQueue<Job> queue_;
  uint64_t callback_spills_ = 0;
  SimDuration busy_accum_ = 0;
  SimTime busy_since_ = 0;
  SimTime window_start_ = 0;
  SimDuration window_busy_ = 0;
  uint64_t jobs_completed_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_RESOURCE_H_
