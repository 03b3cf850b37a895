#include "src/sim/resource.h"

#include <utility>

namespace nadino {

FifoResource::FifoResource(Simulator* sim, std::string name, double speed_factor)
    : sim_(sim), name_(std::move(name)), speed_factor_(speed_factor) {}

void FifoResource::Submit(SimDuration service, Callback done) {
  if (service < 0) {
    service = 0;
  }
  callback_spills_ += done.spilled() ? 1 : 0;
  if (busy_) {
    queue_.push_back(Job{service, std::move(done)});
  } else {
    Start(service, std::move(done));  // An idle resource has an empty queue.
  }
}

void FifoResource::Start(SimDuration service, Callback&& done) {
  busy_ = true;
  busy_since_ = sim_->now();
  in_service_ = std::move(done);
  const auto scaled =
      static_cast<SimDuration>(static_cast<double>(service) * speed_factor_ + 0.5);
  sim_->Schedule(scaled, [this, scaled]() { Complete(scaled); });
}

void FifoResource::Complete(SimDuration scaled) {
  busy_accum_ += scaled;
  window_busy_ += scaled;
  ++jobs_completed_;
  Callback done = std::move(in_service_);
  // Start the next job before the completion callback so that work the
  // callback submits queues behind already-waiting jobs (FIFO order).
  if (queue_.empty()) {
    busy_ = false;
  } else {
    Job& next = queue_.front();
    Start(next.service, std::move(next.done));
    queue_.pop_front();
  }
  if (done) {
    done();
  }
}

SimDuration FifoResource::busy_time() const {
  SimDuration t = busy_accum_;
  if (busy_) {
    t += sim_->now() - busy_since_;
  }
  return t;
}

double FifoResource::WindowUtilization() const {
  if (pinned_) {
    return 1.0;
  }
  return WindowUsefulUtilization();
}

double FifoResource::WindowUsefulUtilization() const {
  const SimDuration span = sim_->now() - window_start_;
  if (span <= 0) {
    return 0.0;
  }
  SimDuration busy = window_busy_;
  if (busy_) {
    busy += sim_->now() - busy_since_;
  }
  double u = static_cast<double>(busy) / static_cast<double>(span);
  return u > 1.0 ? 1.0 : u;
}

void FifoResource::ResetWindow() {
  window_start_ = sim_->now();
  window_busy_ = 0;
  if (busy_) {
    // Re-anchor the in-flight job so its pre-window portion is not counted.
    busy_since_ = sim_->now();
  }
}

}  // namespace nadino
