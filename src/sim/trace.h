// Structured event tracing for the data plane.
//
// A bounded ring of (virtual time, category, actor, label, args) records,
// cheap enough to leave attached during experiments. A Tracer is installed on
// the experiment's Env (Env::SetTracer) and every component emits through
// Env::Trace, which is a null check when none is installed. Tools and tests
// use the trace to assert event-level properties (ordering, per-request hop
// counts) and to render human-readable timelines (see
// examples/tenant_policies).

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {

enum class TraceCategory : uint8_t {
  kEngine,   // DNE/CNE TX/RX stages.
  kRdma,     // Verbs-level posts/completions.
  kIpc,      // SK_MSG / Comch descriptor hops.
  kIngress,  // Gateway request/response lifecycle.
  kApp,      // Function-level events.
  kFault,    // FaultPlane injections (site/action, scope in args).
  kCluster,  // Core over-subscription.
};

const char* TraceCategoryName(TraceCategory category);

struct TraceEvent {
  SimTime at = 0;
  TraceCategory category = TraceCategory::kApp;
  uint32_t actor = 0;  // Engine id, function id, worker index...
  std::string label;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

class Tracer {
 public:
  explicit Tracer(Simulator* sim, size_t capacity = 65536);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(TraceCategory category, uint32_t actor, std::string label, uint64_t arg0 = 0,
              uint64_t arg1 = 0);

  // Oldest-first view of the retained events.
  std::vector<TraceEvent> Snapshot() const;

  // Events matching a predicate, oldest first.
  std::vector<TraceEvent> Filter(const std::function<bool(const TraceEvent&)>& pred) const;

  // Count of retained events whose label matches exactly.
  size_t CountLabel(const std::string& label) const;

  // "t=12.345us [engine/1001] tx_post arg0=7 arg1=64" lines, oldest first.
  std::string ToText(size_t max_lines = 1000) const;

  void Clear();
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0; }
  size_t size() const { return recorded_ < ring_.size() ? recorded_ : ring_.size(); }

 private:
  Simulator* sim_;
  std::vector<TraceEvent> ring_;
  uint64_t recorded_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_TRACE_H_
