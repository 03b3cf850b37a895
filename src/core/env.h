// The unified execution context threaded through every layer.
//
// Before Env, each component was hand-wired with some subset of the
// (Simulator*, CostModel*, Tracer*) pointer triple plus its own private Stats
// struct. Env bundles the shared infrastructure once — the simulator clock,
// the calibrated cost model, an optional tracer, a seeded PRNG, and the
// MetricsRegistry — and components take an `Env&` instead. The Env does not
// own the simulator or cost model (the Cluster or the test fixture does); it
// DOES own the Rng and the MetricsRegistry, so one experiment has exactly one
// metric namespace and one deterministic random stream.
//
// Ownership/threading conventions are documented in DESIGN.md.

#ifndef SRC_CORE_ENV_H_
#define SRC_CORE_ENV_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/calibration.h"
#include "src/core/fault.h"
#include "src/core/slo.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace nadino {

inline constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

class Env {
 public:
  Env(Simulator* sim, const CostModel* cost, uint64_t seed = kDefaultSeed,
      Tracer* tracer = nullptr)
      : sim_(sim), cost_(cost), tracer_(tracer), seed_(seed), rng_(seed),
        faults_(sim, &metrics_, seed), slos_(sim, &metrics_, seed) {
    faults_.SetTracer(tracer_);
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }
  SimTime now() const { return sim_->now(); }

  const CostModel& cost() const { return *cost_; }

  // The tracer is optional; components emit through Trace() which no-ops when
  // none is installed.
  Tracer* tracer() { return tracer_; }
  void SetTracer(Tracer* tracer) {
    tracer_ = tracer;
    faults_.SetTracer(tracer);
  }
  // The label becomes a std::string only once a tracer is installed, so an
  // untraced call costs one null check.
  void Trace(TraceCategory category, uint32_t actor, std::string_view label, uint64_t arg0 = 0,
             uint64_t arg1 = 0) {
    if (tracer_ != nullptr) {
      tracer_->Record(category, actor, std::string(label), arg0, arg1);
    }
  }

  uint64_t seed() const { return seed_; }
  Rng& rng() { return rng_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // The unified fault-injection plane every message-crossing boundary
  // consults (see src/core/fault.h and DESIGN.md §3a).
  FaultPlane& faults() { return faults_; }
  const FaultPlane& faults() const { return faults_; }

  // Per-tenant SLO objects and retry policies; the recovery counterpart to
  // the FaultPlane (see src/core/slo.h and DESIGN.md §3b).
  SloRegistry& slos() { return slos_; }
  const SloRegistry& slos() const { return slos_; }

 private:
  Simulator* sim_;
  const CostModel* cost_;
  Tracer* tracer_;
  uint64_t seed_;
  Rng rng_;
  MetricsRegistry metrics_;
  FaultPlane faults_;  // After metrics_: constructed with its address.
  SloRegistry slos_;   // Likewise.
};

}  // namespace nadino

#endif  // SRC_CORE_ENV_H_
