// Cold-start mitigation (paper section 3.7).
//
// NADINO itself does not attack cold starts, but it composes with the known
// mitigations: SPRIGHT's keep-warm policy (instances stay resident for a
// window after their last invocation) and Catalyzer-style snapshot restore
// (boot from a checkpoint instead of a full container start). This module
// wraps a FunctionRuntime: messages arriving at a cold instance queue behind
// the start-up, and an idle sweeper retires instances whose keep-warm window
// lapsed.

#ifndef SRC_RUNTIME_COLDSTART_H_
#define SRC_RUNTIME_COLDSTART_H_

#include <deque>
#include <functional>
#include <map>

#include "src/core/env.h"
#include "src/runtime/function.h"
#include "src/sim/simulator.h"

namespace nadino {

class ColdStartManager {
 public:
  enum class InstanceState : uint8_t { kCold, kStarting, kWarm };

  // Full container start (image pull amortized away; boot + runtime init).
  static constexpr SimDuration kColdStartDelay = 500 * kMillisecond;
  // Catalyzer-style initialization-less restore from a snapshot.
  static constexpr SimDuration kSnapshotRestoreDelay = 30 * kMillisecond;

  struct Options {
    bool use_snapshot_restore = false;
    // SPRIGHT keep-warm: instances stay warm this long after the last call.
    SimDuration keep_warm_timeout = 10 * kSecond;
    // 0 disables the idle sweeper (instances never go cold again).
    SimDuration sweep_period = 1 * kSecond;
  };

  struct Stats {
    uint64_t cold_starts = 0;
    uint64_t warm_hits = 0;
    uint64_t queued_during_start = 0;
    uint64_t retirements = 0;  // Warm -> cold transitions by the sweeper.
  };

  ColdStartManager(Env& env, const Options& options);

  ColdStartManager(const ColdStartManager&) = delete;
  ColdStartManager& operator=(const ColdStartManager&) = delete;

  // Wraps `function`'s installed handler with cold-start interception. Call
  // AFTER the application handler (e.g. the chain executor) is attached.
  void Manage(FunctionRuntime* function);

  // Pre-warms an instance (e.g. at deployment), skipping the first cold hit.
  void Prewarm(FunctionId function);

  // Fires whenever the idle sweeper retires a warm instance. Lets the
  // control plane tie resource reclaim to instance lifetime: the tenant-churn
  // harness maps a retired function to ConnectionService::DestroyTenant.
  void SetRetireHook(std::function<void(FunctionId)> hook) { retire_hook_ = std::move(hook); }

  InstanceState StateOf(FunctionId function) const;
  const Stats& stats() const { return stats_; }

 private:
  struct Instance {
    FunctionRuntime* function = nullptr;
    FunctionRuntime::Handler app_handler;
    InstanceState state = InstanceState::kCold;
    SimTime last_active = 0;
    std::deque<Buffer*> queued;
  };

  void OnMessage(Instance& instance, FunctionRuntime& fn, Buffer* buffer);
  void FinishStart(FunctionId function);
  void SweepTick();

  SimDuration StartDelay() const {
    return options_.use_snapshot_restore ? kSnapshotRestoreDelay : kColdStartDelay;
  }

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Options options_;
  std::map<FunctionId, Instance> instances_;
  bool sweeping_ = false;
  Stats stats_;
  std::function<void(FunctionId)> retire_hook_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_COLDSTART_H_
