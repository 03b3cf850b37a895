// The unified fault-injection plane.
//
// Every message-crossing boundary in the data plane — sim links, fabric
// transit, RNIC TX/RX, Comch descriptor channels, SoC DMA, SK_MSG hops, the
// ingress transport, and the DNE TX/RX stages — routes through one
// interceptor owned by Env. A site calls
//
//   switch (env.faults().Intercept(FaultSite::kDneTx, {tenant, node}, ...)) ...
//
// and obeys the returned decision: pass the message, drop it (the site must
// keep its invariants — recycle buffers, complete WRs with an error status,
// count the loss), delay it by the returned Δ, duplicate it, or corrupt the
// payload (FaultPlane flips bytes in place; the existing checksums must
// catch it downstream).
//
// Determinism contract: the plane draws from its OWN Rng, seeded from Env's
// seed, and draws NOTHING when no armed spec matches a site — so a run with
// no specs installed is byte-identical to a run before this layer existed,
// and equal seed + equal spec list yields byte-identical metric snapshots.
//
// Site catalogue, ownership, and the per-site action support matrix are
// documented in DESIGN.md §3a.

#ifndef SRC_CORE_FAULT_H_
#define SRC_CORE_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/types.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace nadino {

// One enumerator per message-crossing boundary wired through the plane.
enum class FaultSite : uint8_t {
  kLink,       // Link::Transfer — serialized bits in flight on one direction.
  kFabric,     // A fabric send — whole-fabric transit (uplink+switch+downlink).
  kRnicTx,     // RdmaEngine::Transmit — WR leaving the local RNIC.
  kRnicRx,     // RdmaEngine::DeliverFromWire — packet entering the remote RNIC.
  kComch,      // ComchServer::SendToDpu/SendToHost — PCIe descriptor channel.
  kSocDma,     // Dpu::SocDmaTransfer — on-path SoC staging copy.
  kTransport,  // IngressGateway::SubmitRequest — kernel-TCP / F-stack ingress.
  kSkMsg,      // SkMsgChannel::Send — intra-node SK_MSG descriptor hop.
  kDneTx,      // NetworkEngine::IngestTx — descriptor entering the TX pipeline.
  kDneRx,      // NetworkEngine::HandleRecvCompletion — RECV leaving the RNIC.
  // NIC-resident WR programs (src/rdma/wr_program.*): a recv completion
  // waking a posted program (kWrProgTrigger) and a conditional edge matching
  // the arrived header (kWrProgCond). Drop = the trigger sticks / the branch
  // misfires; the program declines the message and the software path delivers
  // it instead — counted, never hung. Delay = a slow trigger.
  kWrProgTrigger,
  kWrProgCond,
};
inline constexpr size_t kFaultSiteCount = 12;

const char* FaultSiteName(FaultSite site);

enum class FaultAction : uint8_t {
  kPass,       // No fault: proceed unchanged.
  kDrop,       // Discard the message; the site must count + conserve buffers.
  kDelay,      // Proceed after FaultDecision::delay of extra virtual time.
  kDuplicate,  // Deliver twice (wire-level sites only; idempotent by design).
  kCorrupt,    // Payload bytes were flipped in place; deliver as-is.
};

const char* FaultActionName(FaultAction action);

// What a site is physically able to obey. Specs whose action a site cannot
// honor are skipped there — never half-applied, never counted.
enum : uint8_t {
  kFaultCanDrop = 1u << 0,
  kFaultCanDelay = 1u << 1,
  kFaultCanDuplicate = 1u << 2,
  kFaultCanCorrupt = 1u << 3,
};

// Returns the kFaultCan* mask a site supports (the DESIGN.md §3a catalogue).
uint8_t FaultSiteSupportedActions(FaultSite site);

// Who is crossing the boundary. kInvalidTenant / kInvalidNode mean "unknown
// here" and match only specs that do not constrain that dimension.
struct FaultScope {
  TenantId tenant = kInvalidTenant;
  NodeId node = kInvalidNode;
};

// One armed fault. Triggers combine as: the spec is live inside
// [window_start, window_end) (window_end == 0 ⇒ open-ended), fires with
// `probability` per crossing, or exactly once at the first crossing at/after
// `at` when `one_shot` is set. Scoping narrows to a tenant and/or node.
struct FaultSpec {
  FaultSite site = FaultSite::kLink;
  FaultAction action = FaultAction::kDrop;

  // Trigger.
  double probability = 1.0;     // Per-crossing Bernoulli when not one-shot.
  bool one_shot = false;        // Fire once at the first crossing >= `at`.
  SimTime at = 0;               // One-shot arm time (virtual ns).
  SimTime window_start = 0;     // Burst window [start, end).
  SimTime window_end = 0;       // 0 = open-ended.
  uint64_t max_injections = 0;  // 0 = unlimited.

  // Scope. kInvalid* = any.
  TenantId tenant = kInvalidTenant;
  NodeId node = kInvalidNode;

  // Action parameter.
  SimDuration delay = 0;  // Extra latency for kDelay.
};

struct FaultDecision {
  FaultAction action = FaultAction::kPass;
  SimDuration delay = 0;
};

// Owned by Env; one per experiment. Not thread-safe (neither is the sim).
class FaultPlane {
 public:
  FaultPlane(Simulator* sim, MetricsRegistry* metrics, uint64_t seed);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // Arms a spec. Returns its index, or -1 when the action is not supported
  // at the site (the spec is rejected outright, not silently ignored later).
  int Install(const FaultSpec& spec);

  size_t armed() const { return specs_.size(); }

  // Whether any spec targets `site`. A site with none draws nothing, so a
  // caller may move its crossing in time without changing the run.
  bool ArmedAt(FaultSite site) const { return armed_per_site_[static_cast<size_t>(site)] > 0; }

  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  // The single entry point every site calls. `data`/`len`, when non-null,
  // expose the payload bytes kCorrupt may flip in place. Draws no randomness
  // and returns kPass immediately when no armed spec targets `site`.
  FaultDecision Intercept(FaultSite site, const FaultScope& scope, std::byte* data = nullptr,
                          size_t len = 0);

  // Totals, for shims and quick assertions (the registry holds the
  // full fault_injected_<site>_<action>{node,tenant} breakdown).
  uint64_t injected_total() const { return injected_total_; }
  uint64_t injected_at(FaultSite site) const {
    return injected_by_site_[static_cast<size_t>(site)];
  }

 private:
  struct Armed {
    FaultSpec spec;
    bool fired = false;       // One-shot latch.
    uint64_t injections = 0;  // Against max_injections.
  };

  bool Matches(const Armed& armed, FaultSite site, const FaultScope& scope, SimTime now) const;
  void CountInjection(Armed& armed, FaultSite site, const FaultScope& scope);

  Simulator* sim_;
  MetricsRegistry* metrics_;
  Tracer* tracer_ = nullptr;
  Rng rng_;
  std::vector<Armed> specs_;
  uint64_t armed_per_site_[kFaultSiteCount] = {};
  uint64_t injected_by_site_[kFaultSiteCount] = {};
  uint64_t injected_total_ = 0;
};

}  // namespace nadino

#endif  // SRC_CORE_FAULT_H_
