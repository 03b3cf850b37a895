// Cluster-wide function placement: the inter-node routing table consulted by
// the unified I/O library (intra- vs inter-node decision) and by the DNE TX
// stage to pick the destination node (paper sections 3.2, 3.5).
//
// Functions may be placed on several nodes: the first registration is the
// primary, later ones are replicas in registration order, and NodeOf()
// resolves to the primary.
//
// Replica selection is POLICY-DRIVEN (DESIGN.md §3e): an installed
// ReplicaSelector (the replica spreader in src/cluster/placement.h)
// rotates traffic across the replicas instead of hot-spotting the first
// one. Resolution splits into a pure preview (PeekFor — what would the next
// pick be) and a committing pick (ResolveFor — advances the policy's rotation
// state and records the per-replica resolution count). Without a policy both
// resolve to the primary, so unconfigured runs stay byte-identical.
//
// Storage is a dense FunctionId-indexed slot table (the PR 4 handle idiom):
// resolution is two array indexations instead of a std::map walk — this sits
// on the per-message hot path of every data plane.

#ifndef SRC_RUNTIME_ROUTING_TABLE_H_
#define SRC_RUNTIME_ROUTING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/types.h"

namespace nadino {

// Replica-selection policy: picks which replica of a function serves the next
// request. `replicas` is the registration-ordered placement list, with at
// least two entries; `src_node` is the requester's node (kInvalidNode when
// unknown), so locality-aware policies can prefer a colocated replica.
//
// Determinism contract: implementations draw only from seeded, salted state —
// equal seeds must reproduce the pick sequence bit-for-bit.
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  // Commits a pick: advances internal rotation state.
  virtual NodeId Pick(FunctionId function, const std::vector<NodeId>& replicas,
                      NodeId src_node) = 0;

  // Pure preview of what the next Pick would return. Must not mutate state.
  virtual NodeId Peek(FunctionId function, const std::vector<NodeId>& replicas,
                      NodeId src_node) const = 0;
};

class RoutingTable {
 public:
  // Records a placement. Idempotent per (function, node); a second node for
  // the same function becomes a replica, not a replacement.
  void Place(FunctionId function, NodeId node) {
    Slot* slot = MutableSlot(function, /*create=*/true);
    if (slot == nullptr) {
      return;
    }
    for (const NodeId existing : slot->nodes) {
      if (existing == node) {
        return;
      }
    }
    slot->nodes.push_back(node);
    slot->resolved.push_back(0);
  }

  // The primary (first placement); kInvalidNode when the function is
  // unknown. Policy-independent: the stable view used by runs without a
  // placement subsystem.
  NodeId NodeOf(FunctionId function) const {
    const Slot* slot = SlotOf(function);
    return slot == nullptr ? kInvalidNode : slot->nodes.front();
  }

  // Pure preview of the replica the next ResolveFor() would commit: the
  // installed policy's Peek over the replicas, or the primary when no policy
  // is installed (or the function has a single placement).
  NodeId PeekFor(FunctionId function, NodeId src_node) const {
    const Slot* slot = SlotOf(function);
    if (slot == nullptr) {
      return kInvalidNode;
    }
    if (policy_ == nullptr || slot->nodes.size() == 1) {
      return slot->nodes.front();
    }
    return policy_->Peek(function, slot->nodes, src_node);
  }

  // Committing resolution: picks the serving replica under the installed
  // policy (advancing its rotation state) and records the per-replica
  // resolution count the spread-skew report reads. Resolves to the primary
  // when no policy is installed. This is the authoritative per-message
  // resolution point of the data planes and the ingress gateway.
  NodeId ResolveFor(FunctionId function, NodeId src_node) {
    Slot* slot = MutableSlot(function, /*create=*/false);
    if (slot == nullptr) {
      return kInvalidNode;
    }
    const NodeId chosen = policy_ == nullptr || slot->nodes.size() == 1
                              ? slot->nodes.front()
                              : policy_->Pick(function, slot->nodes, src_node);
    for (size_t i = 0; i < slot->nodes.size(); ++i) {
      if (slot->nodes[i] == chosen) {
        ++slot->resolved[i];
        break;
      }
    }
    return chosen;
  }

  size_t size() const { return slots_.size(); }

  // Registration-ordered placement list; nullptr when the function is
  // unknown.
  const std::vector<NodeId>* PlacementsOf(FunctionId function) const {
    const Slot* slot = SlotOf(function);
    return slot == nullptr ? nullptr : &slot->nodes;
  }

  bool HasPlacement(FunctionId function, NodeId node) const {
    const Slot* slot = SlotOf(function);
    if (slot == nullptr) {
      return false;
    }
    for (const NodeId existing : slot->nodes) {
      if (existing == node) {
        return true;
      }
    }
    return false;
  }

  // Cumulative ResolveFor() picks that chose `node` for `function`. Internal
  // accounting (not a registry metric): powers the per-replica spread-skew
  // report without perturbing metric snapshots.
  uint64_t ResolvedCount(FunctionId function, NodeId node) const {
    const Slot* slot = SlotOf(function);
    if (slot == nullptr) {
      return 0;
    }
    for (size_t i = 0; i < slot->nodes.size(); ++i) {
      if (slot->nodes[i] == node) {
        return slot->resolved[i];
      }
    }
    return 0;
  }

  // Installs (or clears, with nullptr) the replica-selection policy. The
  // table does not own the selector; the Cluster does.
  void SetPolicy(ReplicaSelector* policy) { policy_ = policy; }

 private:
  struct Slot {
    FunctionId function = kInvalidFunction;
    std::vector<NodeId> nodes;        // Registration order; first = primary.
    std::vector<uint64_t> resolved;   // Parallel to nodes: ResolveFor picks.
  };

  static constexpr int32_t kNoSlot = -1;

  const Slot* SlotOf(FunctionId function) const {
    if (function >= slot_of_.size() || slot_of_[function] == kNoSlot) {
      return nullptr;
    }
    return &slots_[static_cast<size_t>(slot_of_[function])];
  }

  Slot* MutableSlot(FunctionId function, bool create) {
    if (function == kInvalidFunction) {
      return nullptr;
    }
    if (function >= slot_of_.size()) {
      if (!create) {
        return nullptr;
      }
      slot_of_.resize(static_cast<size_t>(function) + 1, kNoSlot);
    }
    int32_t index = slot_of_[function];
    if (index == kNoSlot) {
      if (!create) {
        return nullptr;
      }
      index = static_cast<int32_t>(slots_.size());
      slot_of_[function] = index;
      slots_.push_back(Slot{});
      slots_.back().function = function;
    }
    return &slots_[static_cast<size_t>(index)];
  }

  // Dense FunctionId -> slot index (kNoSlot when unplaced); grows to the
  // largest placed id. Gateway pseudo-functions sit near 0xF8000, so the
  // worst case is a few MB of int32 — cheap against a per-message map walk.
  std::vector<int32_t> slot_of_;
  std::vector<Slot> slots_;  // Dense, in first-placement order.
  ReplicaSelector* policy_ = nullptr;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_ROUTING_TABLE_H_
