// Cluster-wide function placement: the inter-node routing table consulted by
// the unified I/O library (intra- vs inter-node decision) and by the DNE TX
// stage to pick the destination node (paper sections 3.2, 3.5).
//
// Functions may be placed on several nodes: the first registration is the
// primary, later ones are replicas in registration order, and NodeOf()
// resolves to the primary.
//
// Replica selection is round-robin (DESIGN.md §3e): each function's slot
// keeps a rotor over its replicas, so traffic rotates instead of hot-spotting
// the first one. Resolution splits into a pure preview (PeekFor — what would
// the next pick be) and a committing pick (ResolveFor — advances the rotor
// and records the per-replica resolution count). A function with a single
// placement always resolves to it and never touches its rotor.
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

class RoutingTable {
 public:
  // `seed` (the cluster's seed) fixes where each function's rotation starts.
  explicit RoutingTable(uint64_t seed) : seed_(seed ^ kRotorSalt) {}

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
  // unknown. Independent of the rotor.
  NodeId NodeOf(FunctionId function) const {
    const Slot* slot = SlotOf(function);
    return slot == nullptr ? kInvalidNode : slot->nodes.front();
  }

  // Pure preview of the replica the next ResolveFor() would commit.
  NodeId PeekFor(FunctionId function) const {
    const Slot* slot = SlotOf(function);
    return slot == nullptr ? kInvalidNode : slot->nodes[NextIndex(*slot)];
  }

  // Committing resolution: serves the replica at the function's rotor,
  // advances the rotor, and records the per-replica resolution count the
  // spread-skew report reads. This is the authoritative per-message
  // resolution point of the data planes and the ingress gateway.
  NodeId ResolveFor(FunctionId function) {
    Slot* slot = MutableSlot(function, /*create=*/false);
    if (slot == nullptr) {
      return kInvalidNode;
    }
    const size_t index = NextIndex(*slot);
    if (slot->nodes.size() > 1) {
      slot->rotor = (index + 1) % slot->nodes.size();
    }
    ++slot->resolved[index];
    return slot->nodes[index];
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

 private:
  static constexpr size_t kNoRotor = SIZE_MAX;
  static constexpr uint64_t kRotorSalt = 0xA5A5F00DD15EA5E5ull;

  struct Slot {
    FunctionId function = kInvalidFunction;
    std::vector<NodeId> nodes;        // Registration order; first = primary.
    std::vector<uint64_t> resolved;   // Parallel to nodes: ResolveFor picks.
    // Index of the next pick; kNoRotor until the first pick among two or
    // more replicas. A replica placed later carries it over (mod the size).
    size_t rotor = kNoRotor;
  };

  static constexpr int32_t kNoSlot = -1;

  // SplitMix64 finalizer (the generator Rng seeds through).
  static uint64_t SplitMix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  // The index the next pick serves. A function's first rotation starts at a
  // salted SplitMix64 draw of (seed, function): a pure function, so PeekFor
  // and ResolveFor agree and no shared stream orders picks across functions.
  size_t NextIndex(const Slot& slot) const {
    const size_t size = slot.nodes.size();
    if (size == 1) {
      return 0;
    }
    if (slot.rotor == kNoRotor) {
      return static_cast<size_t>(SplitMix64(seed_ ^ (0x9E3779B97F4A7C15ull * slot.function)) %
                                 size);
    }
    return slot.rotor % size;
  }

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
  uint64_t seed_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_ROUTING_TABLE_H_
