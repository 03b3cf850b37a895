#include "src/cluster/placement.h"

namespace nadino {

namespace {

// SplitMix64 step (same generator Rng seeds through): used for the spreader's
// salted per-function rotor so the initial rotation offset is a pure function
// of (seed, function id) — no shared stream, no call-order sensitivity.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr uint64_t kSpreaderSalt = 0xA5A5F00DD15EA5E5ull;

}  // namespace

// ---------------------------------------------------------------------------
// ReplicaSpreader
// ---------------------------------------------------------------------------

ReplicaSpreader::ReplicaSpreader(uint64_t seed) : seed_(seed ^ kSpreaderSalt) {}

size_t ReplicaSpreader::RotorFor(FunctionId function, const std::vector<NodeId>& replicas,
                                 const SpreadState* state) const {
  if (state != nullptr) {
    return state->rotor % replicas.size();
  }
  return static_cast<size_t>(SplitMix64(seed_ ^ (0x9E3779B97F4A7C15ull * function)) %
                             replicas.size());
}

NodeId ReplicaSpreader::Pick(FunctionId function, const std::vector<NodeId>& replicas,
                             NodeId src_node) {
  (void)src_node;  // Locality belongs to the ChainPlacer; the spreader only rotates.
  const auto [it, fresh] = states_.try_emplace(function);
  SpreadState& state = it->second;
  if (fresh || state.nodes != replicas) {
    state.rotor = RotorFor(function, replicas, fresh ? nullptr : &state);
    state.nodes = replicas;
  }
  ++picks_;
  const NodeId chosen = state.nodes[state.rotor];
  state.rotor = (state.rotor + 1) % state.nodes.size();
  return chosen;
}

NodeId ReplicaSpreader::Peek(FunctionId function, const std::vector<NodeId>& replicas,
                             NodeId src_node) const {
  (void)src_node;
  const auto it = states_.find(function);
  return replicas[RotorFor(function, replicas, it == states_.end() ? nullptr : &it->second)];
}

// ---------------------------------------------------------------------------
// ChainPlacer
// ---------------------------------------------------------------------------

namespace {

struct PlacerState {
  const ChainSpec* spec = nullptr;
  const std::vector<NodeId>* workers = nullptr;
  int capacity = 0;
  std::map<FunctionId, NodeId> assignment;
  std::map<NodeId, int> load;
};

NodeId LeastLoaded(const PlacerState& state) {
  NodeId best = kInvalidNode;
  int best_load = 0;
  for (const NodeId node : *state.workers) {
    const auto it = state.load.find(node);
    const int load = it == state.load.end() ? 0 : it->second;
    if (best == kInvalidNode || load < best_load || (load == best_load && node < best)) {
      best = node;
      best_load = load;
    }
  }
  return best;
}

void AssignFrom(PlacerState& state, FunctionId fn, NodeId parent_node) {
  if (state.assignment.count(fn) != 0) {
    return;  // Shared stage already placed by an earlier caller.
  }
  NodeId node = parent_node;
  const bool parent_full =
      node == kInvalidNode ||
      (state.capacity > 0 && state.load[node] >= state.capacity);
  if (parent_full) {
    node = LeastLoaded(state);
  }
  if (node == kInvalidNode) {
    return;
  }
  state.assignment[fn] = node;
  ++state.load[node];
  const auto it = state.spec->behaviors.find(fn);
  if (it == state.spec->behaviors.end()) {
    return;
  }
  for (const CallSpec& call : it->second.calls) {
    AssignFrom(state, call.callee, node);
  }
}

}  // namespace

std::map<FunctionId, NodeId> ChainPlacer::PlaceChain(const ChainSpec& spec,
                                                     const std::vector<NodeId>& workers,
                                                     int capacity_per_node) {
  PlacerState state;
  state.spec = &spec;
  state.workers = &workers;
  state.capacity = capacity_per_node;
  if (workers.empty()) {
    return {};
  }
  AssignFrom(state, spec.entry, kInvalidNode);
  // Behaviors not reachable from the entry (defensive: disconnected specs)
  // still get deterministic least-loaded homes.
  for (const auto& [fn, behavior] : spec.behaviors) {
    (void)behavior;
    if (state.assignment.count(fn) == 0) {
      AssignFrom(state, fn, kInvalidNode);
    }
  }
  return state.assignment;
}

int ChainPlacer::ScoreAssignment(const ChainSpec& spec,
                                 const std::map<FunctionId, NodeId>& assignment) {
  int crossings = 0;
  for (const auto& [fn, behavior] : spec.behaviors) {
    const auto caller_it = assignment.find(fn);
    if (caller_it == assignment.end()) {
      continue;
    }
    for (const CallSpec& call : behavior.calls) {
      const auto callee_it = assignment.find(call.callee);
      if (callee_it != assignment.end() && callee_it->second != caller_it->second) {
        crossings += 2;  // Request + response both cross the fabric.
      }
    }
  }
  return crossings;
}

}  // namespace nadino
