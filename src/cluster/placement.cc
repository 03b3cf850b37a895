#include "src/cluster/placement.h"

namespace nadino {

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
