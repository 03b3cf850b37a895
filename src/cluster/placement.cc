#include "src/cluster/placement.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/runtime/node.h"
#include "src/sim/trace.h"

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
constexpr uint64_t kRebalancerSalt = 0x5EEDBA1ACE12B057ull;
constexpr double kMinWeight = 1e-6;

}  // namespace

// ---------------------------------------------------------------------------
// WeightedSpreader
// ---------------------------------------------------------------------------

WeightedSpreader::WeightedSpreader(uint64_t seed) : seed_(seed ^ kSpreaderSalt) {}

double WeightedSpreader::WeightOf(NodeId node) const {
  if (weight_fn_) {
    return std::max(weight_fn_(node), kMinWeight);
  }
  return 1.0;
}

size_t WeightedSpreader::InitialRotor(FunctionId function, size_t replicas) const {
  return static_cast<size_t>(SplitMix64(seed_ ^ (0x9E3779B97F4A7C15ull * function)) %
                             replicas);
}

void WeightedSpreader::Rebuild(FunctionId function, const std::vector<NodeId>& replicas,
                               const SpreadState* old, SpreadState& fresh) const {
  fresh.nodes = replicas;
  fresh.deficit.assign(replicas.size(), 0.0);
  fresh.rotor = InitialRotor(function, replicas.size());
  if (old != nullptr) {
    // Carry surviving replicas' deficits so a replica-set change doesn't reset
    // the rotation debt a slow replica accumulated.
    for (size_t i = 0; i < replicas.size(); ++i) {
      for (size_t j = 0; j < old->nodes.size(); ++j) {
        if (old->nodes[j] == replicas[i]) {
          fresh.deficit[i] = old->deficit[j];
          break;
        }
      }
    }
    fresh.rotor = old->rotor % replicas.size();
  }
}

NodeId WeightedSpreader::Choose(SpreadState& state) const {
  const size_t n = state.nodes.size();
  // Two passes: if no replica holds a whole quantum, replenish by normalized
  // weight (the max-weight replica gains exactly 1.0, so the second scan
  // always serves). Deficits stay < 2, bounding post-weight-change bursts.
  for (int round = 0; round < 2; ++round) {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (state.rotor + k) % n;
      if (state.deficit[i] >= 1.0) {
        state.deficit[i] -= 1.0;
        state.rotor = (i + 1) % n;
        return state.nodes[i];
      }
    }
    double max_weight = kMinWeight;
    for (const NodeId node : state.nodes) {
      max_weight = std::max(max_weight, WeightOf(node));
    }
    for (size_t i = 0; i < n; ++i) {
      state.deficit[i] += WeightOf(state.nodes[i]) / max_weight;
    }
  }
  // Numeric fallback (all weights collapsed below the floor): round-robin.
  const NodeId chosen = state.nodes[state.rotor];
  state.rotor = (state.rotor + 1) % n;
  return chosen;
}

NodeId WeightedSpreader::Pick(FunctionId function, const std::vector<NodeId>& replicas,
                              NodeId src_node) {
  (void)src_node;  // Locality belongs to the ChainPlacer; the spreader is pure DWRR.
  auto it = states_.find(function);
  if (it == states_.end()) {
    it = states_.try_emplace(function).first;
    Rebuild(function, replicas, nullptr, it->second);
  } else if (it->second.nodes != replicas) {
    SpreadState fresh;
    Rebuild(function, replicas, &it->second, fresh);
    it->second = std::move(fresh);
  }
  ++picks_;
  return Choose(it->second);
}

NodeId WeightedSpreader::Peek(FunctionId function, const std::vector<NodeId>& replicas,
                              NodeId src_node) const {
  (void)src_node;
  // Simulates the pick on scratch_, assigned in place so its vectors keep
  // their capacity: a warm Peek allocates nothing.
  const auto it = states_.find(function);
  if (it != states_.end() && it->second.nodes == replicas) {
    scratch_ = it->second;
  } else {
    Rebuild(function, replicas, it != states_.end() ? &it->second : nullptr, scratch_);
  }
  return Choose(scratch_);
}

void WeightedSpreader::Invalidate(FunctionId function) { states_.erase(function); }

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

// ---------------------------------------------------------------------------
// Rebalancer
// ---------------------------------------------------------------------------

Rebalancer::Rebalancer(Env& env, RoutingTable* routing, std::vector<NodeId> workers,
                       NodeUtilFn node_util, BurnFn slo_burning,
                       const RebalancerOptions& options)
    : env_(&env),
      routing_(routing),
      workers_(std::move(workers)),
      node_util_(std::move(node_util)),
      slo_burning_(std::move(slo_burning)),
      options_(options),
      rng_(env.seed() ^ kRebalancerSalt) {}

void Rebalancer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  const auto jitter =
      static_cast<SimDuration>(rng_.UniformInt(0, static_cast<uint64_t>(kMaxJitter)));
  env_->sim().Schedule(options_.period + jitter, [this]() { Tick(); });
}

void Rebalancer::Tick() {
  ++ticks_;
  // One utilization sample per node per tick (the source resets its window
  // on read, so later reads this tick must reuse the snapshot).
  std::map<NodeId, double> utils;
  NodeId hot = kInvalidNode;
  double hot_util = 0.0;
  for (const NodeId node : workers_) {
    const double util = node_util_(node);
    utils[node] = util;
    if (hot == kInvalidNode || util > hot_util) {
      hot = node;
      hot_util = util;
    }
  }
  const bool burning = slo_burning_ && slo_burning_();
  const double trigger = burning ? kBurnOverloadUtil : options_.overload_util;
  if (hot != kInvalidNode && hot_util > trigger) {
    MigrateFrom(hot, utils);
  }
  const auto jitter =
      static_cast<SimDuration>(rng_.UniformInt(0, static_cast<uint64_t>(kMaxJitter)));
  env_->sim().Schedule(options_.period + jitter, [this]() { Tick(); });
}

void Rebalancer::MigrateFrom(NodeId hot, const std::map<NodeId, double>& utils) {
  // Candidates: functions placed on the hot node that have a replica
  // elsewhere (migration never instantiates new runtimes — it shifts routing
  // onto capacity that already exists). Hottest first by resolution count,
  // ties to the lower function id (deterministic).
  struct Candidate {
    FunctionId fn = kInvalidFunction;
    uint64_t resolved = 0;
  };
  std::vector<Candidate> candidates;
  for (const FunctionId fn : routing_->FunctionsOn(hot)) {
    if (routing_->PlacementsOf(fn)->size() < 2) {
      continue;
    }
    candidates.push_back(Candidate{fn, routing_->ResolvedCount(fn, hot)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.resolved != b.resolved ? a.resolved > b.resolved
                                                     : a.fn < b.fn;
                   });
  for (const Candidate& candidate : candidates) {
    // Target: the least-utilized replica with headroom.
    NodeId target = kInvalidNode;
    double target_util = 0.0;
    for (const NodeId node : *routing_->PlacementsOf(candidate.fn)) {
      if (node == hot) {
        continue;
      }
      const auto util_it = utils.find(node);
      const double util = util_it == utils.end() ? 0.0 : util_it->second;
      if (util < options_.headroom_util &&
          (target == kInvalidNode || util < target_util)) {
        target = node;
        target_util = util;
      }
    }
    if (target == kInvalidNode) {
      continue;
    }
    if (!routing_->Migrate(candidate.fn, hot, target)) {
      continue;
    }
    ++migrations_;
    if (!m_migrations_.resolved()) {
      m_migrations_ = env_->metrics().ResolveCounter("placement_migrations");
    }
    m_migrations_.Increment();
    env_->Trace(TraceCategory::kCluster, hot, "rebalance_migrate", candidate.fn, target);
    return;
  }
}

// ---------------------------------------------------------------------------
// PlacementManager
// ---------------------------------------------------------------------------

PlacementManager::PlacementManager(Env& env, RoutingTable* routing,
                                   const PlacementOptions& options, uint64_t seed)
    : env_(&env), routing_(routing), options_(options) {
  spreader_ = std::make_unique<WeightedSpreader>(seed);
}

PlacementManager::~PlacementManager() {
  if (routing_ != nullptr && routing_->policy() == spreader_.get()) {
    routing_->SetPolicy(nullptr);
  }
}

void PlacementManager::AddWorker(Node* node) { workers_[node->id()] = node; }

double PlacementManager::NodeUtilization(NodeId node) const {
  const auto it = workers_.find(node);
  if (it == workers_.end()) {
    return 0.0;
  }
  const int cores = std::max(it->second->host_core_count(), 1);
  return it->second->HostUtilizationCores() / static_cast<double>(cores);
}

void PlacementManager::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (options_.utilization_weights) {
    // Utilization- and burn-fed weights: a loaded node's share shrinks
    // linearly, and while any tenant burns SLO budget the skew sharpens
    // (squared) so relief arrives faster than the linear feedback would.
    spreader_->SetWeightFn([this](NodeId node) {
      const double weight = std::max(0.05, 1.0 - NodeUtilization(node));
      return env_->slos().AnyBurning() ? weight * weight : weight;
    });
  }
  if (options_.spread) {
    routing_->SetPolicy(spreader_.get());
  }
  if (options_.rebalance) {
    std::vector<NodeId> ids;
    ids.reserve(workers_.size());
    for (const auto& [id, node] : workers_) {
      (void)node;
      ids.push_back(id);
    }
    rebalancer_ = std::make_unique<Rebalancer>(
        *env_, routing_, std::move(ids),
        [this](NodeId node) {
          const double util = NodeUtilization(node);
          const auto it = workers_.find(node);
          if (it != workers_.end()) {
            // Fresh window per observation so the signal tracks recent load,
            // not the whole run's average.
            it->second->ResetUtilizationWindows();
          }
          return util;
        },
        [this]() { return env_->slos().AnyBurning(); }, options_.rebalancer);
    rebalancer_->Start();
  }
}

}  // namespace nadino
