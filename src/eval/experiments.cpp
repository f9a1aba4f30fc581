#include "eval/experiments.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/memtrack.hpp"
#include "common/parallel.hpp"
#include "obs/memstats.hpp"
#include "obs/profile.hpp"

namespace miro::eval {

ExperimentPlan::ExperimentPlan(const EvalConfig& config) : config_(config) {
  obs::ScopedSpan span(obs::profile(), "eval/plan", "eval");
  topo::GeneratorParams params = topo::profile(config.profile, config.scale);
  graph_ = std::make_unique<AsGraph>(topo::generate(params));
  solver_ = std::make_unique<StableRouteSolver>(*graph_);

  Rng rng(config.seed);
  const std::size_t n = graph_->node_count();
  const std::size_t samples = std::min(config.destination_samples, n);
  for (std::size_t index : rng.sample_indices(n, samples))
    destinations_.push_back(static_cast<NodeId>(index));
  std::sort(destinations_.begin(), destinations_.end());
  // Every per-destination solve is independent; fan out and collect the
  // trees in destination order so the plan is identical at any thread count.
  std::vector<std::unique_ptr<RoutingTree>> solved(destinations_.size());
  par::parallel_for(
      destinations_.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i != end; ++i) {
          solved[i] =
              std::make_unique<RoutingTree>(solver_->solve(destinations_[i]));
        }
      });
  trees_.reserve(destinations_.size());
  for (auto& tree : solved) trees_.push_back(std::move(*tree));

  // Walk-account the plan's two memory-dominant owners. A capacity walk of
  // identically-constructed containers, so the accounts (and the bench rows
  // derived from them) are bit-identical at any --threads count.
  if (obs::MemoryRegistry* mem = obs::memory()) {
    mem->account("topology/graph").set_current(graph_->memory_bytes());
    mem->account("eval/trees").set_current(trees_memory_bytes());
  }
}

std::uint64_t ExperimentPlan::trees_memory_bytes() const {
  std::uint64_t bytes = vector_bytes(trees_) + vector_bytes(destinations_);
  for (const RoutingTree& tree : trees_) bytes += tree.memory_bytes();
  return bytes;
}

std::uint64_t ExperimentPlan::route_count() const {
  std::uint64_t routes = 0;
  for (const RoutingTree& tree : trees_) routes += tree.reachable_count();
  return routes;
}

const RoutingTree* ExperimentPlan::tree_for(NodeId destination) const {
  const auto it = std::lower_bound(destinations_.begin(), destinations_.end(),
                                   destination);
  if (it == destinations_.end() || *it != destination) return nullptr;
  return &trees_[static_cast<std::size_t>(it - destinations_.begin())];
}

const std::vector<SampledPair>& ExperimentPlan::sample_pairs(
    std::size_t per_destination, std::uint64_t salt) const {
  const auto key = std::make_pair(per_destination, salt);
  const auto cached = pair_cache_.find(key);
  if (cached != pair_cache_.end()) return cached->second;

  std::vector<SampledPair> pairs;
  Rng rng(config_.seed ^ (salt + 0x5051));
  const std::size_t n = graph_->node_count();
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const RoutingTree& tree = trees_[t];
    const std::size_t want = std::min(per_destination, n - 1);
    // Oversample to absorb the destination itself and unreachable sources.
    const std::size_t draw = std::min(n, want * 2 + 8);
    std::size_t taken = 0;
    for (std::size_t index : rng.sample_indices(n, draw)) {
      if (taken >= want) break;
      auto source = static_cast<NodeId>(index);
      if (source == tree.destination() || !tree.reachable(source)) continue;
      pairs.push_back({source, tree.destination(), t});
      ++taken;
    }
  }
  return pair_cache_.emplace(key, std::move(pairs)).first->second;
}

const std::vector<SampledTuple>& ExperimentPlan::sample_tuples(
    std::size_t per_destination, std::uint64_t salt) const {
  const auto key = std::make_pair(per_destination, salt);
  const auto cached = tuple_cache_.find(key);
  if (cached != tuple_cache_.end()) return cached->second;

  std::vector<SampledTuple> tuples;
  for (const SampledPair& pair : sample_pairs(per_destination, salt)) {
    const RoutingTree& tree = trees_[pair.tree_index];
    const std::vector<NodeId> path = tree.path_of(pair.source);
    // Intermediate ASes only; skip any AS adjacent to the source — "an AS
    // is not likely to distrust one of its own immediate neighbors" — and
    // the destination itself.
    for (std::size_t i = 2; i + 1 < path.size(); ++i) {
      if (graph_->has_edge(pair.source, path[i])) continue;
      tuples.push_back({pair.source, pair.destination, path[i],
                        pair.tree_index});
    }
  }
  return tuple_cache_.emplace(key, std::move(tuples)).first->second;
}

bool reachable_avoiding(const AsGraph& graph, NodeId source,
                        NodeId destination, NodeId avoid) {
  if (source == avoid || destination == avoid) return false;
  if (source == destination) return true;
  // Two breadth-first searches, one from each end; each level grows the
  // smaller frontier. side[v] is the search that reached v (1 from the
  // source, 2 from the destination); the avoided AS counts as reached by
  // neither, so no search enters it.
  std::vector<char> side(graph.node_count(), 0);
  side[source] = 1;
  side[destination] = 2;
  side[avoid] = 3;
  std::vector<NodeId> frontiers[2] = {{source}, {destination}};
  std::vector<NodeId> next;
  while (true) {
    const int grow = frontiers[0].size() <= frontiers[1].size() ? 0 : 1;
    const char mine = static_cast<char>(grow + 1);
    const char theirs = static_cast<char>(2 - grow);
    next.clear();
    for (const NodeId node : frontiers[grow]) {
      for (const topo::Neighbor& n : graph.neighbors(node)) {
        if (side[n.node] == theirs) return true;
        if (side[n.node] != 0) continue;
        side[n.node] = mine;
        next.push_back(n.node);
      }
    }
    // A search that runs dry has seen its whole component without meeting
    // the other one, which started inside the other endpoint's component.
    if (next.empty()) return false;
    frontiers[grow].swap(next);
  }
}

}  // namespace miro::eval
