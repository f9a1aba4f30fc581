// Lazy cache of stable routing trees, one per destination.
//
// Both the control-plane agents and the evaluation harness need the stable
// routes toward many destinations; solving is cheap (one O(V + E) bucket
// pass per destination) but worth caching across agents within a scenario.
//
// The cache is the eval pipeline's dominant heap consumer (one Entry per AS
// per destination), so it participates in the memory observability layer
// both ways: the map's own nodes are tagged live through a
// CountingAllocator when a MemCounters account is passed at construction
// (null = untracked, zero cost beyond one branch per allocation), and
// memory_bytes() walks the cached trees for the deterministic footprint the
// bench rows report.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "bgp/path_table.hpp"
#include "bgp/route_solver.hpp"
#include "common/arena.hpp"
#include "common/memtrack.hpp"

namespace miro::core {

class RouteStore {
 public:
  explicit RouteStore(const topo::AsGraph& graph,
                      MemCounters* counters = nullptr)
      : solver_(graph),
        trees_(TreeAlloc(counters)),
        // One slab holds exactly one tree's entry array, so the arena's
        // reserved bytes track the cache contents with zero slack.
        arena_(std::max<std::size_t>(
            1, graph.node_count() * bgp::RoutingTree::bytes_per_node())) {}

  /// The stable routing tree toward `destination`, solved on first use into
  /// the store's arena (entry arrays are contiguous per tree and freed all
  /// at once with the store).
  const bgp::RoutingTree& tree(topo::NodeId destination) {
    auto it = trees_.find(destination);
    if (it == trees_.end()) {
      it = trees_
               .emplace(destination, std::make_unique<bgp::RoutingTree>(
                                         solver_.solve(destination, &arena_)))
               .first;
    }
    return *it->second;
  }

  std::size_t tree_count() const { return trees_.size(); }

  /// The store's AS-path intern table: agents that pin or compare routes
  /// (tunnel bookkeeping, RIB snapshots) intern here so equal paths share
  /// storage and compare as one integer.
  bgp::PathTable& paths() { return paths_; }
  const bgp::PathTable& paths() const { return paths_; }
  /// Interns a route's path; resolve back with materialize().
  bgp::InternedRoute intern(const bgp::Route& route) {
    return paths_.intern(route);
  }
  bgp::Route materialize(const bgp::InternedRoute& route) const {
    return paths_.materialize(route);
  }

  /// Resident byte footprint of the cache: the map's nodes, the arena
  /// holding every cached tree's entry array (counted once, not per tree —
  /// see RoutingTree::memory_bytes), and the intern table. Capacity-based
  /// and deterministic for a given solve/intern sequence.
  std::uint64_t memory_bytes() const {
    return hash_map_bytes(trees_) + paths_.memory_bytes() +
           arena_.reserved_bytes() +
           static_cast<std::uint64_t>(trees_.size()) *
               sizeof(bgp::RoutingTree);
  }

  const bgp::StableRouteSolver& solver() const { return solver_; }
  const topo::AsGraph& graph() const { return solver_.graph(); }

 private:
  using TreeMap =
      std::unordered_map<topo::NodeId, std::unique_ptr<bgp::RoutingTree>,
                         std::hash<topo::NodeId>, std::equal_to<topo::NodeId>,
                         CountingAllocator<std::pair<
                             const topo::NodeId,
                             std::unique_ptr<bgp::RoutingTree>>>>;
  using TreeAlloc = TreeMap::allocator_type;

  bgp::StableRouteSolver solver_;
  TreeMap trees_;
  Arena arena_;
  bgp::PathTable paths_;
};

}  // namespace miro::core
