#include "bgp/route_solver.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.hpp"
#include "obs/profile.hpp"

namespace miro::bgp {

RoutingTree::RoutingTree(const AsGraph& graph, NodeId destination,
                         Arena* arena)
    : graph_(&graph), destination_(destination),
      entries_(graph.node_count(), Entry{}, ArenaAllocator<Entry>(arena)) {}

std::vector<NodeId> RoutingTree::path_of(NodeId node) const {
  std::vector<NodeId> path;
  if (!entries_[node].reachable) return path;
  NodeId current = node;
  path.push_back(current);
  while (current != destination_) {
    current = entries_[current].next_hop;
    path.push_back(current);
    require(path.size() <= entries_.size(), "RoutingTree: next-hop loop");
  }
  return path;
}

Route RoutingTree::route_of(NodeId node) const {
  require(entries_[node].reachable, "RoutingTree::route_of: unreachable node");
  return Route{path_of(node), entries_[node].cls};
}

NodeId RoutingTree::ingress_neighbor(NodeId node) const {
  if (!entries_[node].reachable || node == destination_)
    return topo::kInvalidNode;
  NodeId current = node;
  std::size_t steps = 0;
  while (entries_[current].next_hop != destination_) {
    current = entries_[current].next_hop;
    require(++steps <= entries_.size(), "RoutingTree: next-hop loop");
  }
  return current;
}

std::size_t RoutingTree::reachable_count() const {
  std::size_t count = 0;
  for (const Entry& e : entries_)
    if (e.reachable) ++count;
  return count;
}

RoutingTree StableRouteSolver::run(NodeId destination, const PinnedRoute* pin,
                                   const OriginPrepend* prepend,
                                   NodeId exclude, Arena* arena) const {
  obs::ScopedSpan span(obs::profile(), "bgp/solve_tree", "bgp");
  const AsGraph& graph = *graph_;
  require(destination < graph.node_count(),
          "StableRouteSolver: destination out of range");
  RoutingTree tree(graph, destination, arena);
  auto& entries = tree.entries_;

  // An entry with a next hop but not yet reachable holds the node's best
  // offer so far in (class rank, length, next-hop AS number) order, and the
  // node waits in that offer's (class, length) bucket. Every export keeps or
  // worsens the class and adds at least one hop, so draining the buckets in
  // (rank, length) order finalizes routes in preference order, and no
  // bucket is refilled while it drains. Bucket keys cap the prepend padding
  // at the node count: padded routes still sort after every unpadded route
  // of their class, and the bucket arrays stay O(V) for any `extra`.
  const std::uint32_t extra =
      prepend != nullptr ? prepend->extra : std::uint32_t{0};
  const auto key_extra = static_cast<std::uint32_t>(
      std::min<std::size_t>(extra, graph.node_count()));
  std::array<std::vector<std::vector<NodeId>>, 4> buckets;
  const auto enqueue = [&buckets](RouteClass cls, std::uint32_t key,
                                  NodeId node) {
    std::vector<std::vector<NodeId>>& by_length = buckets[rank(cls)];
    if (key >= by_length.size()) by_length.resize(key + 1);
    by_length[key].push_back(node);
  };
  entries[destination] = {destination, 0, RouteClass::Self, false};
  enqueue(RouteClass::Self, 0, destination);

  for (std::vector<std::vector<NodeId>>& by_length : buckets) {
    for (std::uint32_t key = 0; key < by_length.size(); ++key) {
      const std::vector<NodeId> bucket = std::move(by_length[key]);
      for (const NodeId node : bucket) {
        RoutingTree::Entry& entry = entries[node];
        if (entry.reachable) continue;  // a stale or repeated bucket entry
        entry.reachable = true;
        const AsNumber asn = graph.as_number(node);
        // Export the finalized route to every neighbor the conventional
        // policy permits; the neighbor classifies it by the link it arrives
        // on. n.rel is what the neighbor is *to node* — exactly the argument
        // the export rule takes.
        for (const topo::Neighbor& n : graph.neighbors(node)) {
          if (!conventional_export_allows(entry.cls, n.rel)) continue;
          if (n.node == exclude) continue;  // the excised AS never selects
          RoutingTree::Entry& offer = entries[n.node];
          if (offer.reachable) continue;
          if (pin != nullptr && n.node == pin->node &&
              node != pin->forced_next_hop)
            continue;  // the pinned AS may only use its negotiated next hop
          const RouteClass cls = classify(topo::reverse(n.rel), entry.cls);
          // Origin prepending pads the advertised path toward one neighbor.
          const bool padded = prepend != nullptr && node == destination &&
                              n.node == prepend->neighbor;
          const std::uint32_t length = entry.length + 1 + (padded ? extra : 0);
          // Keep the tentative offer unless this one is strictly better.
          if (offer.next_hop != topo::kInvalidNode &&
              (offer.cls != cls ? rank(offer.cls) < rank(cls)
               : offer.length != length
                   ? offer.length < length
                   : graph.as_number(offer.next_hop) < asn))
            continue;
          offer = {node, length, cls, false};
          enqueue(cls, key + 1 + (padded ? key_extra : 0), n.node);
        }
      }
    }
  }
  return tree;
}

RoutingTree StableRouteSolver::solve(NodeId destination, Arena* arena) const {
  return run(destination, nullptr, nullptr, topo::kInvalidNode, arena);
}

RoutingTree StableRouteSolver::solve_pinned(NodeId destination,
                                            const PinnedRoute& pin) const {
  require(pin.node != topo::kInvalidNode &&
              pin.forced_next_hop != topo::kInvalidNode,
          "solve_pinned: invalid pin");
  require(graph_->has_edge(pin.node, pin.forced_next_hop),
          "solve_pinned: forced next hop is not a neighbor");
  return run(destination, &pin, nullptr);
}

RoutingTree StableRouteSolver::solve_prepended(
    NodeId destination, const OriginPrepend& prepend) const {
  require(graph_->has_edge(destination, prepend.neighbor),
          "solve_prepended: prepend neighbor is not adjacent");
  // Path lengths are 32-bit: a simple path plus the padding must fit.
  require(prepend.extra <=
              std::numeric_limits<std::uint32_t>::max() - graph_->node_count(),
          "solve_prepended: padding overflows the path length");
  return run(destination, nullptr, &prepend);
}

RoutingTree StableRouteSolver::solve_avoiding(NodeId destination,
                                              NodeId avoid) const {
  require(avoid != topo::kInvalidNode && avoid != destination,
          "solve_avoiding: cannot avoid the destination");
  return run(destination, nullptr, nullptr, avoid);
}

std::vector<Route> StableRouteSolver::candidates_at(const RoutingTree& tree,
                                                    NodeId node) const {
  const AsGraph& graph = *graph_;
  std::vector<Route> candidates;
  if (node == tree.destination()) return candidates;
  for (const topo::Neighbor& n : graph.neighbors(node)) {
    if (!tree.reachable(n.node)) continue;
    const RouteClass neighbor_cls = tree.route_class(n.node);
    // The neighbor's export policy: `node` is reverse(n.rel) to the neighbor.
    if (!conventional_export_allows(neighbor_cls, topo::reverse(n.rel)))
      continue;
    std::vector<NodeId> neighbor_path = tree.path_of(n.node);
    if (std::find(neighbor_path.begin(), neighbor_path.end(), node) !=
        neighbor_path.end())
      continue;  // implicit import policy: drop looping paths
    Route route;
    route.path.reserve(neighbor_path.size() + 1);
    route.path.push_back(node);
    route.path.insert(route.path.end(), neighbor_path.begin(),
                      neighbor_path.end());
    route.route_class = classify(n.rel, neighbor_cls);
    candidates.push_back(std::move(route));
  }
  // Deterministic order: best first.
  std::sort(candidates.begin(), candidates.end(),
            [&graph](const Route& a, const Route& b) {
              return prefer(a, b, graph);
            });
  return candidates;
}

}  // namespace miro::bgp
