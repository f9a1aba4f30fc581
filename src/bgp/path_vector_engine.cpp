#include "bgp/path_vector_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/profile.hpp"

namespace miro::bgp {

PathVectorEngine::PathVectorEngine(const AsGraph& graph, NodeId destination,
                                   PolicyHooks hooks)
    : graph_(&graph), destination_(destination), hooks_(std::move(hooks)),
      best_(graph.node_count()) {
  require(destination < graph.node_count(),
          "PathVectorEngine: destination out of range");
  if (!hooks_.exports) {
    const AsGraph* g = graph_;
    hooks_.exports = [g](NodeId owner, const Route& route, NodeId neighbor) {
      return conventional_export_allows(route.route_class,
                                        g->relationship(owner, neighbor));
    };
  }
  if (!hooks_.imports) {
    hooks_.imports = [](const Route&) { return true; };
  }
  if (!hooks_.prefers) {
    const AsGraph* g = graph_;
    hooks_.prefers = [g](const Route& a, const Route& b) {
      return prefer(a, b, *g);
    };
  }
  // The destination's own route is fixed: the null AS path (Section 7.1.2).
  best_[destination_] = Route{{destination_}, RouteClass::Self};
}

std::optional<Route> PathVectorEngine::select(NodeId node) const {
  if (node == destination_)
    return Route{{destination_}, RouteClass::Self};
  std::optional<Route> chosen;
  for (const topo::Neighbor& n : graph_->neighbors(node)) {
    const std::optional<Route>& neighbor_best = best_[n.node];
    if (!neighbor_best) continue;
    if (!hooks_.exports(n.node, *neighbor_best, node)) continue;
    if (neighbor_best->traverses(node)) continue;  // implicit import policy
    Route candidate;
    candidate.path.reserve(neighbor_best->path.size() + 1);
    candidate.path.push_back(node);
    candidate.path.insert(candidate.path.end(), neighbor_best->path.begin(),
                          neighbor_best->path.end());
    candidate.route_class = classify(n.rel, neighbor_best->route_class);
    if (!hooks_.imports(candidate)) continue;
    if (!chosen || hooks_.prefers(candidate, *chosen))
      chosen = std::move(candidate);
  }
  return chosen;
}

bool PathVectorEngine::activate(NodeId node) {
  std::optional<Route> next = select(node);
  const bool changed = !(next.has_value() == best_[node].has_value() &&
                         (!next || next->path == best_[node]->path));
  if (changed) best_[node] = std::move(next);
  return changed;
}

std::optional<std::size_t> PathVectorEngine::run_to_stable(
    std::size_t max_sweeps) {
  obs::ScopedSpan span(obs::profile(), "bgp/run_to_stable", "bgp");
  std::size_t activations = 0;
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    bool any_change = false;
    for (NodeId node = 0; node < graph_->node_count(); ++node) {
      any_change = activate(node) || any_change;
      ++activations;
    }
    if (!any_change) return activations;
  }
  return std::nullopt;
}

bool PathVectorEngine::step_synchronous() {
  std::vector<std::optional<Route>> next(best_.size());
  for (NodeId node = 0; node < graph_->node_count(); ++node)
    next[node] = select(node);
  bool changed = false;
  for (NodeId node = 0; node < graph_->node_count(); ++node) {
    const bool same = next[node].has_value() == best_[node].has_value() &&
                      (!next[node] || next[node]->path == best_[node]->path);
    if (!same) changed = true;
  }
  best_ = std::move(next);
  return changed;
}

std::optional<std::size_t> PathVectorEngine::run_random(
    Rng& rng, std::size_t max_activations) {
  obs::ScopedSpan span(obs::profile(), "bgp/run_random", "bgp");
  const std::size_t n = graph_->node_count();
  std::size_t quiet_streak = 0;
  for (std::size_t step = 0; step < max_activations; ++step) {
    NodeId node = static_cast<NodeId>(rng.next_below(n));
    if (activate(node)) {
      quiet_streak = 0;
    } else if (++quiet_streak >= n * 4 && is_stable()) {
      // Heuristic check interval, then an exact stability test.
      return step + 1;
    }
  }
  return is_stable() ? std::optional<std::size_t>{max_activations}
                     : std::nullopt;
}

bool PathVectorEngine::is_stable() {
  for (NodeId node = 0; node < graph_->node_count(); ++node) {
    std::optional<Route> next = select(node);
    const bool same = next.has_value() == best_[node].has_value() &&
                      (!next || next->path == best_[node]->path);
    if (!same) return false;
  }
  return true;
}

const Route& PathVectorEngine::best(NodeId node) const {
  require(best_[node].has_value(), "PathVectorEngine::best: no route");
  return *best_[node];
}

std::vector<Route> PathVectorEngine::candidates(NodeId node) const {
  std::vector<Route> out;
  for (const topo::Neighbor& n : graph_->neighbors(node)) {
    const std::optional<Route>& neighbor_best = best_[n.node];
    if (!neighbor_best) continue;
    if (!hooks_.exports(n.node, *neighbor_best, node)) continue;
    if (neighbor_best->traverses(node)) continue;
    Route candidate;
    candidate.path.push_back(node);
    candidate.path.insert(candidate.path.end(), neighbor_best->path.begin(),
                          neighbor_best->path.end());
    candidate.route_class = classify(n.rel, neighbor_best->route_class);
    if (!hooks_.imports(candidate)) continue;
    out.push_back(std::move(candidate));
  }
  std::sort(out.begin(), out.end(), [this](const Route& a, const Route& b) {
    return hooks_.prefers(a, b);
  });
  return out;
}

}  // namespace miro::bgp
