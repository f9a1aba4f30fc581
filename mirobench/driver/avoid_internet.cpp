// avoid_internet: the read-many avoid-an-AS query path of Table 5.2 at
// Internet size. One op is one destination query: solve the destination's
// stable tree, then for each sampled (source, avoid) tuple on that tree run
// AlternatesEngine::avoid_as under all three export policies and the
// source-routing bound eval::reachable_avoiding.
#include <optional>

#include "common/rng.hpp"
#include "core/alternates.hpp"
#include "eval/experiments.hpp"
#include "harness.hpp"

namespace mirobench {
namespace {

using miro::topo::NodeId;

struct TupleResult {
  NodeId source;
  NodeId avoid;
  miro::core::AlternatesEngine::AvoidResult outcome[3];
  bool source_routing_ok = false;
};

class AvoidInternet final : public Workload {
 public:
  AvoidInternet(const Inputs& inputs, Tracer& tracer)
      : graph_(generate_graph(inputs, tracer)),
        solver_(graph_),
        engine_(solver_),
        rng_(inputs.seed),
        sources_per_destination_(inputs.smoke ? 2 : 4) {}

  void op(Tracer& tracer) override {
    const std::size_t n = graph_.node_count();
    const auto destination = static_cast<NodeId>(rng_.next_below(n));
    tree_.emplace(tracer.time("bgp.solve",
                              [&] { return solver_.solve(destination); }));
    const miro::bgp::RoutingTree& tree = *tree_;
    tuples_.clear();
    // Sampling as in eval::ExperimentPlan: reachable sources other than the
    // destination; every intermediate AS on the default path that is not
    // adjacent to the source is one tuple.
    std::size_t taken = 0;
    const std::size_t draw = std::min(n, sources_per_destination_ * 2 + 8);
    for (std::size_t index : rng_.sample_indices(n, draw)) {
      if (taken == sources_per_destination_) break;
      const auto source = static_cast<NodeId>(index);
      if (source == destination || !tree.reachable(source)) continue;
      ++taken;
      const std::vector<NodeId> path = tree.path_of(source);
      for (std::size_t i = 2; i + 1 < path.size(); ++i) {
        if (graph_.has_edge(source, path[i])) continue;
        TupleResult result{source, path[i], {}, false};
        for (std::size_t p = 0; p < 3; ++p) {
          result.outcome[p] = tracer.time("core.avoid_as", [&] {
            return engine_.avoid_as(tree, source, path[i],
                                    miro::core::kAllPolicies[p]);
          });
        }
        result.source_routing_ok =
            tracer.time("eval.reachable_avoiding", [&] {
              return miro::eval::reachable_avoiding(graph_, source,
                                                    destination, path[i]);
            });
        tuples_.push_back(std::move(result));
      }
    }
    tuple_count_ += tuples_.size();
    for (const TupleResult& tuple : tuples_) {
      for (const auto& outcome : tuple.outcome) {
        ++avoid_calls_;
        avoid_successes_ += outcome.success ? 1 : 0;
        ases_contacted_ += outcome.ases_contacted;
      }
    }
    routes_ += tree.reachable_count();
    tree_bytes_ += tree.memory_bytes();
  }

  bool verify(Digest& digest, bool fold, std::string& why) override {
    const miro::bgp::RoutingTree& tree = *tree_;
    if (!tree_is_stable(solver_, tree, why)) return false;
    for (const TupleResult& tuple : tuples_) {
      for (std::size_t p = 0; p < 3; ++p) {
        const auto& outcome = tuple.outcome[p];
        if (!outcome.success) continue;
        if (!outcome.chosen || !valid_path(outcome.chosen->as_path,
                                           tuple.source, tree.destination(),
                                           tuple.avoid)) {
          why = "avoid_as returned a path that is broken or crosses the "
                "avoided AS";
          return false;
        }
        if (!tuple.source_routing_ok) {
          why = "avoid_as succeeded where no path avoiding the AS exists";
          return false;
        }
      }
    }
    if (fold) {
      digest_tree(tree, graph_.node_count(), digest);
      for (const TupleResult& tuple : tuples_) {
        digest.add(tuple.source);
        digest.add(tuple.avoid);
        digest.add(tuple.source_routing_ok);
        for (const auto& outcome : tuple.outcome) {
          digest.add(outcome.success);
          digest.add(outcome.ases_contacted);
          if (outcome.chosen) digest.add_all(outcome.chosen->as_path);
        }
      }
    }
    return true;
  }

  double units() const override { return static_cast<double>(tuple_count_); }

  void counters(Counters& out) const override {
    out["topology.bytes_per_edge"] =
        static_cast<double>(graph_.memory_bytes()) /
        static_cast<double>(graph_.edge_count());
    if (routes_ > 0)
      out["bgp.tree_bytes_per_route"] = tree_bytes_ / routes_;
    if (avoid_calls_ > 0) {
      out["core.avoid_as.success_ratio"] = avoid_successes_ / avoid_calls_;
      out["core.avoid_as.ases_contacted_mean"] = ases_contacted_ / avoid_calls_;
    }
  }

 private:
  /// A usable avoid path: source..destination over real links, no repeated
  /// AS, and the avoided AS absent.
  bool valid_path(const std::vector<NodeId>& path, NodeId source,
                  NodeId destination, NodeId avoid) const {
    if (path.empty() || path.front() != source || path.back() != destination)
      return false;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] == avoid) return false;
      if (i > 0 && !graph_.has_edge(path[i - 1], path[i])) return false;
      for (std::size_t j = 0; j < i; ++j)
        if (path[j] == path[i]) return false;
    }
    return true;
  }

  miro::topo::AsGraph graph_;
  miro::bgp::StableRouteSolver solver_;
  miro::core::AlternatesEngine engine_;
  miro::Rng rng_;
  std::size_t sources_per_destination_;
  std::optional<miro::bgp::RoutingTree> tree_;
  std::vector<TupleResult> tuples_;
  std::size_t tuple_count_ = 0;
  double avoid_calls_ = 0;
  double avoid_successes_ = 0;
  double ases_contacted_ = 0;
  double routes_ = 0;
  double tree_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_avoid_internet(const Inputs& inputs,
                                              Tracer& tracer) {
  return std::make_unique<AvoidInternet>(inputs, tracer);
}

}  // namespace mirobench
