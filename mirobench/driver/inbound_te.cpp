// inbound_te: inbound traffic engineering for a multi-homed stub, the calls
// eval/traffic_control.cpp and eval/te_comparison.cpp make. One op is one
// sampled multi-homed stub: solve its tree, scan the inbound shares, ask
// candidate power nodes for their candidates_at, re-solve pinned to each
// alternate next hop, and re-solve with origin prepending toward each
// provider at 1-3 extra hops, scanning the inbound shares after every
// re-solve. Modified re-solves dominate here; avoid_internet issues none.
#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "harness.hpp"

namespace mirobench {
namespace {

using miro::bgp::RoutingTree;
using miro::topo::NodeId;

constexpr std::size_t kPowerNodes = 4;
constexpr std::size_t kAlternatesPerPowerNode = 2;
constexpr std::uint32_t kMaxPrepend = 3;

/// Inbound traffic per ingress neighbor of the destination (uniform unit
/// traffic per source) and per transit AS.
struct InboundView {
  std::vector<std::uint32_t> ingress;
  std::vector<std::uint32_t> transit;
  std::uint32_t total = 0;
};

class InboundTe final : public Workload {
 public:
  InboundTe(const Inputs& inputs, Tracer& tracer)
      : graph_(generate_graph(inputs, tracer)),
        solver_(graph_),
        rng_(inputs.seed) {
    for (NodeId node = 0; node < graph_.node_count(); ++node)
      if (graph_.is_multi_homed_stub(node)) stubs_.push_back(node);
  }

  void op(Tracer& tracer) override {
    stub_ = stubs_[rng_.next_below(stubs_.size())];
    tree_.emplace(
        tracer.time("bgp.solve", [&] { return solver_.solve(stub_); }));
    const RoutingTree& tree = *tree_;
    const InboundView view = scan(tracer, tree);
    shares_.clear();

    // Candidate power nodes: the ASes most default paths traverse.
    std::vector<NodeId> power;
    for (NodeId node = 0; node < graph_.node_count(); ++node)
      if (view.transit[node] > 0) power.push_back(node);
    const std::size_t keep = std::min(kPowerNodes, power.size());
    std::partial_sort(power.begin(),
                      power.begin() + static_cast<std::ptrdiff_t>(keep),
                      power.end(), [&view](NodeId a, NodeId b) {
                        if (view.transit[a] != view.transit[b])
                          return view.transit[a] > view.transit[b];
                        return a < b;
                      });
    power.resize(keep);
    for (NodeId node : power) {
      const NodeId old_ingress = tree.ingress_neighbor(node);
      const auto candidates = tracer.time("bgp.candidates_at", [&] {
        return solver_.candidates_at(tree, node);
      });
      std::size_t tried = 0;
      for (const miro::bgp::Route& alternate : candidates) {
        if (tried == kAlternatesPerPowerNode) break;
        const NodeId new_ingress = alternate.path[alternate.path.size() - 2];
        if (new_ingress == old_ingress) continue;
        ++tried;
        const RoutingTree pinned = tracer.time("bgp.solve_pinned", [&] {
          return solver_.solve_pinned(
              stub_, miro::bgp::PinnedRoute{node, alternate.path[1]});
        });
        ++resolves_;
        pins_.push_back({node, alternate.path[1],
                         pinned.reachable(node) ? pinned.next_hop(node)
                                                : miro::topo::kInvalidNode});
        shares_.push_back(scan(tracer, pinned).ingress[new_ingress]);
      }
    }

    for (const NodeId provider :
         graph_.neighbors_with(stub_, miro::topo::Relationship::Provider)) {
      for (std::uint32_t extra = 1; extra <= kMaxPrepend; ++extra) {
        const RoutingTree padded = tracer.time("bgp.solve_prepended", [&] {
          return solver_.solve_prepended(
              stub_, miro::bgp::OriginPrepend{provider, extra});
        });
        ++resolves_;
        shares_.push_back(scan(tracer, padded).ingress[provider]);
      }
    }
    shares_.push_back(view.total);
    routes_ += static_cast<double>(tree.reachable_count());
    tree_bytes_ += static_cast<double>(tree.memory_bytes());
  }

  bool verify(Digest& digest, bool fold, std::string& why) override {
    const RoutingTree& tree = *tree_;
    if (!tree_is_stable(solver_, tree, why)) return false;
    for (const Pin& pin : pins_) {
      if (pin.got != miro::topo::kInvalidNode && pin.got != pin.forced) {
        why = "solve_pinned ignored the pinned next hop";
        pins_.clear();
        return false;
      }
    }
    pins_.clear();
    if (fold) {
      digest_tree(tree, graph_.node_count(), digest);
      digest.add_all(shares_);
    }
    return true;
  }

  double units() const override { return resolves_; }

  void counters(Counters& out) const override {
    out["topology.bytes_per_edge"] =
        static_cast<double>(graph_.memory_bytes()) /
        static_cast<double>(graph_.edge_count());
    if (routes_ > 0) out["bgp.tree_bytes_per_route"] = tree_bytes_ / routes_;
  }

 private:
  struct Pin {
    NodeId node;
    NodeId forced;
    NodeId got;
  };
  /// The inbound-share scan: every source's ingress link via
  /// RoutingTree::ingress_neighbor, and the transit count of every AS on
  /// its path (for picking power nodes).
  InboundView scan(Tracer& tracer, const RoutingTree& tree) const {
    return tracer.time("bgp.ingress_scan", [&] {
      InboundView view;
      view.ingress.assign(graph_.node_count(), 0);
      view.transit.assign(graph_.node_count(), 0);
      for (NodeId source = 0; source < graph_.node_count(); ++source) {
        const NodeId ingress = tree.ingress_neighbor(source);
        if (ingress == miro::topo::kInvalidNode) continue;
        ++view.ingress[ingress];
        ++view.total;
        for (NodeId hop = source; hop != ingress;) {
          hop = tree.next_hop(hop);
          ++view.transit[hop];
        }
      }
      return view;
    });
  }

  miro::topo::AsGraph graph_;
  miro::bgp::StableRouteSolver solver_;
  miro::Rng rng_;
  std::vector<NodeId> stubs_;
  NodeId stub_ = miro::topo::kInvalidNode;
  std::optional<RoutingTree> tree_;
  std::vector<std::uint32_t> shares_;
  std::vector<Pin> pins_;
  double resolves_ = 0;
  double routes_ = 0;
  double tree_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_inbound_te(const Inputs& inputs,
                                          Tracer& tracer) {
  return std::make_unique<InboundTe>(inputs, tracer);
}

}  // namespace mirobench
