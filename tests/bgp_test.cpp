#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bgp/path_table.hpp"
#include "common/error.hpp"
#include "bgp/path_vector_engine.hpp"
#include "bgp/route.hpp"
#include "bgp/route_solver.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {

// Corrupts a solved tree's next-hop entries to exercise the bounded-walk
// guards — states no correct solver run can produce.
struct RoutingTreeTestAccess {
  static void set_next_hop(RoutingTree& tree, topo::NodeId node,
                           topo::NodeId next_hop) {
    tree.entries_[node].reachable = true;
    tree.entries_[node].next_hop = next_hop;
  }
};

namespace {

using test::Figure31Topology;
using topo::Relationship;

TEST(RouteClass, ClassifyByFirstLink) {
  EXPECT_EQ(classify(Relationship::Customer, RouteClass::Provider),
            RouteClass::Customer);
  EXPECT_EQ(classify(Relationship::Peer, RouteClass::Customer),
            RouteClass::Peer);
  EXPECT_EQ(classify(Relationship::Provider, RouteClass::Self),
            RouteClass::Provider);
}

TEST(RouteClass, SiblingInheritsNeighborClass) {
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Peer),
            RouteClass::Peer);
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Provider),
            RouteClass::Provider);
  // All-sibling chain back to the origin counts as a customer route.
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Self),
            RouteClass::Customer);
}

TEST(RouteClass, ConventionalExportRules) {
  // Customer routes go everywhere.
  for (auto rel : {Relationship::Customer, Relationship::Peer,
                   Relationship::Provider, Relationship::Sibling}) {
    EXPECT_TRUE(conventional_export_allows(RouteClass::Customer, rel));
    EXPECT_TRUE(conventional_export_allows(RouteClass::Self, rel));
  }
  // Peer/provider routes only to customers and siblings.
  for (auto cls : {RouteClass::Peer, RouteClass::Provider}) {
    EXPECT_TRUE(conventional_export_allows(cls, Relationship::Customer));
    EXPECT_TRUE(conventional_export_allows(cls, Relationship::Sibling));
    EXPECT_FALSE(conventional_export_allows(cls, Relationship::Peer));
    EXPECT_FALSE(conventional_export_allows(cls, Relationship::Provider));
  }
}

TEST(RouteClass, LocalPrefBandsAreOrdered) {
  EXPECT_GT(conventional_local_pref(RouteClass::Customer),
            conventional_local_pref(RouteClass::Peer));
  EXPECT_GT(conventional_local_pref(RouteClass::Peer),
            conventional_local_pref(RouteClass::Provider));
}

TEST(Route, TraversesAndAccessors) {
  Route route{{0, 1, 2}, RouteClass::Customer};
  EXPECT_EQ(route.owner(), 0u);
  EXPECT_EQ(route.destination(), 2u);
  EXPECT_EQ(route.next_hop(), 1u);
  EXPECT_EQ(route.length(), 2u);
  EXPECT_TRUE(route.traverses(1));
  EXPECT_FALSE(route.traverses(3));
}

TEST(Route, PreferOrdersByClassLengthNextHop) {
  Figure31Topology fig;
  Route customer{{fig.b, fig.e, fig.f}, RouteClass::Customer};
  Route peer{{fig.b, fig.c, fig.f}, RouteClass::Peer};
  EXPECT_TRUE(prefer(customer, peer, fig.graph));
  EXPECT_FALSE(prefer(peer, customer, fig.graph));

  Route shorter{{fig.a, fig.b, fig.f}, RouteClass::Provider};
  Route longer{{fig.a, fig.b, fig.e, fig.f}, RouteClass::Provider};
  EXPECT_TRUE(prefer(shorter, longer, fig.graph));

  Route via_b{{fig.a, fig.b, fig.e, fig.f}, RouteClass::Provider};
  Route via_d{{fig.a, fig.d, fig.e, fig.f}, RouteClass::Provider};
  EXPECT_TRUE(prefer(via_b, via_d, fig.graph));  // AS 2 < AS 4
}

// ---------------------------------------------------------------- solver

TEST(StableRouteSolver, Figure31DefaultRoutes) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);

  EXPECT_EQ(tree.reachable_count(), 6u);
  // The figure's stable routes: C->CF, E->EF, B->BEF, D->DEF, A->ABEF.
  EXPECT_EQ(tree.path_of(fig.c), (std::vector<topo::NodeId>{fig.c, fig.f}));
  EXPECT_EQ(tree.path_of(fig.e), (std::vector<topo::NodeId>{fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.b),
            (std::vector<topo::NodeId>{fig.b, fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.d),
            (std::vector<topo::NodeId>{fig.d, fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.a),
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.e, fig.f}));
  EXPECT_EQ(tree.route_class(fig.b), RouteClass::Customer);
  EXPECT_EQ(tree.route_class(fig.a), RouteClass::Provider);
}

TEST(StableRouteSolver, IngressNeighbor) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  EXPECT_EQ(tree.ingress_neighbor(fig.a), fig.e);
  EXPECT_EQ(tree.ingress_neighbor(fig.c), fig.c);
  EXPECT_EQ(tree.ingress_neighbor(fig.f), topo::kInvalidNode);
}

// Regression: ingress_neighbor walked next_hop chains with no loop guard;
// a corrupted (or buggy) tree with a next-hop cycle spun forever. The walk
// is now bounded by the node count and throws instead.
TEST(StableRouteSolver, IngressNeighborGuardsAgainstNextHopLoops) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  RoutingTree tree = solver.solve(fig.f);
  // Force a two-node cycle b -> e -> b that never reaches the destination.
  RoutingTreeTestAccess::set_next_hop(tree, fig.b, fig.e);
  RoutingTreeTestAccess::set_next_hop(tree, fig.e, fig.b);
  EXPECT_THROW(tree.ingress_neighbor(fig.b), Error);
  // Nodes outside the cycle still resolve.
  EXPECT_EQ(tree.ingress_neighbor(fig.c), fig.c);
}

TEST(StableRouteSolver, CandidatesAtBIncludePeerRoute) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.b);
  // B learns BEF from its customer E and BCF from its peer C; A's route
  // would loop through B and is rejected.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].path,
            (std::vector<topo::NodeId>{fig.b, fig.e, fig.f}));
  EXPECT_EQ(candidates[0].route_class, RouteClass::Customer);
  EXPECT_EQ(candidates[1].path,
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(candidates[1].route_class, RouteClass::Peer);
}

TEST(StableRouteSolver, CandidatesAtARespectExportRules) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.a);
  // A hears from its providers B and D (both announce customer routes).
  ASSERT_EQ(candidates.size(), 2u);
  for (const Route& route : candidates)
    EXPECT_EQ(route.route_class, RouteClass::Provider);
}

TEST(StableRouteSolver, ValleyFreePaths) {
  // Property: on a generated topology every stable path is valley-free —
  // once the path goes down (provider->customer) or across a peer link, it
  // never goes up or crosses another peer link again.
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  StableRouteSolver solver(graph);
  for (topo::NodeId dest : {topo::NodeId{3}, topo::NodeId{40},
                            static_cast<topo::NodeId>(graph.node_count() - 1)}) {
    const RoutingTree tree = solver.solve(dest);
    for (topo::NodeId source = 0; source < graph.node_count(); ++source) {
      if (!tree.reachable(source)) continue;
      const auto path = tree.path_of(source);
      bool descending = false;
      int peer_links = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Relationship rel = graph.relationship(path[i], path[i + 1]);
        if (rel == Relationship::Sibling) continue;
        if (rel == Relationship::Provider) {
          // going up (next hop is my provider): must not already descend
          EXPECT_FALSE(descending) << "valley in path";
          EXPECT_EQ(peer_links, 0) << "up after peer link";
        } else if (rel == Relationship::Peer) {
          ++peer_links;
          EXPECT_LE(peer_links, 1) << "two peer links on a path";
          EXPECT_FALSE(descending) << "peer link after descending";
        } else {
          descending = true;
        }
      }
    }
  }
}

TEST(StableRouteSolver, AgreesWithPathVectorEngineOnRandomTopologies) {
  // The closed-form solver must compute exactly the stable state the
  // asynchronous protocol converges to.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.seed = seed;
    params.node_count = 120;
    const topo::AsGraph graph = topo::generate(params);
    StableRouteSolver solver(graph);
    for (topo::NodeId dest : {topo::NodeId{0}, topo::NodeId{60}}) {
      const RoutingTree tree = solver.solve(dest);
      PathVectorEngine engine(graph, dest);
      ASSERT_TRUE(engine.run_to_stable().has_value());
      for (topo::NodeId node = 0; node < graph.node_count(); ++node) {
        ASSERT_EQ(tree.reachable(node), engine.has_route(node))
            << "node " << node << " dest " << dest << " seed " << seed;
        if (tree.reachable(node)) {
          EXPECT_EQ(tree.path_of(node), engine.best(node).path)
              << "node " << node << " dest " << dest << " seed " << seed;
        }
      }
    }
  }
}

TEST(StableRouteSolver, SiblingLinksAreTransparent) {
  // s1 - s2 are siblings; dest hangs off s2 as a customer; x is a peer of
  // s1. The route x-s1-s2-dest must classify as a peer route at x and be
  // available (s1 exports the sibling-learned customer route to its peer).
  topo::AsGraph graph;
  const auto s1 = graph.add_as(10);
  const auto s2 = graph.add_as(20);
  const auto dest = graph.add_as(30);
  const auto x = graph.add_as(40);
  graph.add_sibling(s1, s2);
  graph.add_customer_provider(/*provider=*/s2, /*customer=*/dest);
  graph.add_peer(x, s1);
  StableRouteSolver solver(graph);
  const RoutingTree tree = solver.solve(dest);
  ASSERT_TRUE(tree.reachable(s1));
  EXPECT_EQ(tree.route_class(s1), RouteClass::Customer);  // via sibling
  ASSERT_TRUE(tree.reachable(x));
  EXPECT_EQ(tree.route_class(x), RouteClass::Peer);
  EXPECT_EQ(tree.path_of(x), (std::vector<topo::NodeId>{x, s1, s2, dest}));
}

TEST(StableRouteSolver, PeerRouteNotExportedToPeer) {
  // x - y peers, y - z peers, z originates. x must NOT reach z through y.
  topo::AsGraph graph;
  const auto x = graph.add_as(1);
  const auto y = graph.add_as(2);
  const auto z = graph.add_as(3);
  graph.add_peer(x, y);
  graph.add_peer(y, z);
  StableRouteSolver solver(graph);
  const RoutingTree tree = solver.solve(z);
  EXPECT_TRUE(tree.reachable(y));
  EXPECT_FALSE(tree.reachable(x));
}

TEST(StableRouteSolver, PinnedRouteForcesAlternate) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  // Pin B to its peer route via C; everyone re-selects.
  const RoutingTree pinned =
      solver.solve_pinned(fig.f, PinnedRoute{fig.b, fig.c});
  EXPECT_EQ(pinned.path_of(fig.b),
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(pinned.route_class(fig.b), RouteClass::Peer);
  // A still reaches F; its route now follows B's new path or goes via D.
  ASSERT_TRUE(pinned.reachable(fig.a));
  const auto a_path = pinned.path_of(fig.a);
  EXPECT_EQ(a_path.back(), fig.f);
}

TEST(StableRouteSolver, PinnedRouteRequiresAdjacency) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  EXPECT_THROW(solver.solve_pinned(fig.f, PinnedRoute{fig.a, fig.f}), Error);
}

// Randomized oracle for the modified solves: each is compared with the
// asynchronous engine under the policy hook that expresses the same
// modification, on `tiny` graphs with sampled destinations, pins, avoided
// ASes and prepend neighbors.
class ModifiedSolveOracle : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    topo::GeneratorParams params = topo::profile("tiny");
    params.seed = GetParam();
    params.node_count = 120;
    graph_ = topo::generate(params);
  }

  // Five distinct sampled destinations.
  std::vector<topo::NodeId> destinations() {
    std::vector<topo::NodeId> out;
    for (std::size_t index : rng_.sample_indices(graph_.node_count(), 5))
      out.push_back(static_cast<topo::NodeId>(index));
    return out;
  }

  topo::NodeId random_neighbor(topo::NodeId node) {
    const topo::NeighborRange range = graph_.neighbors(node);
    return range[rng_.next_below(range.size())].node;
  }

  // Runs the engine to its stable state and compares it with `tree` node by
  // node; `padding` is the virtual length the solver adds to a route.
  void expect_agrees(const RoutingTree& tree, PolicyHooks hooks,
                     const std::function<std::uint32_t(const Route&)>& padding,
                     const std::string& label) {
    PathVectorEngine engine(graph_, tree.destination(), std::move(hooks));
    ASSERT_TRUE(engine.run_to_stable().has_value()) << label;
    for (topo::NodeId node = 0; node < graph_.node_count(); ++node) {
      ASSERT_EQ(tree.reachable(node), engine.has_route(node))
          << label << " node " << node;
      if (!tree.reachable(node)) continue;
      const Route& best = engine.best(node);
      EXPECT_EQ(tree.path_of(node), best.path) << label << " node " << node;
      EXPECT_EQ(tree.route_class(node), best.route_class)
          << label << " node " << node;
      EXPECT_EQ(tree.path_length(node), best.length() + padding(best))
          << label << " node " << node;
    }
  }

  static std::uint32_t no_padding(const Route&) { return 0; }

  topo::AsGraph graph_;
  Rng rng_{GetParam() * 7919};
};

TEST_P(ModifiedSolveOracle, PinnedSolveMatchesEngineWithImportFilter) {
  StableRouteSolver solver(graph_);
  for (topo::NodeId dest : destinations()) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto node =
          static_cast<topo::NodeId>(rng_.next_below(graph_.node_count()));
      if (node == dest || graph_.degree(node) == 0) continue;
      const PinnedRoute pin{node, random_neighbor(node)};
      PolicyHooks hooks;
      hooks.imports = [pin](const Route& candidate) {
        return candidate.owner() != pin.node ||
               candidate.next_hop() == pin.forced_next_hop;
      };
      expect_agrees(solver.solve_pinned(dest, pin), std::move(hooks),
                    no_padding,
                    "dest " + std::to_string(dest) + " pin " +
                        std::to_string(pin.node) + "->" +
                        std::to_string(pin.forced_next_hop));
    }
  }
}

TEST_P(ModifiedSolveOracle, AvoidingSolveMatchesEngineWithImportFilter) {
  StableRouteSolver solver(graph_);
  for (topo::NodeId dest : destinations()) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto avoid =
          static_cast<topo::NodeId>(rng_.next_below(graph_.node_count()));
      if (avoid == dest) continue;
      PolicyHooks hooks;
      hooks.imports = [avoid](const Route& candidate) {
        return !candidate.traverses(avoid);
      };
      expect_agrees(solver.solve_avoiding(dest, avoid), std::move(hooks),
                    no_padding,
                    "dest " + std::to_string(dest) + " avoid " +
                        std::to_string(avoid));
    }
  }
}

TEST_P(ModifiedSolveOracle, PrependedSolveMatchesEngineWithPaddedLengths) {
  StableRouteSolver solver(graph_);
  for (topo::NodeId dest : destinations()) {
    if (graph_.degree(dest) == 0) continue;
    for (int trial = 0; trial < 3; ++trial) {
      const OriginPrepend prepend{
          random_neighbor(dest),
          static_cast<std::uint32_t>(1 + rng_.next_below(3))};
      // Routes whose last hop is the prepend neighbor carry the padding.
      const auto padding = [prepend](const Route& route) -> std::uint32_t {
        return route.path.size() >= 2 &&
                       route.path[route.path.size() - 2] == prepend.neighbor
                   ? prepend.extra
                   : 0;
      };
      PolicyHooks hooks;
      hooks.prefers = [this, padding](const Route& a, const Route& b) {
        if (a.route_class != b.route_class)
          return rank(a.route_class) < rank(b.route_class);
        const std::size_t length_a = a.length() + padding(a);
        const std::size_t length_b = b.length() + padding(b);
        if (length_a != length_b) return length_a < length_b;
        const topo::AsNumber next_a = graph_.as_number(a.next_hop());
        const topo::AsNumber next_b = graph_.as_number(b.next_hop());
        if (next_a != next_b) return next_a < next_b;
        return a.path < b.path;
      };
      expect_agrees(solver.solve_prepended(dest, prepend), std::move(hooks),
                    padding,
                    "dest " + std::to_string(dest) + " prepend " +
                        std::to_string(prepend.neighbor) + " x" +
                        std::to_string(prepend.extra));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TinySeeds, ModifiedSolveOracle,
                         ::testing::Values(1u, 2u, 3u));

TEST(StableRouteSolver, PrependLongerThanAnyPathKeepsOrderAndLength) {
  // z is a stub of p1 and p2, both customers of t. Padding z's link to p1
  // far beyond any simple path length sends t via p2 although p1 has the
  // lower AS number, and the reported length carries the whole padding.
  topo::AsGraph graph;
  const auto p1 = graph.add_as(1);
  const auto p2 = graph.add_as(2);
  const auto t = graph.add_as(3);
  const auto z = graph.add_as(4);
  graph.add_customer_provider(/*provider=*/p1, /*customer=*/z);
  graph.add_customer_provider(p2, z);
  graph.add_customer_provider(t, p1);
  graph.add_customer_provider(t, p2);
  StableRouteSolver solver(graph);
  EXPECT_EQ(solver.solve(z).next_hop(t), p1);  // the AS-number tie-break
  const std::uint32_t extra = 1'000'000'000;
  const RoutingTree padded =
      solver.solve_prepended(z, OriginPrepend{p1, extra});
  EXPECT_EQ(padded.route_class(p1), RouteClass::Customer);
  EXPECT_EQ(padded.path_length(p1), 1u + extra);
  EXPECT_EQ(padded.path_of(t), (std::vector<topo::NodeId>{t, p2, z}));
  EXPECT_EQ(padded.path_length(t), 2u);
  // Padding that would wrap a 32-bit path length is rejected.
  EXPECT_THROW(solver.solve_prepended(z, OriginPrepend{p1, 0xFFFFFFFFu}),
               Error);
}

// ------------------------------------------------------------- engine

TEST(PathVectorEngine, ActivationReachesStability) {
  Figure31Topology fig;
  PathVectorEngine engine(fig.graph, fig.f);
  EXPECT_FALSE(engine.is_stable());  // nothing propagated yet
  auto activations = engine.run_to_stable();
  ASSERT_TRUE(activations.has_value());
  EXPECT_TRUE(engine.is_stable());
  EXPECT_EQ(engine.best(fig.a).path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.e, fig.f}));
}

TEST(PathVectorEngine, RandomFairScheduleConverges) {
  Figure31Topology fig;
  PathVectorEngine engine(fig.graph, fig.f);
  Rng rng(5);
  auto activations = engine.run_random(rng, 100000);
  ASSERT_TRUE(activations.has_value());
  EXPECT_EQ(engine.best(fig.a).path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.e, fig.f}));
}

TEST(PathVectorEngine, CandidatesMatchSolver) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  PathVectorEngine engine(fig.graph, fig.f);
  ASSERT_TRUE(engine.run_to_stable().has_value());
  const auto engine_candidates = engine.candidates(fig.b);
  const auto solver_candidates = solver.candidates_at(tree, fig.b);
  ASSERT_EQ(engine_candidates.size(), solver_candidates.size());
  for (std::size_t i = 0; i < engine_candidates.size(); ++i)
    EXPECT_EQ(engine_candidates[i].path, solver_candidates[i].path);
}

TEST(PathVectorEngine, DestinationHoldsTheNullPathBeforeAnyActivation) {
  Figure31Topology fig;
  PathVectorEngine engine(fig.graph, fig.f);
  EXPECT_EQ(engine.destination(), fig.f);
  ASSERT_TRUE(engine.has_route(fig.f));
  EXPECT_EQ(engine.best(fig.f).path, (std::vector<topo::NodeId>{fig.f}));
  EXPECT_EQ(engine.best(fig.f).route_class, RouteClass::Self);
  for (topo::NodeId node : {fig.a, fig.b, fig.c, fig.d, fig.e})
    EXPECT_FALSE(engine.has_route(node)) << "node " << node;
}

TEST(PathVectorEngine, ActivateReportsWhetherTheChoiceChanged) {
  Figure31Topology fig;
  PathVectorEngine engine(fig.graph, fig.f);
  // A's neighbors B and D know nothing yet: activating A is a no-op.
  EXPECT_FALSE(engine.activate(fig.a));
  EXPECT_FALSE(engine.has_route(fig.a));
  // E hears F directly; a second activation finds the same route.
  EXPECT_TRUE(engine.activate(fig.e));
  EXPECT_EQ(engine.best(fig.e).path,
            (std::vector<topo::NodeId>{fig.e, fig.f}));
  EXPECT_FALSE(engine.activate(fig.e));
  // The destination never changes its own route.
  EXPECT_FALSE(engine.activate(fig.f));
}

TEST(PathVectorEngine, SynchronousStepsReachTheSolverState) {
  Figure31Topology fig;
  const RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.f);
  PathVectorEngine engine(fig.graph, fig.f);
  std::size_t steps = 0;
  while (engine.step_synchronous()) ASSERT_LT(++steps, 100u);
  EXPECT_TRUE(engine.is_stable());
  for (topo::NodeId node = 0; node < fig.graph.node_count(); ++node) {
    ASSERT_TRUE(engine.has_route(node)) << "node " << node;
    EXPECT_EQ(engine.best(node).path, tree.path_of(node)) << "node " << node;
  }
}

TEST(PathVectorEngine, ImportFilterForcesTheAlternateRoute) {
  // Every AS except E itself refuses routes through E: B falls back to its
  // peer route B-C-F, A follows it, and D (whose only way is E) is cut off.
  Figure31Topology fig;
  PolicyHooks hooks;
  hooks.imports = [&](const Route& candidate) {
    return candidate.owner() == fig.e || !candidate.traverses(fig.e);
  };
  PathVectorEngine engine(fig.graph, fig.f, hooks);
  ASSERT_TRUE(engine.run_to_stable().has_value());
  EXPECT_EQ(engine.best(fig.e).path,
            (std::vector<topo::NodeId>{fig.e, fig.f}));
  EXPECT_EQ(engine.best(fig.b).path,
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(engine.best(fig.a).path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f}));
  EXPECT_FALSE(engine.has_route(fig.d));
}

TEST(PathVectorEngine, ExportHookCanWithholdAdvertisements) {
  // E keeps its route to F but announces it to nobody.
  Figure31Topology fig;
  PolicyHooks hooks;
  hooks.exports = [&](topo::NodeId owner, const Route& route,
                      topo::NodeId neighbor) {
    return owner != fig.e &&
           conventional_export_allows(route.route_class,
                                      fig.graph.relationship(owner, neighbor));
  };
  PathVectorEngine engine(fig.graph, fig.f, hooks);
  ASSERT_TRUE(engine.run_to_stable().has_value());
  ASSERT_TRUE(engine.has_route(fig.e));
  EXPECT_EQ(engine.best(fig.b).path,
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_FALSE(engine.has_route(fig.d));
  for (topo::NodeId node = 0; node < fig.graph.node_count(); ++node) {
    if (node == fig.e || !engine.has_route(node)) continue;
    EXPECT_FALSE(engine.best(node).traverses(fig.e)) << "node " << node;
  }
}

TEST(PathVectorEngine, PreferenceHookReplacesTheDefaultRanking) {
  // Shortest path first, then the lower next hop, ignoring route class: B
  // now takes its peer route B-C-F over the customer route B-E-F.
  Figure31Topology fig;
  PolicyHooks hooks;
  hooks.prefers = [](const Route& better, const Route& worse) {
    if (better.length() != worse.length())
      return better.length() < worse.length();
    return better.next_hop() < worse.next_hop();
  };
  PathVectorEngine engine(fig.graph, fig.f, hooks);
  ASSERT_TRUE(engine.run_to_stable().has_value());
  EXPECT_EQ(engine.best(fig.b).path,
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(engine.best(fig.a).path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f}));
}

TEST(PathVectorEngine, RunToStableReportsAnExhaustedSweepBudget) {
  // The first sweep always changes something, so one sweep cannot prove
  // stability; the engine keeps its progress for the next call.
  Figure31Topology fig;
  PathVectorEngine engine(fig.graph, fig.f);
  EXPECT_FALSE(engine.run_to_stable(/*max_sweeps=*/1).has_value());
  EXPECT_TRUE(engine.has_route(fig.e));
  const auto rest = engine.run_to_stable();
  ASSERT_TRUE(rest.has_value());
  EXPECT_TRUE(engine.is_stable());
  EXPECT_EQ(*rest % fig.graph.node_count(), 0u);  // whole sweeps only
}

TEST(PathVectorEngine, IsolatedSpeakerNeverGetsARoute) {
  Figure31Topology fig;
  const topo::NodeId lone = fig.graph.add_as(7);
  PathVectorEngine engine(fig.graph, fig.f);
  ASSERT_TRUE(engine.run_to_stable().has_value());
  EXPECT_FALSE(engine.has_route(lone));
  EXPECT_TRUE(engine.candidates(lone).empty());
  EXPECT_TRUE(engine.is_stable());
  EXPECT_THROW(PathVectorEngine(fig.graph, fig.graph.node_count()), Error);
}

TEST(PathTable, InternDedupsAndSharesSuffixes) {
  PathTable table;
  const std::vector<NodeId> a{4, 2, 1};
  const std::vector<NodeId> b{5, 2, 1};
  const PathId pa = table.intern(a);
  const PathId pb = table.intern(b);
  EXPECT_NE(pa, kNullPath);
  EXPECT_NE(pa, pb);
  // Equal paths intern to the same id — the O(1) equality the RIB relies on.
  EXPECT_EQ(table.intern(a), pa);
  // The {2, 1} tail is stored once and shared.
  EXPECT_EQ(table.suffix(pa), table.suffix(pb));
  // Distinct suffixes: {1}, {2,1}, {4,2,1}, {5,2,1}.
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.materialize(pa), a);
  EXPECT_EQ(table.materialize(pb), b);
  EXPECT_EQ(table.length(pa), 3u);
  EXPECT_EQ(table.head(pa), 4u);
  EXPECT_EQ(table.head(pb), 5u);
}

TEST(PathTable, ContainsWalksTheWholeChain) {
  PathTable table;
  const std::vector<NodeId> path{9, 7, 5, 3};
  const PathId id = table.intern(path);
  for (NodeId node : path) EXPECT_TRUE(table.contains(id, node));
  EXPECT_FALSE(table.contains(id, 4));
  EXPECT_FALSE(table.contains(kNullPath, 9));
}

TEST(PathTable, NullAndInvalidIds) {
  PathTable table;
  EXPECT_EQ(table.intern(std::span<const NodeId>{}), kNullPath);
  EXPECT_EQ(table.length(kNullPath), 0u);
  EXPECT_TRUE(table.materialize(kNullPath).empty());
  EXPECT_THROW(table.head(kNullPath), Error);
  EXPECT_THROW(table.suffix(kNullPath), Error);
  EXPECT_THROW(table.head(99), Error);  // never minted
  EXPECT_THROW(table.extend(topo::kInvalidNode, kNullPath), Error);
}

TEST(PathTable, MaterializeIntoReusesScratch) {
  PathTable table;
  const PathId longer = table.intern(std::vector<NodeId>{8, 6, 4, 2});
  const PathId shorter = table.intern(std::vector<NodeId>{3, 2});
  std::vector<NodeId> scratch;
  table.materialize_into(longer, scratch);
  EXPECT_EQ(scratch, (std::vector<NodeId>{8, 6, 4, 2}));
  table.materialize_into(shorter, scratch);  // must clear the previous path
  EXPECT_EQ(scratch, (std::vector<NodeId>{3, 2}));
  table.materialize_into(kNullPath, scratch);
  EXPECT_TRUE(scratch.empty());
}

}  // namespace
}  // namespace miro::bgp
