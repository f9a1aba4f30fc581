#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/alternates.hpp"
#include "core/export_policy.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "core/tunnel.hpp"
#include "scenarios.hpp"

namespace miro::core {
namespace {

using bgp::Route;
using bgp::RouteClass;
using bgp::RoutingTree;
using bgp::StableRouteSolver;
using test::Figure31Topology;
using topo::Relationship;

// ----------------------------------------------------------- export policy

TEST(ExportPolicy, FlexibleAllowsEverything) {
  for (auto cls : {RouteClass::Customer, RouteClass::Peer,
                   RouteClass::Provider}) {
    for (auto rel : {Relationship::Customer, Relationship::Peer,
                     Relationship::Provider}) {
      EXPECT_TRUE(allows(ExportPolicy::Flexible, cls, RouteClass::Customer,
                         rel));
    }
  }
}

TEST(ExportPolicy, RespectExportFollowsConventionalRules) {
  // Peer-learned alternates may go to customers but not to peers/providers.
  EXPECT_TRUE(allows(ExportPolicy::RespectExport, RouteClass::Peer,
                     RouteClass::Customer, Relationship::Customer));
  EXPECT_FALSE(allows(ExportPolicy::RespectExport, RouteClass::Peer,
                      RouteClass::Customer, Relationship::Peer));
  EXPECT_FALSE(allows(ExportPolicy::RespectExport, RouteClass::Provider,
                      RouteClass::Customer, Relationship::Provider));
  // Customer-learned alternates go anywhere.
  EXPECT_TRUE(allows(ExportPolicy::RespectExport, RouteClass::Customer,
                     RouteClass::Peer, Relationship::Provider));
}

TEST(ExportPolicy, StrictRequiresSameLocalPrefBand) {
  // Best route is a customer route: only customer-class alternates flow.
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Customer,
                     RouteClass::Customer, Relationship::Customer));
  EXPECT_FALSE(allows(ExportPolicy::Strict, RouteClass::Peer,
                      RouteClass::Customer, Relationship::Customer));
  // Best route is a peer route: peer alternates pass toward customers.
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Peer,
                     RouteClass::Peer, Relationship::Customer));
  // ... but conventional export still binds toward peers.
  EXPECT_FALSE(allows(ExportPolicy::Strict, RouteClass::Peer,
                      RouteClass::Peer, Relationship::Peer));
}

TEST(ExportPolicy, StrictTreatsSelfAsCustomerBand) {
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Customer,
                     RouteClass::Self, Relationship::Customer));
}

/// Exhaustive sweep over (candidate class, best class, requester
/// relationship): the policies must be monotone (strict implies export
/// implies flexible) on every cell, and flexible/a must dominate everything.
class ExportPolicyLattice
    : public ::testing::TestWithParam<
          std::tuple<RouteClass, RouteClass, Relationship>> {};

TEST_P(ExportPolicyLattice, StrictImpliesExportImpliesFlexible) {
  const auto [candidate, best, rel] = GetParam();
  const bool strict = allows(ExportPolicy::Strict, candidate, best, rel);
  const bool exported =
      allows(ExportPolicy::RespectExport, candidate, best, rel);
  const bool flexible = allows(ExportPolicy::Flexible, candidate, best, rel);
  EXPECT_TRUE(!strict || exported) << "strict allowed what /e denies";
  EXPECT_TRUE(!exported || flexible) << "/e allowed what /a denies";
  EXPECT_TRUE(flexible);
  // Strict never exports a candidate outside the best route's band.
  if (strict) {
    auto band = [](RouteClass cls) {
      return cls == RouteClass::Self ? bgp::rank(RouteClass::Customer)
                                     : bgp::rank(cls);
    };
    EXPECT_EQ(band(candidate), band(best));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ExportPolicyLattice,
    ::testing::Combine(
        ::testing::Values(RouteClass::Self, RouteClass::Customer,
                          RouteClass::Peer, RouteClass::Provider),
        ::testing::Values(RouteClass::Self, RouteClass::Customer,
                          RouteClass::Peer, RouteClass::Provider),
        ::testing::Values(Relationship::Customer, Relationship::Peer,
                          Relationship::Provider, Relationship::Sibling)));

TEST(ExportPolicy, FilterPreservesOrder) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.b);
  const auto flexible = filter_exports(ExportPolicy::Flexible, candidates,
                                       tree.route_class(fig.b),
                                       Relationship::Customer);
  EXPECT_EQ(flexible.size(), candidates.size());
  const auto strict = filter_exports(ExportPolicy::Strict, candidates,
                                     tree.route_class(fig.b),
                                     Relationship::Customer);
  // B's best is a customer route; the peer alternate BCF is held back.
  EXPECT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].route_class, RouteClass::Customer);
}

// -------------------------------------------------------------- alternates

TEST(Alternates, Figure31AvoidE) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);

  // Under the strict policy B only offers customer-class alternates, none
  // of which avoid E: the negotiation fails.
  const auto strict = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Strict);
  EXPECT_FALSE(strict.success);
  EXPECT_EQ(strict.ases_contacted, 1u);  // B was asked

  // Respecting export policy, B may offer its peer route BCF to customer A.
  const auto exported = engine.avoid_as(tree, fig.a, fig.e,
                                        ExportPolicy::RespectExport);
  ASSERT_TRUE(exported.success);
  EXPECT_FALSE(exported.bgp_success);
  EXPECT_EQ(exported.ases_contacted, 1u);
  ASSERT_TRUE(exported.chosen);
  EXPECT_EQ(exported.chosen->as_path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f}));
  EXPECT_EQ(exported.chosen->responder, fig.b);
  EXPECT_FALSE(exported.chosen->traverses(fig.e));

  const auto flexible = engine.avoid_as(tree, fig.a, fig.e,
                                        ExportPolicy::Flexible);
  EXPECT_TRUE(flexible.success);
}

TEST(Alternates, AvoidRequiresAvoidOnDefaultPath) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  // C is not on A's default path A-B-E-F.
  EXPECT_THROW(engine.avoid_as(tree, fig.a, fig.c, ExportPolicy::Flexible),
               Error);
}

TEST(Alternates, DeploymentFilterBlocksResponder) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  std::vector<bool> nobody(fig.graph.node_count(), false);
  const auto result = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Flexible, &nobody);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.ases_contacted, 0u);

  std::vector<bool> only_b(fig.graph.node_count(), false);
  only_b[fig.b] = true;
  const auto with_b = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Flexible, &only_b);
  EXPECT_TRUE(with_b.success);
}

TEST(Alternates, OneHopCollectExposesNeighborCandidates) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  const auto paths = engine.collect(tree, fig.a, NegotiationScope::OneHop,
                                    ExportPolicy::Flexible);
  // A's neighbors are B and D. B holds alternate BCF; D holds only DEF
  // (which is A's alternate ADEF, distinct from the default ABEF).
  ASSERT_FALSE(paths.empty());
  bool found_abcf = false;
  for (const SplicedPath& path : paths) {
    EXPECT_NE(path.as_path, tree.path_of(fig.a));  // default excluded
    if (path.as_path ==
        std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f})
      found_abcf = true;
  }
  EXPECT_TRUE(found_abcf);
}

TEST(Alternates, PolicyMonotonicity) {
  // More permissive policies can only expose more paths.
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  for (auto scope : {NegotiationScope::OneHop, NegotiationScope::OnPath}) {
    const auto s = engine.count(tree, fig.a, scope, ExportPolicy::Strict);
    const auto e =
        engine.count(tree, fig.a, scope, ExportPolicy::RespectExport);
    const auto a = engine.count(tree, fig.a, scope, ExportPolicy::Flexible);
    EXPECT_LE(s, e);
    EXPECT_LE(e, a);
  }
}

TEST(Alternates, SplicedPathsAreLoopFreeAndReachDestination) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  for (auto scope : {NegotiationScope::OneHop, NegotiationScope::OnPath}) {
    for (const SplicedPath& path :
         engine.collect(tree, fig.a, scope, ExportPolicy::Flexible)) {
      EXPECT_EQ(path.as_path.front(), fig.a);
      EXPECT_EQ(path.as_path.back(), fig.f);
      auto sorted = path.as_path;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << "looping spliced path";
      EXPECT_EQ(path.as_path[path.responder_index], path.responder);
    }
  }
}

// ------------------------------------------------------------------ tunnel

TEST(TunnelTable, CreateFindRemove) {
  TunnelTable table;
  Route route{{1, 2, 3}, RouteClass::Peer};
  const auto id = table.create(/*remote_as=*/9, route, /*cost=*/120,
                               /*now=*/100);
  EXPECT_EQ(table.active_count(), 1u);
  const TunnelRecord* record = table.find(id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->remote_as, 9u);
  EXPECT_EQ(record->cost, 120);
  EXPECT_TRUE(table.remove(id));
  EXPECT_FALSE(table.remove(id));
  EXPECT_EQ(table.find(id), nullptr);
}

TEST(TunnelTable, IdsAreUniquePerTable) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  const auto id1 = table.create(1, route, 0, 0);
  const auto id2 = table.create(2, route, 0, 0);
  EXPECT_NE(id1, id2);
}

TEST(TunnelTable, SoftStateExpiry) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  const auto fresh = table.create(1, route, 0, /*now=*/1000);
  const auto stale = table.create(2, route, 0, /*now=*/0);
  EXPECT_TRUE(table.heartbeat(fresh, 1200));
  const auto expired = table.expire(/*now=*/1300, /*timeout=*/500);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], stale);
  EXPECT_EQ(table.active_count(), 1u);
  EXPECT_FALSE(table.heartbeat(stale, 1300));
}

TEST(TunnelTable, ExpiresExactlyWhenTheTimeoutElapses) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  const auto id = table.create(1, route, 0, /*now=*/100);
  EXPECT_TRUE(table.expire(/*now=*/599, /*timeout=*/500).empty());
  EXPECT_EQ(table.active_count(), 1u);
  const auto expired = table.expire(/*now=*/600, /*timeout=*/500);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], id);
  EXPECT_EQ(table.find(id), nullptr);
}

TEST(TunnelTable, ForEachVisitsEveryActiveRecord) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  table.create(/*remote_as=*/11, route, 5, 0);
  const auto removed = table.create(12, route, 6, 0);
  table.create(13, route, 7, 0);
  ASSERT_TRUE(table.remove(removed));
  std::vector<NodeId> remotes;
  int total_cost = 0;
  table.for_each([&](const TunnelRecord& record) {
    remotes.push_back(record.remote_as);
    total_cost += record.cost;
    EXPECT_EQ(record.bound_route.path, route.path);
  });
  std::sort(remotes.begin(), remotes.end());
  EXPECT_EQ(remotes, (std::vector<NodeId>{11, 13}));
  EXPECT_EQ(total_cost, 12);
}

// ---------------------------------------------------------------- protocol

struct ProtocolHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  sim::Scheduler scheduler;
  Bus bus{scheduler};
};

TEST(Protocol, NegotiationEstablishesTunnel) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::RespectExport;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, /*arrival_neighbor=*/h.fig.a, /*destination=*/h.fig.f,
            /*avoid=*/h.fig.e, /*max_cost=*/std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1000);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->established);
  EXPECT_EQ(outcome->responder, h.fig.b);
  EXPECT_EQ(outcome->offers_received, 1u);  // only BCF avoids E
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);
  EXPECT_EQ(b.stats().requests_received, 1u);
  EXPECT_EQ(a.stats().requests_sent, 1u);

  const TunnelRecord* record = b.tunnels().find(outcome->tunnel_id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->remote_as, h.fig.a);
  EXPECT_EQ(record->bound_route.path,
            (std::vector<topo::NodeId>{h.fig.b, h.fig.c, h.fig.f}));
}

TEST(Protocol, StrictResponderRejectsAvoidERequest) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Strict;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(outcome->offers_received, 0u);
}

TEST(Protocol, MaxCostFiltersOffers) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::RespectExport;
  responder_config.price = [](const Route&) { return 500; };
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, /*max_cost=*/250,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);  // everything too expensive
}

TEST(Protocol, AdmissionControlByTunnelCount) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Flexible;
  responder_config.max_tunnels = 0;  // room for nothing
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, std::nullopt, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(b.stats().requests_rejected, 1u);
}

TEST(Protocol, TrustPredicateRejectsStranger) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.accept_from = [&h](topo::NodeId who) {
    return who == h.fig.d;  // only D is trusted
  };
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);
  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, std::nullopt, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
}

TEST(Protocol, ActiveTeardownRemovesDownstreamState) {
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(500);
  ASSERT_TRUE(outcome && outcome->established);
  a.teardown(outcome->tunnel_id);
  h.scheduler.run_until(600);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 1u);
}

TEST(Protocol, KeepAlivesSustainTunnelAcrossTime) {
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(5000);  // many keepalive/expiry cycles
  ASSERT_TRUE(outcome && outcome->established);
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_EQ(b.stats().tunnels_expired, 0u);
}

TEST(Protocol, SoftStateExpiresWhenLinkPartitioned) {
  // "When A can no longer reach B, the 'active tunnel tear-down' message
  // itself may not be able to reach AS B" — soft state must clean up.
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(500);
  ASSERT_TRUE(outcome && outcome->established);
  h.bus.set_link_down(h.fig.a, h.fig.b, true);  // keepalives stop arriving
  h.scheduler.run_until(5000);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_expired, 1u);
}

TEST(Protocol, ResponderFiltersAvoidConstraintServerSide) {
  // The responder prunes candidates violating the requester's constraint
  // before they cross the wire (Section 6.2.2).
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Flexible;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);
  std::optional<NegotiationOutcome> constrained;
  a.request(h.fig.b, h.fig.a, h.fig.f, /*avoid=*/h.fig.e, std::nullopt,
            [&constrained](const NegotiationOutcome& o) { constrained = o; });
  h.scheduler.run_until(500);
  std::optional<NegotiationOutcome> unconstrained;
  a.request(h.fig.b, h.fig.a, h.fig.f, std::nullopt, std::nullopt,
            [&unconstrained](const NegotiationOutcome& o) {
              unconstrained = o;
            });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(constrained && unconstrained);
  EXPECT_LT(constrained->offers_received, unconstrained->offers_received);
}

}  // namespace
}  // namespace miro::core
