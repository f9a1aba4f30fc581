#include <gtest/gtest.h>

#include "core/alternates.hpp"
#include "dataplane/classifier.hpp"
#include "dataplane/encapsulation.hpp"
#include "dataplane/forwarding.hpp"
#include "scenarios.hpp"

namespace miro::dataplane {
namespace {

using core::AlternatesEngine;
using core::ExportPolicy;
using core::NegotiationScope;
using core::RouteStore;
using net::Ipv4Address;
using net::Packet;
using net::Prefix;
using test::Figure31Topology;

// ---------------------------------------------------------------- matching

TEST(MatchRule, EmptyRuleMatchesEverything) {
  MatchRule rule;
  Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  EXPECT_TRUE(rule.matches(packet));
}

TEST(MatchRule, FieldsAreConjunctive) {
  MatchRule rule;
  rule.destination_prefix = *Prefix::parse("6.0.0.0/8");
  rule.destination_port = 443;
  net::FlowLabel https{1000, 443, 6, 0};
  net::FlowLabel http{1000, 80, 6, 0};
  EXPECT_TRUE(rule.matches(
      Packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1), https)));
  EXPECT_FALSE(rule.matches(
      Packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1), http)));
  EXPECT_FALSE(rule.matches(
      Packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(7, 0, 0, 1), https)));
}

TEST(MatchRule, TypeOfServiceAndProtocol) {
  MatchRule rule;
  rule.protocol = 17;           // UDP
  rule.type_of_service = 0x2e;  // EF
  net::FlowLabel ef_udp{0, 0, 17, 0x2e};
  net::FlowLabel plain{0, 0, 6, 0};
  EXPECT_TRUE(rule.matches(Packet(Ipv4Address(1), Ipv4Address(2), ef_udp)));
  EXPECT_FALSE(rule.matches(Packet(Ipv4Address(1), Ipv4Address(2), plain)));
}

TEST(Classifier, FirstMatchWins) {
  Classifier<int> classifier;
  MatchRule broad;
  MatchRule narrow;
  narrow.destination_port = 80;
  classifier.add_rule(narrow, 1);
  classifier.add_rule(broad, 2);
  net::FlowLabel web{1000, 80, 6, 0};
  const int* action = classifier.classify(
      Packet(Ipv4Address(1), Ipv4Address(2), web));
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(*action, 1);
  net::FlowLabel ssh{1000, 22, 6, 0};
  action = classifier.classify(Packet(Ipv4Address(1), Ipv4Address(2), ssh));
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(*action, 2);
}

TEST(Classifier, NoMatchReturnsNull) {
  Classifier<int> classifier;
  MatchRule rule;
  rule.destination_port = 80;
  classifier.add_rule(rule, 1);
  net::FlowLabel ssh{1000, 22, 6, 0};
  EXPECT_EQ(classifier.classify(Packet(Ipv4Address(1), Ipv4Address(2), ssh)),
            nullptr);
}

TEST(Classifier, PrefixRulesSelectByOriginalAddresses) {
  // Rules look at the innermost header: wrapping a packet in a tunnel
  // header does not change how it classifies.
  Classifier<int> classifier;
  MatchRule from_ten;
  from_ten.source_prefix = Prefix(Ipv4Address(10, 0, 0, 0), 8);
  MatchRule to_six;
  to_six.destination_prefix = Prefix(Ipv4Address(6, 0, 0, 0), 8);
  classifier.add_rule(from_ten, 1);
  classifier.add_rule(to_six, 2);
  EXPECT_EQ(classifier.rule_count(), 2u);

  Packet both(Ipv4Address(10, 1, 2, 3), Ipv4Address(6, 0, 0, 1));
  ASSERT_NE(classifier.classify(both), nullptr);
  EXPECT_EQ(*classifier.classify(both), 1);
  Packet to_six_only(Ipv4Address(11, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  to_six_only.encapsulate(Ipv4Address(10, 0, 0, 1), Ipv4Address(7, 0, 0, 1),
                          4);
  ASSERT_NE(classifier.classify(to_six_only), nullptr);
  EXPECT_EQ(*classifier.classify(to_six_only), 2);
  const Packet neither(Ipv4Address(11, 0, 0, 1), Ipv4Address(7, 0, 0, 1));
  EXPECT_EQ(classifier.classify(neither), nullptr);
}

TEST(FlowSplitter, FlowsStickToOnePath) {
  FlowSplitter splitter({1, 1});
  net::FlowLabel flow{1234, 80, 6, 0};
  Packet packet(Ipv4Address(1), Ipv4Address(2), flow);
  const std::size_t path = splitter.path_for(packet);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(splitter.path_for(packet), path);  // deterministic
}

TEST(FlowSplitter, WeightsApproximateSplit) {
  FlowSplitter splitter({3, 1});
  std::size_t counts[2] = {0, 0};
  for (std::uint16_t port = 0; port < 4000; ++port) {
    net::FlowLabel flow{port, 80, 6, 0};
    Packet packet(Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), flow);
    ++counts[splitter.path_for(packet)];
  }
  const double share =
      static_cast<double>(counts[0]) / (counts[0] + counts[1]);
  EXPECT_NEAR(share, 0.75, 0.04);
}

TEST(FlowSplitter, ZeroWeightPathIsNeverChosen) {
  FlowSplitter splitter({1, 0, 1});
  EXPECT_EQ(splitter.path_count(), 3u);
  std::size_t counts[3] = {0, 0, 0};
  for (std::uint16_t port = 0; port < 1000; ++port) {
    net::FlowLabel flow{port, 443, 6, 0};
    ++counts[splitter.path_for(
        Packet(Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), flow))];
  }
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[2], 0u);
}

TEST(FlowSplitter, SinglePathTakesEveryFlow) {
  FlowSplitter splitter({0.25});
  EXPECT_EQ(splitter.path_count(), 1u);
  for (std::uint16_t port = 0; port < 200; ++port) {
    net::FlowLabel flow{port, 80, 17, 0};
    EXPECT_EQ(splitter.path_for(Packet(Ipv4Address(9), Ipv4Address(10), flow)),
              0u);
  }
}

TEST(FlowSplitter, RejectsDegenerateWeights) {
  EXPECT_THROW(FlowSplitter({}), Error);
  EXPECT_THROW(FlowSplitter({0, 0}), Error);
  EXPECT_THROW(FlowSplitter({-1, 2}), Error);
}

// -------------------------------------------------------------- forwarding

struct ForwardingHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  AsLevelDataPlane plane{store};

  Packet packet_to_f(net::FlowLabel flow = {}) {
    return Packet(plane.host_address(fig.a), plane.host_address(fig.f),
                  flow);
  }
};

TEST(Forwarding, DefaultPathFollowsBgp) {
  ForwardingHarness h;
  const auto trace = h.plane.trace(h.packet_to_f(), h.fig.a);
  EXPECT_TRUE(trace.delivered);
  EXPECT_EQ(trace.as_path(), (std::vector<topo::NodeId>{h.fig.a, h.fig.b,
                                                        h.fig.e, h.fig.f}));
  EXPECT_TRUE(trace.traversed(h.fig.e));
}

TEST(Forwarding, TunnelDivertsAroundE) {
  ForwardingHarness h;
  // Negotiate the alternate A-B-C-F and install it in the data plane.
  bgp::StableRouteSolver solver(h.fig.graph);
  const bgp::RoutingTree tree = solver.solve(h.fig.f);
  AlternatesEngine engine(solver);
  const auto result = engine.avoid_as(tree, h.fig.a, h.fig.e,
                                      ExportPolicy::RespectExport);
  ASSERT_TRUE(result.success && result.chosen);
  h.plane.install_tunnel(*result.chosen);

  const auto trace = h.plane.trace(h.packet_to_f(), h.fig.a);
  EXPECT_TRUE(trace.delivered);
  EXPECT_FALSE(trace.traversed(h.fig.e)) << trace.to_string(h.fig.graph);
  EXPECT_EQ(trace.as_path(), (std::vector<topo::NodeId>{h.fig.a, h.fig.b,
                                                        h.fig.c, h.fig.f}));
  // Encapsulated at A, decapsulated (directed forwarding) at B.
  EXPECT_EQ(trace.hops.front().action, TraceHop::Action::Encapsulate);
  bool decapped_at_b = false;
  for (const TraceHop& hop : trace.hops)
    if (hop.as == h.fig.b && hop.action == TraceHop::Action::Decapsulate)
      decapped_at_b = true;
  EXPECT_TRUE(decapped_at_b);
}

TEST(Forwarding, ClassifierSplitsByPort) {
  // Real-time traffic (UDP) takes the tunnel; best-effort stays on BEF
  // (the Section 3.5 policy example).
  ForwardingHarness h;
  bgp::StableRouteSolver solver(h.fig.graph);
  const bgp::RoutingTree tree = solver.solve(h.fig.f);
  AlternatesEngine engine(solver);
  const auto result = engine.avoid_as(tree, h.fig.a, h.fig.e,
                                      ExportPolicy::RespectExport);
  ASSERT_TRUE(result.success && result.chosen);
  MatchRule udp_only;
  udp_only.protocol = 17;
  h.plane.install_tunnel(*result.chosen, udp_only);

  net::FlowLabel udp{5000, 5001, 17, 0};
  net::FlowLabel tcp{5000, 80, 6, 0};
  const auto udp_trace = h.plane.trace(h.packet_to_f(udp), h.fig.a);
  const auto tcp_trace = h.plane.trace(h.packet_to_f(tcp), h.fig.a);
  EXPECT_FALSE(udp_trace.traversed(h.fig.e));
  EXPECT_TRUE(tcp_trace.traversed(h.fig.e));
  EXPECT_TRUE(udp_trace.delivered && tcp_trace.delivered);
}

TEST(Forwarding, RemovedTunnelDropsAtResponder) {
  ForwardingHarness h;
  bgp::StableRouteSolver solver(h.fig.graph);
  const bgp::RoutingTree tree = solver.solve(h.fig.f);
  AlternatesEngine engine(solver);
  const auto result = engine.avoid_as(tree, h.fig.a, h.fig.e,
                                      ExportPolicy::RespectExport);
  ASSERT_TRUE(result.success && result.chosen);
  const auto id = h.plane.install_tunnel(*result.chosen);
  h.plane.remove_tunnel(result.chosen->responder, id);
  const auto trace = h.plane.trace(h.packet_to_f(), h.fig.a);
  EXPECT_FALSE(trace.delivered);
  EXPECT_EQ(trace.hops.back().action, TraceHop::Action::Drop);
  EXPECT_EQ(trace.hops.back().as, h.fig.b);  // fails closed at the endpoint
}

TEST(Forwarding, MoreSpecificPrefixWins) {
  ForwardingHarness h;
  // F announces a more-specific /24 out of E's address space... rather:
  // give F a second, more specific prefix nested in A's view of E's /16.
  const topo::AsNumber e_asn = h.fig.graph.as_number(h.fig.e);
  const Prefix more_specific(
      Ipv4Address((static_cast<std::uint32_t>(e_asn) << 16) | 0x100), 24);
  h.plane.add_prefix(h.fig.f, more_specific);
  // A packet into the /24 must route toward F, not E.
  Packet packet(h.plane.host_address(h.fig.a),
                Ipv4Address(more_specific.address().value() | 1));
  const auto trace = h.plane.trace(packet, h.fig.a);
  EXPECT_TRUE(trace.delivered);
  EXPECT_EQ(trace.hops.back().as, h.fig.f);
}

TEST(Forwarding, UnknownDestinationDrops) {
  ForwardingHarness h;
  Packet packet(h.plane.host_address(h.fig.a), Ipv4Address(200, 0, 0, 1));
  const auto trace = h.plane.trace(packet, h.fig.a);
  EXPECT_FALSE(trace.delivered);
  EXPECT_EQ(trace.hops.back().action, TraceHop::Action::Drop);
}

// ----------------------------------------------------------- encapsulation

struct EndpointHarness {
  // One AS shaped like Figure 4.1: ingress R1, egresses R2 (to V and W) and
  // R3 (to W).
  TunnelEndpointAs make(EncapsulationScheme scheme) {
    TunnelEndpointAs as_x(scheme, *Prefix::parse("12.34.56.0/24"));
    r1 = as_x.add_router();
    r2 = as_x.add_router();
    r3 = as_x.add_router();
    as_x.add_internal_link(r1, r2, 5);
    as_x.add_internal_link(r1, r3, 10);
    as_x.add_internal_link(r2, r3, 4);
    to_v = as_x.add_exit_link(r2, 100);
    to_w2 = as_x.add_exit_link(r2, 200);
    to_w3 = as_x.add_exit_link(r3, 200);
    return as_x;
  }
  TunnelEndpointAs::RouterId r1 = 0, r2 = 0, r3 = 0;
  TunnelEndpointAs::ExitLinkId to_v = 0, to_w2 = 0, to_w3 = 0;

  static Packet encapsulated(Ipv4Address endpoint,
                             std::optional<net::TunnelId> id) {
    Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(9, 9, 9, 9));
    packet.encapsulate(Ipv4Address(1, 0, 0, 1), endpoint, id);
    return packet;
  }
};

class EncapsulationSchemeTest
    : public ::testing::TestWithParam<EncapsulationScheme> {};

TEST_P(EncapsulationSchemeTest, DeliversToNegotiatedExitLink) {
  EndpointHarness h;
  TunnelEndpointAs as_x = h.make(GetParam());
  const auto endpoint = as_x.establish_tunnel(h.to_v);
  const auto record = as_x.deliver(
      EndpointHarness::encapsulated(endpoint.address, endpoint.id), h.r1);
  EXPECT_TRUE(record.delivered);
  ASSERT_TRUE(record.exit);
  EXPECT_EQ(*record.exit, h.to_v);
  ASSERT_FALSE(record.router_path.empty());
  EXPECT_EQ(record.router_path.front(), h.r1);
  EXPECT_EQ(record.router_path.back(), h.r2);
}

TEST_P(EncapsulationSchemeTest, RemovedTunnelIsNotDeliverable) {
  EndpointHarness h;
  TunnelEndpointAs as_x = h.make(GetParam());
  const auto endpoint = as_x.establish_tunnel(h.to_w3);
  as_x.remove_tunnel(endpoint.id);
  const auto record = as_x.deliver(
      EndpointHarness::encapsulated(endpoint.address, endpoint.id), h.r1);
  // Exit-link addressing still resolves by address alone; the other two
  // schemes depend on live tunnel state and must drop.
  if (GetParam() == EncapsulationScheme::ExitLinkAddress) {
    EXPECT_TRUE(record.delivered);
  } else {
    EXPECT_FALSE(record.delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, EncapsulationSchemeTest,
    ::testing::Values(EncapsulationScheme::ExitLinkAddress,
                      EncapsulationScheme::EgressRouterAddress,
                      EncapsulationScheme::SharedAddress));

TEST(Encapsulation, ExitLinkSchemeNeedsNoTunnelId) {
  EndpointHarness h;
  TunnelEndpointAs as_x = h.make(EncapsulationScheme::ExitLinkAddress);
  const auto endpoint = as_x.establish_tunnel(h.to_w2);
  const auto record = as_x.deliver(
      EndpointHarness::encapsulated(endpoint.address, std::nullopt), h.r1);
  EXPECT_TRUE(record.delivered);
  EXPECT_EQ(*record.exit, h.to_w2);
}

TEST(Encapsulation, SharedSchemeRewritesAtIngress) {
  EndpointHarness h;
  TunnelEndpointAs as_x = h.make(EncapsulationScheme::SharedAddress);
  const auto t1 = as_x.establish_tunnel(h.to_v);
  const auto t2 = as_x.establish_tunnel(h.to_w3);
  EXPECT_EQ(t1.address, t2.address);  // one address for all tunnels
  EXPECT_EQ(t1.address, as_x.shared_address());
  const auto record = as_x.deliver(
      EndpointHarness::encapsulated(t2.address, t2.id), h.r1);
  EXPECT_TRUE(record.delivered);
  EXPECT_TRUE(record.rewritten);
  EXPECT_EQ(*record.exit, h.to_w3);
  EXPECT_EQ(record.router_path.back(), h.r3);
}

TEST(Encapsulation, ExposedAddressCountsReflectPrivacyTradeoff) {
  for (auto scheme : {EncapsulationScheme::ExitLinkAddress,
                      EncapsulationScheme::EgressRouterAddress,
                      EncapsulationScheme::SharedAddress}) {
    EndpointHarness h;
    TunnelEndpointAs as_x = h.make(scheme);
    as_x.establish_tunnel(h.to_v);
    as_x.establish_tunnel(h.to_w2);
    as_x.establish_tunnel(h.to_w3);
    switch (scheme) {
      case EncapsulationScheme::ExitLinkAddress:
        EXPECT_EQ(as_x.exposed_address_count(), 3u);  // one per exit link
        break;
      case EncapsulationScheme::EgressRouterAddress:
        EXPECT_EQ(as_x.exposed_address_count(), 2u);  // R2 and R3
        break;
      case EncapsulationScheme::SharedAddress:
        EXPECT_EQ(as_x.exposed_address_count(), 1u);
        break;
    }
  }
}

TEST(Encapsulation, WrongTunnelIdDrops) {
  EndpointHarness h;
  TunnelEndpointAs as_x = h.make(EncapsulationScheme::EgressRouterAddress);
  const auto endpoint = as_x.establish_tunnel(h.to_v);
  const auto record = as_x.deliver(
      EndpointHarness::encapsulated(endpoint.address, endpoint.id + 77),
      h.r1);
  EXPECT_FALSE(record.delivered);
}

}  // namespace
}  // namespace miro::dataplane
