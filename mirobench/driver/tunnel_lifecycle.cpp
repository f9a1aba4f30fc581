// tunnel_lifecycle: the MIRO control and data plane with the solver idle.
// One op is one round: a batch of distinct sources each picks its responder
// with avoid_as, negotiates over the shared message bus (the scheduler then
// advances one handshake window for the whole batch), installs the tunnel
// with a (source prefix, destination prefix) rule and traces packets through
// it. Tunnels older than the live window are torn down in both planes.
//
// Design choices that keep the per-op cost flat over a long run:
//  - one MiroAgent per AS is created in set-up, not per negotiation;
//  - set-up also solves the tree of every possible responder, which trace()
//    would otherwise solve lazily, so later ops do not pay for a growing
//    cache;
//  - negotiations are batched, so the soft-state sweeps and keep-alives that
//    fire in every window are paid once per round;
//  - the live window bounds how many tunnels send keep-alives;
//  - AsLevelDataPlane::remove_tunnel drops only the downstream entry, so a
//    dead tunnel's upstream rule stays in the head's classifier. Each tunnel
//    therefore gets its own /24 of the source's /16 as its source prefix,
//    and its packets come from that /24, so no packet meets a dead rule. A
//    source has 256 /24s; the run stops with an error rather than reuse one.
//    Dead rules still lengthen the head's first-match rule list by one per
//    torn-down tunnel, a cost trace() pays that grows with run length.
// The data plane's synthetic addressing needs ASNs below 65536, which rules
// out internet2006 at full scale here.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/alternates.hpp"
#include "core/protocol.hpp"
#include "dataplane/forwarding.hpp"
#include "harness.hpp"

namespace mirobench {
namespace {

using miro::topo::NodeId;

constexpr std::size_t kDestinations = 4;
constexpr std::size_t kPacketsPerTunnel = 4;
/// One soft-state sweep interval (SoftStateConfig::sweep_interval): long
/// enough for the 4-message handshake at 10 ticks per message, and every
/// round then holds exactly one sweep of every agent and one keep-alive per
/// live tunnel, so rounds cost the same.
constexpr miro::sim::Time kHandshakeWindow = 100;
constexpr std::uint32_t kLiveRounds = 8;

struct Negotiation {
  NodeId source;
  NodeId destination;
  NodeId avoid;
  std::vector<NodeId> default_path;
  std::size_t responder_index;
  std::shared_ptr<std::optional<miro::core::NegotiationOutcome>> outcome;
  miro::core::SplicedPath spliced;  ///< built from the negotiated route
  std::vector<std::vector<NodeId>> traced;
  std::vector<bool> delivered;
};

struct LiveTunnel {
  std::uint32_t round;
  NodeId source;
  NodeId responder;
  miro::net::TunnelId agent_id;
  miro::net::TunnelId plane_id;
};

class TunnelLifecycle final : public Workload {
 public:
  TunnelLifecycle(const Inputs& inputs, Tracer& tracer)
      : graph_(generate_graph(inputs, tracer)),
        store_(graph_),
        bus_(scheduler_),
        plane_(store_),
        engine_(store_.solver()),
        rng_(inputs.seed),
        batch_(inputs.smoke ? 2 : 8),
        uses_(graph_.node_count(), 0) {
    agents_.reserve(graph_.node_count());
    for (NodeId node = 0; node < graph_.node_count(); ++node)
      agents_.push_back(
          std::make_unique<miro::core::MiroAgent>(node, store_, bus_));
    for (std::size_t index :
         rng_.sample_indices(graph_.node_count(), kDestinations)) {
      const auto destination = static_cast<NodeId>(index);
      destinations_.push_back(destination);
      tracer.time("bgp.solve", [&] { return &store_.tree(destination); });
    }
    // Every possible responder: each AS some default path toward a
    // destination crosses.
    std::vector<bool> transit(graph_.node_count(), false);
    for (const NodeId destination : destinations_) {
      const miro::bgp::RoutingTree& tree = store_.tree(destination);
      for (NodeId node = 0; node < graph_.node_count(); ++node)
        if (node != destination && tree.reachable(node))
          transit[tree.next_hop(node)] = true;
    }
    for (NodeId node = 0; node < graph_.node_count(); ++node)
      if (transit[node]) store_.tree(node);
  }

  void op(Tracer& tracer) override {
    ++round_;
    negotiations_.clear();
    const std::size_t n = graph_.node_count();
    std::vector<NodeId> chosen;
    for (std::size_t attempt = 0;
         attempt < 4 * batch_ && negotiations_.size() < batch_; ++attempt) {
      const NodeId destination = destinations_[rng_.next_below(kDestinations)];
      const auto source = static_cast<NodeId>(rng_.next_below(n));
      const miro::bgp::RoutingTree& tree = store_.tree(destination);
      if (source == destination || !tree.reachable(source) ||
          std::find(chosen.begin(), chosen.end(), source) != chosen.end())
        continue;
      std::vector<NodeId> path = tree.path_of(source);
      std::vector<NodeId> avoidable;
      for (std::size_t i = 2; i + 1 < path.size(); ++i)
        if (!graph_.has_edge(source, path[i])) avoidable.push_back(path[i]);
      if (avoidable.empty()) continue;
      const NodeId avoid = avoidable[rng_.next_below(avoidable.size())];
      const auto result = tracer.time("core.avoid_as", [&] {
        return engine_.avoid_as(tree, source, avoid,
                                miro::core::ExportPolicy::RespectExport);
      });
      ++avoid_calls_;
      avoid_successes_ += result.success ? 1 : 0;
      ases_contacted_ += static_cast<double>(result.ases_contacted);
      // A plain-BGP alternate needs no negotiation and no tunnel.
      if (!result.success || result.bgp_success) continue;
      chosen.push_back(source);
      Negotiation negotiation{source, destination, avoid, std::move(path),
                              result.chosen->responder_index,
                              std::make_shared<std::optional<
                                  miro::core::NegotiationOutcome>>(),
                              {}, {}, {}};
      const std::size_t i = negotiation.responder_index;
      const NodeId responder = negotiation.default_path[i];
      const NodeId arrival = negotiation.default_path[i - 1];
      auto slot = negotiation.outcome;
      tracer.time("core.negotiate", [&] {
        return agents_[source]->request(
            responder, arrival, destination, avoid, std::nullopt,
            [slot](const miro::core::NegotiationOutcome& outcome) {
              *slot = outcome;
            });
      });
      negotiations_.push_back(std::move(negotiation));
    }

    events_ += static_cast<double>(tracer.time("netsim.advance", [&] {
      return scheduler_.run_until(scheduler_.now() + kHandshakeWindow);
    }));

    for (Negotiation& negotiation : negotiations_) {
      if (!*negotiation.outcome || !(*negotiation.outcome)->established)
        continue;
      const miro::core::NegotiationOutcome& outcome = **negotiation.outcome;
      ++established_;
      miro::core::SplicedPath& spliced = negotiation.spliced;
      spliced.as_path.assign(
          negotiation.default_path.begin(),
          negotiation.default_path.begin() +
              static_cast<std::ptrdiff_t>(negotiation.responder_index));
      spliced.as_path.insert(spliced.as_path.end(), outcome.route.path.begin(),
                             outcome.route.path.end());
      spliced.responder = outcome.responder;
      spliced.responder_index = negotiation.responder_index;
      spliced.offered = outcome.route;

      // A /16 holds 256 /24s; a 257th tunnel from one source would reuse a
      // /24 whose dead rule still sits first in the head's classifier.
      if (uses_[negotiation.source] == 256)
        throw std::runtime_error(
            "tunnel_lifecycle: AS " +
            std::to_string(graph_.as_number(negotiation.source)) +
            " ran out of /24 source prefixes (256 tunnels)");
      const auto asn = static_cast<std::uint32_t>(
          graph_.as_number(negotiation.source));
      const std::uint32_t subnet =
          (asn << 16) | (uses_[negotiation.source]++ << 8);
      miro::dataplane::MatchRule rule;
      rule.source_prefix =
          miro::net::Prefix(miro::net::Ipv4Address(subnet), 24);
      rule.destination_prefix = miro::net::Prefix(
          miro::net::Ipv4Address(static_cast<std::uint32_t>(
                                     graph_.as_number(negotiation.destination))
                                 << 16),
          16);
      const miro::net::TunnelId plane_id =
          tracer.time("dataplane.install_tunnel", [&] {
            return plane_.install_tunnel(spliced, rule);
          });
      live_.push_back({round_, negotiation.source, outcome.responder,
                       outcome.tunnel_id, plane_id});

      for (std::size_t p = 0; p < kPacketsPerTunnel; ++p) {
        miro::net::FlowLabel flow;
        flow.source_port = static_cast<std::uint16_t>(1024 + p);
        flow.destination_port = 80;
        miro::net::Packet packet(miro::net::Ipv4Address(subnet | 1),
                                 plane_.host_address(negotiation.destination),
                                 flow);
        const miro::dataplane::TraceResult trace =
            tracer.time("dataplane.trace", [&] {
              return plane_.trace(packet, negotiation.source);
            });
        ++packets_;
        hops_ += static_cast<double>(trace.hops.size());
        for (const auto& hop : trace.hops) {
          if (hop.action == miro::dataplane::TraceHop::Action::Encapsulate) {
            ++encapsulated_;
            break;
          }
        }
        negotiation.traced.push_back(trace.as_path());
        negotiation.delivered.push_back(trace.delivered);
      }
    }
    negotiate_calls_ += static_cast<double>(negotiations_.size());

    while (!live_.empty() && live_.front().round + kLiveRounds <= round_) {
      const LiveTunnel& tunnel = live_.front();
      tracer.time("core.teardown",
                  [&] { agents_[tunnel.source]->teardown(tunnel.agent_id); });
      tracer.time("dataplane.remove_tunnel", [&] {
        plane_.remove_tunnel(tunnel.responder, tunnel.plane_id);
      });
      ++teardowns_;
      live_.pop_front();
    }
    queue_depth_ += static_cast<double>(scheduler_.pending_events());
  }

  bool verify(Digest& digest, bool fold, std::string& why) override {
    bool ok = true;
    for (const Negotiation& negotiation : negotiations_) {
      if (fold) {
        digest.add(negotiation.source);
        digest.add(negotiation.destination);
        digest.add(negotiation.avoid);
        digest.add_all(negotiation.spliced.as_path);
        for (const auto& path : negotiation.traced) digest.add_all(path);
      }
      if (!ok) continue;
      if (!*negotiation.outcome) {
        why = "negotiation did not finish within the handshake window";
        ok = false;
      } else if (!(*negotiation.outcome)->established) {
        why = "negotiation for an avoid_as alternate was not established";
        ok = false;
      } else if (negotiation.spliced.traverses(negotiation.avoid)) {
        why = "negotiated route crosses the avoided AS";
        ok = false;
      } else {
        for (std::size_t p = 0; p < negotiation.traced.size() && ok; ++p) {
          const std::vector<NodeId>& traced = negotiation.traced[p];
          if (negotiation.delivered[p] &&
              traced == negotiation.spliced.as_path)
            continue;
          why = "packet from AS " +
                std::to_string(graph_.as_number(negotiation.source)) +
                " did not follow the negotiated spliced path";
          if (!negotiation.delivered[p])
            why += " (dropped)";
          else if (std::find(traced.begin(), traced.end(),
                             negotiation.avoid) != traced.end())
            why += " (and crossed the avoided AS)";
          ok = false;
        }
      }
    }
    return ok;
  }

  double units() const override { return static_cast<double>(established_); }

  void counters(Counters& out) const override {
    const double rounds = static_cast<double>(round_);
    if (avoid_calls_ > 0) {
      out["core.avoid_as.success_ratio"] = avoid_successes_ / avoid_calls_;
      out["core.avoid_as.ases_contacted_mean"] = ases_contacted_ / avoid_calls_;
    }
    if (negotiate_calls_ > 0)
      out["core.negotiate.established_ratio"] =
          static_cast<double>(established_) / negotiate_calls_;
    double retransmissions = 0;
    for (const auto& agent : agents_)
      retransmissions += static_cast<double>(agent->stats().retransmissions);
    out["core.agent.retransmissions"] = retransmissions;
    out["core.teardown.calls"] = static_cast<double>(teardowns_);
    if (rounds > 0) {
      out["netsim.events_per_op"] = events_ / rounds;
      out["netsim.queue_depth"] = queue_depth_ / rounds;
    }
    out["netsim.bus.delivered"] = static_cast<double>(bus_.stats().delivered);
    if (packets_ > 0) {
      out["dataplane.trace.hops_per_packet"] = hops_ / packets_;
      out["dataplane.trace.encap_ratio"] = encapsulated_ / packets_;
    }
    out["topology.bytes_per_edge"] =
        static_cast<double>(graph_.memory_bytes()) /
        static_cast<double>(graph_.edge_count());
  }

 private:
  miro::topo::AsGraph graph_;
  miro::core::RouteStore store_;
  miro::sim::Scheduler scheduler_;
  miro::core::Bus bus_;
  miro::dataplane::AsLevelDataPlane plane_;
  miro::core::AlternatesEngine engine_;
  miro::Rng rng_;
  std::size_t batch_;
  std::vector<std::uint32_t> uses_;  ///< tunnels installed per source AS
  std::vector<std::unique_ptr<miro::core::MiroAgent>> agents_;
  std::vector<NodeId> destinations_;
  std::vector<Negotiation> negotiations_;
  std::deque<LiveTunnel> live_;
  std::uint32_t round_ = 0;
  std::size_t established_ = 0;
  std::size_t teardowns_ = 0;
  double avoid_calls_ = 0;
  double avoid_successes_ = 0;
  double ases_contacted_ = 0;
  double negotiate_calls_ = 0;
  double events_ = 0;
  double queue_depth_ = 0;
  double packets_ = 0;
  double hops_ = 0;
  double encapsulated_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tunnel_lifecycle(const Inputs& inputs,
                                                Tracer& tracer) {
  return std::make_unique<TunnelLifecycle>(inputs, tracer);
}

}  // namespace mirobench
