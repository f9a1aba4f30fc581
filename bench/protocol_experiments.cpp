// Message-level dynamics: the Chapter 7 convergence gadgets, control-plane
// message overhead, and convergence under sustained churn. These build
// their own (half-scale or gadget) topologies and never read the shared
// plan; every row except the *_ms / .elapsed timings is a deterministic
// simulation result.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>

#include "bgp/session_bgp.hpp"
#include "churn/replayer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "convergence/gadgets.hpp"
#include "core/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/ribmon.hpp"
#include "suite.hpp"
#include "topology/generator.hpp"

namespace miro::bench {
namespace {

using conv::Guideline;

const char* verdict(const conv::MiroConvergenceModel::RunResult& result) {
  if (result.converged) return "converged";
  if (result.cycle_detected) return "OSCILLATES (state cycle proven)";
  return "no fixpoint within budget";
}

std::string fixed2(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

}  // namespace

// Convergence ablation (Chapter 7): runs the divergence gadgets under every
// guideline and reports converged / oscillated, plus random-instance sweeps.
// Takes no profile: the gadgets and the random instances are fixed.
//
// Expected: Figure 7.1 oscillates with no guideline and converges under
// strict-only, B, C, D, and E; Figure 7.2 oscillates under strict-only (its
// whole point) and converges under B, C, D, and E; random guideline-
// conforming instances always converge.
void run_convergence_lab(Context& /*ctx*/, Results& rows) {
  const Stopwatch watch;
  TextTable table({"gadget", "guideline", "outcome", "activations"});
  const Guideline guidelines[] = {Guideline::None, Guideline::StrictOnly,
                                  Guideline::B,    Guideline::C,
                                  Guideline::D,    Guideline::E};
  for (Guideline guideline : guidelines) {
    const std::pair<const char*, conv::MiroGadget> gadgets[] = {
        {"figure-7.1", conv::make_figure_7_1(guideline)},
        {"figure-7.2", conv::make_figure_7_2(guideline)}};
    for (const auto& [name, gadget] : gadgets) {
      conv::MiroConvergenceModel model = gadget.build();
      const auto result = model.run_round_robin();
      table.add_row({name, conv::to_string(guideline), verdict(result),
                     std::to_string(result.activations)});
      rows.add(std::string(name) + "." + conv::to_string(guideline) +
                   ".converged",
               result.converged ? 1 : 0, "bool");
    }
  }
  std::cout << "Chapter 7 convergence lab — gadgets under each guideline\n";
  table.print(std::cout);

  // Plain-BGP gadgets for reference.
  std::cout << "\nPlain BGP gadgets (Griffin et al.):\n";
  const auto disagree = conv::make_disagree();
  bgp::PathVectorEngine sync_engine(disagree.graph, disagree.destination,
                                    disagree.hooks);
  int changes = 0;
  for (int i = 0; i < 50; ++i)
    if (sync_engine.step_synchronous()) ++changes;
  std::cout << "  DISAGREE synchronous: " << changes
            << "/50 steps changed state (oscillation)\n";
  bgp::PathVectorEngine seq_engine(disagree.graph, disagree.destination,
                                   disagree.hooks);
  std::cout << "  DISAGREE sequential: "
            << (seq_engine.run_to_stable().has_value() ? "converged"
                                                        : "diverged")
            << "\n";
  const auto bad = conv::make_bad_gadget();
  bgp::PathVectorEngine bad_engine(bad.graph, bad.destination, bad.hooks);
  std::cout << "  BAD GADGET: "
            << (bad_engine.run_to_stable(300).has_value()
                    ? "converged (unexpected!)"
                    : "no stable state (as proven)")
            << "\n";

  // Random conforming instances: all must converge.
  std::cout << "\nRandom guideline-conforming instances (72 ASes, 12 tunnel "
               "wishes each):\n";
  for (Guideline guideline :
       {Guideline::B, Guideline::C, Guideline::D, Guideline::E}) {
    std::size_t converged = 0;
    const std::size_t trials = 20;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      topo::GeneratorParams params = topo::profile("tiny");
      params.node_count = 72;
      params.seed = seed;
      const topo::AsGraph graph = topo::generate(params);
      Rng rng(seed * 31 + 7);
      std::vector<topo::NodeId> destinations;
      for (int i = 0; i < 4; ++i)
        destinations.push_back(
            static_cast<topo::NodeId>(rng.next_below(graph.node_count())));
      std::sort(destinations.begin(), destinations.end());
      destinations.erase(
          std::unique(destinations.begin(), destinations.end()),
          destinations.end());
      conv::ModelOptions options;
      options.guideline = guideline;
      for (int i = 0; i < 12; ++i) {
        conv::TunnelSpec spec;
        spec.requester =
            static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
        spec.responder =
            static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
        spec.destination = destinations[rng.next_below(destinations.size())];
        if (spec.requester == spec.responder ||
            spec.responder == spec.destination)
          continue;
        options.tunnels.push_back(spec);
      }
      if (guideline == Guideline::D) {
        options.partial_order = [](topo::NodeId, topo::NodeId fd,
                                   topo::NodeId dest) { return fd < dest; };
      }
      conv::MiroConvergenceModel model(graph, destinations, options);
      if (model.run_round_robin(512).converged) ++converged;
    }
    std::printf("  guideline %-11s %zu/%zu converged\n",
                conv::to_string(guideline), converged, trials);
    rows.add(std::string("random.") + conv::to_string(guideline) +
                 ".converged",
             static_cast<double>(converged), "count");
  }
  rows.add("convergence_lab.elapsed", watch.ms(), "ms");
}

// Control-plane overhead (the abstract's "tremendous flexibility ... with
// reasonable overhead" claim, quantified). Compares, on one synthetic
// Internet at half the run's scale:
//   - what plain BGP costs: UPDATE messages for one prefix to converge, and
//     the reconvergence traffic of a single link failure;
//   - what MIRO adds: four control messages per negotiation plus periodic
//     keep-alives per active tunnel — independent of topology size, paid
//     only by the two negotiating ASes.
void run_overhead_messages(Context& ctx, Results& rows) {
  TextTable table({"profile", "ASes", "links", "BGP msgs to converge",
                   "msgs per link failure", "MIRO msgs per negotiation",
                   "keepalives/tunnel/100t"});
  for (const std::string& profile : ctx.profiles()) {
    const Stopwatch watch;
    const topo::AsGraph graph =
        topo::generate(topo::profile(profile, ctx.config().scale * 0.5));
    add_memory_rows(rows, profile, graph);

    // BGP: converge one prefix, then fail the destination's first link.
    sim::Scheduler scheduler;
    bgp::SessionedBgpNetwork network(graph, /*destination=*/0, scheduler);
    network.start();
    scheduler.run_all(50'000'000);
    const std::size_t converge_msgs =
        network.stats().updates_sent + network.stats().withdrawals_sent;
    const topo::NodeId neighbor = graph.neighbors(0).front().node;
    network.fail_link(0, neighbor);
    scheduler.run_all(50'000'000);
    const std::size_t failure_msgs = network.stats().updates_sent +
                                     network.stats().withdrawals_sent -
                                     converge_msgs;

    // MIRO: one negotiation's message count, measured on the wire.
    std::size_t negotiation_msgs = 0;
    {
      core::RouteStore store(graph);
      sim::Scheduler mscheduler;
      core::Bus bus(mscheduler);
      // Find an adjacent pair with something to negotiate about.
      bgp::StableRouteSolver solver(graph);
      const bgp::RoutingTree tree = solver.solve(0);
      topo::NodeId requester = topo::kInvalidNode, responder = 0;
      for (topo::NodeId s = 1; s < graph.node_count(); ++s) {
        if (!tree.reachable(s)) continue;
        const auto path = tree.path_of(s);
        if (path.size() >= 3 &&
            !solver.candidates_at(tree, path[1]).empty()) {
          requester = s;
          responder = path[1];
          break;
        }
      }
      if (requester != topo::kInvalidNode) {
        core::MiroAgent a(requester, store, bus);
        core::MiroAgent b(responder, store, bus);
        a.request(responder, requester, 0, std::nullopt, std::nullopt,
                  [](const core::NegotiationOutcome&) {});
        // Each protocol message is one bus delivery = one scheduler event.
        // The agents' first periodic soft-state sweep fires at t=100, so
        // the event count up to t=99 IS the handshake message count
        // (request + offers + accept + confirm).
        negotiation_msgs = mscheduler.run_until(99);
      }
    }

    // Keep-alives: interval 100 ticks -> 1 per tunnel per 100 ticks.
    table.add_row({profile, std::to_string(graph.node_count()),
                   std::to_string(graph.edge_count()),
                   std::to_string(converge_msgs),
                   std::to_string(failure_msgs),
                   std::to_string(negotiation_msgs), "1"});
    rows.add(profile + ".bgp_converge", static_cast<double>(converge_msgs),
             "messages");
    rows.add(profile + ".bgp_link_failure", static_cast<double>(failure_msgs),
             "messages");
    rows.add(profile + ".miro_negotiation",
             static_cast<double>(negotiation_msgs), "messages");
    rows.add(profile + ".elapsed", watch.ms(), "ms");
  }
  std::cout << "Control-plane message overhead: BGP baseline vs MIRO "
               "additions\n";
  table.print(std::cout);
  std::cout << "(BGP pays per prefix per topology change across the whole "
               "network; a MIRO negotiation costs a constant four messages "
               "between exactly two ASes, plus soft-state keep-alives on "
               "established tunnels)\n";
}

// Convergence under sustained churn, and what the defenses buy. Two
// workloads per profile, on a half-scale topology:
//   - a seeded mixed churn trace (link flaps, session resets, prefix flaps,
//     hijack-and-recover): per-burst convergence-time distribution and
//     message cost, with the online invariant checker auditing every
//     checkpoint (any violation is reported as a nonzero row);
//   - a persistent single-link flapper: network-wide UPDATE traffic with the
//     MRAI + flap-damping defenses off vs on — the suppression ratio the
//     damping design must pay for itself on.
// The monitoring-overhead pair times the same mixed replay with the
// route-event provenance recorder off vs on.
void run_churn_convergence(Context& ctx, Results& rows) {
  TextTable table({"profile", "ASes", "bursts", "conv p50", "conv p90",
                   "msgs/burst", "flap msgs off", "flap msgs on",
                   "suppression", "rib records", "violations"});
  for (const std::string& profile : ctx.profiles()) {
    const Stopwatch watch;
    const topo::AsGraph graph =
        topo::generate(topo::profile(profile, ctx.config().scale * 0.5));
    const topo::NodeId destination = 0;
    add_memory_rows(rows, profile, graph);

    // Mixed churn: the seeded generator's workload, defenses off, with the
    // invariant checker auditing the whole replay.
    churn::ChurnTraceConfig trace_config;
    trace_config.seed = ctx.config().seed;
    trace_config.duration = 12000;
    trace_config.episodes = 16;
    const churn::ChurnTrace mixed =
        churn::generate_churn_trace(graph, destination, trace_config);
    churn::ReplayConfig replay_config;
    replay_config.checkpoint_interval = 1000;
    const churn::ReplayResult base =
        churn::replay_churn(graph, mixed, replay_config);

    obs::Histogram durations;
    obs::Histogram messages;
    for (const churn::ConvergenceSample& sample : base.convergence) {
      durations.observe(static_cast<double>(sample.duration()));
      messages.observe(static_cast<double>(sample.messages));
    }
    std::size_t violations = base.violations.size();

    // Monitoring overhead: the identical mixed replay, provenance recorder
    // off vs on. The monitored run must agree with the unmonitored one on
    // every protocol counter (zero-cost-when-disabled means zero behaviour
    // change when enabled), and its record stream must close the books
    // against those counters; either failure counts as a violation.
    const Stopwatch off_watch;
    const churn::ReplayResult unmonitored =
        churn::replay_churn(graph, mixed, replay_config);
    const double monitor_off_ms = off_watch.ms();
    obs::RibMonitor rib;
    churn::ReplayConfig monitored_config = replay_config;
    monitored_config.ribmon = &rib;
    const Stopwatch on_watch;
    const churn::ReplayResult monitored =
        churn::replay_churn(graph, mixed, monitored_config);
    const double monitor_on_ms = on_watch.ms();
    const obs::ProvenanceSummary provenance =
        obs::build_propagation_trees(rib.records());
    const std::size_t wire =
        monitored.bgp.updates_sent + monitored.bgp.withdrawals_sent;
    const bool monitor_ok =
        monitored.bgp.updates_sent == unmonitored.bgp.updates_sent &&
        monitored.bgp.withdrawals_sent == unmonitored.bgp.withdrawals_sent &&
        monitored.bgp.selections == unmonitored.bgp.selections &&
        rib.wire_messages() == wire && provenance.total_updates == wire &&
        provenance.orphans == 0;
    if (!monitor_ok) ++violations;

    // Persistent flapper on the destination's first link: off vs on.
    const topo::NodeId flappy = graph.neighbors(destination).front().node;
    const churn::ChurnTrace flap_trace = churn::make_persistent_flap_trace(
        graph, destination, destination, flappy, /*flaps=*/30,
        /*period=*/120);
    churn::ReplayConfig off_config;
    off_config.checkpoint_interval = 0;  // final audit only: pure message cost
    const churn::ReplayResult off =
        churn::replay_churn(graph, flap_trace, off_config);
    churn::ReplayConfig on_config = off_config;
    on_config.defense.mrai = 60;
    on_config.defense.damping_enabled = true;
    const churn::ReplayResult on =
        churn::replay_churn(graph, flap_trace, on_config);
    violations += off.violations.size() + on.violations.size();

    const std::size_t off_msgs =
        off.bgp.updates_sent + off.bgp.withdrawals_sent;
    const std::size_t on_msgs = on.bgp.updates_sent + on.bgp.withdrawals_sent;
    const double suppression =
        on_msgs == 0 ? 0 : static_cast<double>(off_msgs) / on_msgs;

    table.add_row({profile, std::to_string(graph.node_count()),
                   std::to_string(base.convergence.size()),
                   fixed2(durations.p50()), fixed2(durations.p90()),
                   fixed2(messages.mean()), std::to_string(off_msgs),
                   std::to_string(on_msgs), fixed2(suppression) + "x",
                   std::to_string(rib.size()), std::to_string(violations)});
    rows.add(profile + ".mixed.bursts",
             static_cast<double>(base.convergence.size()), "bursts");
    rows.add(profile + ".mixed.convergence_p50", durations.p50(), "ticks");
    rows.add(profile + ".mixed.convergence_p90", durations.p90(), "ticks");
    rows.add(profile + ".mixed.msgs_per_burst", messages.mean(), "messages");
    rows.add(profile + ".mixed.rib_bytes",
             static_cast<double>(base.rib.rib_bytes), "bytes");
    rows.add(profile + ".mixed.bytes_per_route", base.rib.bytes_per_route(),
             "bytes/route");
    rows.add(profile + ".mixed.checker_bytes",
             static_cast<double>(base.checker_bytes), "bytes");
    rows.add(profile + ".flap.updates_off", static_cast<double>(off_msgs),
             "messages");
    rows.add(profile + ".flap.updates_on", static_cast<double>(on_msgs),
             "messages");
    rows.add(profile + ".flap.suppression_ratio", suppression, "x");
    rows.add(profile + ".flap.routes_damped",
             static_cast<double>(on.bgp.routes_damped), "routes");
    rows.add(profile + ".monitor.replay_off_ms", monitor_off_ms, "ms");
    rows.add(profile + ".monitor.replay_on_ms", monitor_on_ms, "ms");
    rows.add(profile + ".monitor.records", static_cast<double>(rib.size()),
             "records");
    rows.add(profile + ".monitor.trees",
             static_cast<double>(provenance.trees.size()), "trees");
    rows.add(profile + ".violations", static_cast<double>(violations),
             "violations");
    rows.add(profile + ".elapsed", watch.ms(), "ms");
  }
  std::cout << "Churn convergence: mixed-trace burst distribution and the "
               "MRAI+damping suppression ratio under a persistent flapper\n";
  table.print(std::cout);
  std::cout << "(convergence in sim ticks per churn burst; 'suppression' is "
               "total UPDATE/WITHDRAW traffic with defenses off divided by "
               "defenses on over the same 30-flap script; the violations "
               "column is the online invariant checker's verdict and must "
               "be 0)\n";
}

}  // namespace miro::bench
