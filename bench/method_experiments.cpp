// Ablations, methodology checks, the static verifier's cost, and the
// internet-scale generation / solve cost.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/symbolic_routes.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/alternates.hpp"
#include "eval/te_comparison.hpp"
#include "suite.hpp"
#include "topology/inference.hpp"
#include "topology/serialization.hpp"

namespace miro::bench {

// MIRO tunnels vs prefix deaggregation vs AS-path prepending for inbound
// traffic engineering (the Section 1.2 footnote).
//
// Expected shape: deaggregation moves a large, coarse chunk but costs one
// routing-table entry in EVERY AS; prepending is free but moves little
// (local preference is compared before AS-path length, so only same-class
// ties budge) and barely improves with depth; MIRO moves a meaningful,
// finely-negotiated share with state at just two ASes.
void run_ablation_te_mechanisms(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const auto result = eval::run_te_comparison(plan);
    rows.add(profile + ".elapsed", watch.ms(), "ms");
    eval::print(result, std::cout);
    std::cout << "\n";
    for (const auto& mechanism : result.mechanisms) {
      rows.add(profile + "." + mechanism.name + ".median_moved",
               mechanism.median_moved, "fraction");
    }
  }
}

// How much each negotiation capability contributes to the avoid-an-AS
// success rate (the DESIGN.md negotiation-scope ablation).
//
// Sweeps: plain BGP -> 1-hop negotiation only -> on-path negotiation (the
// paper's procedure) -> on-path + one level of multi-hop relay (Section
// 3.3's "AS B may ask AS C"). Expected shape: each step helps; multi-hop
// adds a real but modest tail because "most paths in today's Internet are
// short".
void run_ablation_negotiation_scope(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const core::AlternatesEngine engine(plan.solver());
    const auto& tuples =
        plan.sample_tuples(plan.config().sources_per_destination);

    TextTable table({"policy", "BGP only", "1-hop", "on-path",
                     "on-path + multihop"});
    for (core::ExportPolicy policy : core::kAllPolicies) {
      std::size_t bgp_ok = 0, onehop_ok = 0, onpath_ok = 0, multi_ok = 0;
      for (const eval::SampledTuple& tuple : tuples) {
        const auto& tree = plan.tree(tuple.tree_index);
        const auto result =
            engine.avoid_as(tree, tuple.source, tuple.avoid, policy);
        if (result.bgp_success) ++bgp_ok;
        if (result.success) ++onpath_ok;
        // 1-hop: does any immediate-neighbor negotiation expose a clean
        // path?
        bool onehop = result.bgp_success;
        if (!onehop) {
          for (const core::SplicedPath& path :
               engine.collect(tree, tuple.source,
                              core::NegotiationScope::OneHop, policy)) {
            if (!path.traverses(tuple.avoid)) {
              onehop = true;
              break;
            }
          }
        }
        if (onehop) ++onehop_ok;
        if (engine.avoid_as_multihop(tree, tuple.source, tuple.avoid, policy)
                .success)
          ++multi_ok;
      }
      const double n = static_cast<double>(tuples.size());
      table.add_row(
          {std::string(core::to_string(policy)) + core::suffix(policy),
           TextTable::percent(bgp_ok / n), TextTable::percent(onehop_ok / n),
           TextTable::percent(onpath_ok / n),
           TextTable::percent(multi_ok / n)});
      const std::string key = profile + "." + core::to_string(policy);
      rows.add(key + ".bgp", bgp_ok / n, "fraction");
      rows.add(key + ".onehop", onehop_ok / n, "fraction");
      rows.add(key + ".onpath", onpath_ok / n, "fraction");
      rows.add(key + ".multihop", multi_ok / n, "fraction");
    }
    rows.add(profile + ".elapsed", watch.ms(), "ms");
    std::cout << "Negotiation-scope ablation [" << profile << ", "
              << tuples.size() << " tuples]\n";
    table.print(std::cout);
    std::cout << "\n";
  }
}

// Methodology check (Section 5.1): relationship-inference accuracy.
//
// The dissertation annotates measured topologies with relationships
// inferred by Gao's algorithm and by the Subramanian/Agarwal rank
// algorithm, citing Mao et al. that "the Gao algorithm produces more
// accurate inference results". On synthetic topologies the planted ground
// truth is known, so the claim is directly measurable: take a profile's
// graph, compute the stable BGP paths seen from a set of vantage points
// (what RouteViews collects), run both inference algorithms, and score
// them.
void run_inference_accuracy(Context& ctx, Results& rows) {
  TextTable table({"profile", "vantages", "paths", "algorithm",
                   "edges seen", "accuracy", "missing", "spurious"});
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    const topo::AsGraph& truth = plan.graph();
    add_memory_rows(rows, profile, truth);
    const Stopwatch watch;

    // RouteViews-style observation: full tables from a few dozen vantages.
    const std::size_t vantage_count = 32;
    std::vector<topo::AsPath> paths;
    for (std::size_t v = 0; v < vantage_count; ++v) {
      const auto dest = static_cast<topo::NodeId>(
          (v * truth.node_count()) / vantage_count);
      const bgp::RoutingTree tree = plan.solver().solve(dest);
      for (topo::NodeId source = 0; source < truth.node_count(); ++source) {
        if (source == dest || !tree.reachable(source)) continue;
        topo::AsPath path;
        for (topo::NodeId node : tree.path_of(source))
          path.push_back(truth.as_number(node));
        paths.push_back(std::move(path));
      }
    }

    struct Run {
      const char* name;
      topo::AsGraph inferred;
    };
    const Run runs[] = {{"gao", topo::infer_gao(paths)},
                        {"rank", topo::infer_rank(paths)}};
    for (const Run& run : runs) {
      const auto accuracy = topo::compare_inference(truth, run.inferred);
      table.add_row({profile, std::to_string(vantage_count),
                     std::to_string(paths.size()), run.name,
                     std::to_string(accuracy.classified_correct +
                                    accuracy.classified_wrong),
                     TextTable::percent(accuracy.accuracy()),
                     std::to_string(accuracy.edges_missing),
                     std::to_string(accuracy.edges_spurious)});
      rows.add(profile + "." + run.name + ".accuracy", accuracy.accuracy(),
               "fraction");
    }
    rows.add(profile + ".elapsed", watch.ms(), "ms");
  }
  std::cout << "Relationship-inference accuracy against planted ground "
               "truth (Section 5.1 methodology)\n";
  table.print(std::cout);
  std::cout << "(expected: Gao classifies most observed edges correctly and "
               "beats the rank algorithm, matching Mao et al.'s finding the "
               "dissertation cites)\n";
}

// Layer-3 verification cost: how long the symbolic fixpoints take on the
// paper topologies, how much per-node state they hold, and — the gate that
// matters — whether the static plane still bit-matches the simulator.
//
// Rows per profile:
//   <p>.verify.fixpoint_ms    time to solve one symbolic fixpoint per
//                             sampled destination (regression-gated)
//   <p>.verify.state_bytes    capacity-walk bytes of those maps, also fed
//                             into the analysis/symbolic memory account
//                             (byte-row gated)
//   <p>.verify.entry_agree    fraction of tree entries where the planes
//                             agree — must be 1.0
//   <p>.verify.avoid_agree    fraction of avoid tuples where the planes
//                             agree — must be 1.0
void run_verify_fixpoint(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const analysis::SymbolicRouteEngine engine(plan.graph());

    // Timed region: one fixpoint per sampled destination (the same
    // destinations the simulator plane solved), state bytes accumulated.
    const Stopwatch watch;
    std::uint64_t state_bytes = 0;
    std::size_t sweeps = 0;
    for (const bgp::RoutingTree& tree : plan.trees()) {
      const analysis::SymbolicRouteMap map = engine.solve(tree.destination());
      state_bytes += map.memory_bytes();
      sweeps += map.sweeps();
    }
    const double ms = watch.ms();
    if (obs::MemoryRegistry* mem = obs::memory())
      mem->account("analysis/symbolic").set_current(state_bytes);

    // The correctness gate: the differential oracle on the same config.
    analysis::DifferentialOptions diff;
    diff.seed = plan.config().seed;
    diff.destination_samples = plan.config().destination_samples;
    diff.sources_per_destination = plan.config().sources_per_destination;
    const analysis::DifferentialOutcome outcome =
        analysis::differential_check(plan.graph(), diff, profile);

    std::cout << profile << ": " << plan.trees().size() << " fixpoints in "
              << ms << " ms (" << sweeps << " sweeps), " << state_bytes
              << " state bytes; differential: " << outcome.entries
              << " entries, " << outcome.tuples << " avoid tuples, "
              << outcome.entry_mismatches << "+" << outcome.avoid_mismatches
              << " divergences\n";
    if (!outcome.ok()) outcome.report.render_text(std::cerr);

    rows.add(profile + ".verify.fixpoint_ms", ms, "ms");
    rows.add(profile + ".verify.state_bytes",
             static_cast<double>(state_bytes), "bytes");
    rows.add(profile + ".verify.entry_agree", outcome.entry_agree(),
             "fraction");
    rows.add(profile + ".verify.avoid_agree", outcome.avoid_agree(),
             "fraction");
  }
}

// Internet-scale topology: generation and solve cost at full scale.
//
// The dissertation's evaluation runs on measured RouteViews snapshots with
// tens of thousands of ASes; this experiment proves the pipeline holds up
// at that size and pins the cost down as gated rows. Per profile:
//   <profile>.generate_ms        wall-clock to generate + freeze the graph
//   <profile>.solve_ms_per_dest  mean serial solve time per destination
//   <profile>.graph_bytes / .bytes_per_edge    frozen CSR footprint
//   <profile>.trees_bytes / .bytes_per_route   routing-state footprint
// plus unitless node/edge/route counts. It generates and solves on its own
// rather than reading the shared plan, because those are the timed rows.
// Solves are intentionally serial so the per-destination number is a clean
// single-core cost, not a parallel-speedup artifact. With --save the
// generated graph is also written in CAIDA pipe format (the CI smoke job
// feeds it to miro_lint --topology).
void run_internet_scale(Context& ctx, Results& rows) {
  std::cout << "Internet-scale topology: generation and solve cost\n";
  TextTable table({"profile", "nodes", "edges", "gen ms", "solve ms/dest",
                   "B/edge", "B/route"});
  for (const std::string& name : ctx.profiles()) {
    const topo::GeneratorParams params =
        topo::profile(name, ctx.config().scale);
    const Stopwatch generate_watch;
    const topo::AsGraph graph = topo::generate(params);
    const double generate_ms = generate_watch.ms();

    const std::size_t n = graph.node_count();
    rows.add(name + ".nodes", static_cast<double>(n), "count");
    rows.add(name + ".edges", static_cast<double>(graph.edge_count()),
             "count");
    rows.add(name + ".generate_ms", generate_ms, "ms");
    add_memory_rows(rows, name, graph);

    // Destination sample drawn exactly like ExperimentPlan's, solved
    // serially into one arena (the RouteStore layout).
    Rng rng(ctx.config().seed);
    const std::size_t samples = std::min(ctx.config().dests, n);
    std::vector<topo::NodeId> destinations;
    for (std::size_t index : rng.sample_indices(n, samples))
      destinations.push_back(static_cast<topo::NodeId>(index));
    std::sort(destinations.begin(), destinations.end());

    const bgp::StableRouteSolver solver(graph);
    Arena arena(n * bgp::RoutingTree::bytes_per_node());
    std::vector<bgp::RoutingTree> trees;
    trees.reserve(destinations.size());
    const Stopwatch solve_watch;
    for (topo::NodeId destination : destinations)
      trees.push_back(solver.solve(destination, &arena));
    const double solve_ms = solve_watch.ms();
    const double solve_ms_per_dest =
        destinations.empty()
            ? 0.0
            : solve_ms / static_cast<double>(destinations.size());
    rows.add(name + ".solve_ms_per_dest", solve_ms_per_dest, "ms");

    std::uint64_t routes = 0;
    std::uint64_t tree_bytes = 0;
    for (const bgp::RoutingTree& tree : trees) {
      routes += tree.reachable_count();
      tree_bytes += tree.memory_bytes();
    }
    const double bytes_per_route =
        routes == 0 ? 0.0
                    : static_cast<double>(tree_bytes) /
                          static_cast<double>(routes);
    rows.add(name + ".routes", static_cast<double>(routes), "count");
    rows.add(name + ".trees_bytes", static_cast<double>(tree_bytes),
             "bytes");
    if (routes > 0) rows.add(name + ".bytes_per_route", bytes_per_route,
                             "bytes/route");
    if (obs::MemoryRegistry* mem = obs::memory()) {
      mem->account("eval/trees").set_current(tree_bytes);
      mem->sample_rss();
    }

    table.add_row({name, std::to_string(n),
                   std::to_string(graph.edge_count()),
                   TextTable::num(generate_ms, 1),
                   TextTable::num(solve_ms_per_dest, 2),
                   TextTable::num(static_cast<double>(graph.memory_bytes()) /
                                  static_cast<double>(graph.edge_count())),
                   TextTable::num(bytes_per_route)});

    if (!ctx.config().save_path.empty()) {
      topo::save_file(graph, ctx.config().save_path);
      std::cout << "saved " << name << " topology to "
                << ctx.config().save_path << "\n";
    }
  }
  table.print(std::cout);
}

}  // namespace miro::bench
