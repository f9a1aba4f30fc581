// Chapter 5's tables and figures, each over the shared per-profile plan.
#include <cmath>
#include <iostream>
#include <map>

#include "analysis/symbolic_routes.hpp"
#include "eval/avoid_as.hpp"
#include "eval/dataset_report.hpp"
#include "eval/path_diversity.hpp"
#include "eval/traffic_control.hpp"
#include "suite.hpp"
#include "topology/generator.hpp"

namespace miro::bench {
namespace {

void print_computed_in(double ms) {
  std::cout << "(computed in " << std::llround(ms) << " ms)\n\n";
}

// Layer-3 cross-check for Table 5.2: the fraction of sampled avoid tuples
// where the symbolic engine's static prediction matches the simulated
// procedure on every observable (success, plain-BGP success, and both
// negotiation footprint counters) under all three export policies. The gate
// expects exactly 1.0 — any disagreement is a bug in one plane or the other.
double static_agreement(const eval::ExperimentPlan& plan) {
  const analysis::SymbolicRouteEngine engine(plan.graph());
  const core::AlternatesEngine alternates(plan.solver());
  std::map<std::size_t, analysis::SymbolicRouteMap> maps;
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const eval::SampledTuple& tuple :
       plan.sample_tuples(plan.config().sources_per_destination)) {
    const auto [it, inserted] = maps.try_emplace(tuple.tree_index);
    if (inserted) it->second = engine.solve(tuple.destination);
    const analysis::SymbolicRouteMap& map = it->second;
    // A tuple whose default path already differs between the planes counts
    // as full disagreement (predict_avoid requires the avoided AS on *its*
    // path, so it cannot be asked).
    if (map.path_of(tuple.source) !=
        plan.tree(tuple.tree_index).path_of(tuple.source)) {
      total += 3;
      continue;
    }
    for (const core::ExportPolicy policy : core::kAllPolicies) {
      const auto simulated = alternates.avoid_as(
          plan.tree(tuple.tree_index), tuple.source, tuple.avoid, policy);
      const auto predicted =
          engine.predict_avoid(map, tuple.source, tuple.avoid, policy);
      ++total;
      if (predicted.success == simulated.success &&
          predicted.bgp_success == simulated.bgp_success &&
          predicted.ases_contacted == simulated.ases_contacted &&
          predicted.paths_received == simulated.paths_received)
        ++agree;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(agree) / static_cast<double>(total);
}

}  // namespace

// Table 5.1: attributes of the data sets.
//
// Paper values (measured RouteViews snapshots):
//   Gao 2000: 8829 nodes, 17793 edges, 16531 P/C, 1031 peer, 231 sibling
//   Gao 2003: 16130 / 34231 / 30649 / 3062 / 520
//   Gao 2005: 20930 / 44998 / 40558 / 3753 / 687
//   Agarwal 2004: 16921 / 38282 / 34552 / 3553 / 177
// The synthetic profiles reproduce the edge-per-node density and the
// relationship mix at the requested scale.
//
// Table 5.1 and Figure 5.1 read only the graph: each profile's graph is
// generated once and feeds both the printer and the footprint rows, so
// running either alone solves no trees.
void run_table_5_1_datasets(Context& ctx, Results& rows) {
  const Stopwatch watch;
  std::vector<topo::AsGraph> graphs;
  for (const std::string& profile : ctx.profiles())
    graphs.push_back(
        topo::generate(topo::profile(profile, ctx.config().scale)));
  eval::print_dataset_table(ctx.profiles(), graphs, ctx.config().scale,
                            std::cout);
  rows.add("dataset_table.elapsed", watch.ms(), "ms");
  for (std::size_t i = 0; i < graphs.size(); ++i)
    add_memory_rows(rows, ctx.profiles()[i], graphs[i]);
}

// Figure 5.1: the node degree distribution.
//
// Paper shape: a heavy-tailed distribution where "only 0.2% of the ASes has
// more than 200 neighbors, and less than 1% has more than 40"; the
// high-degree nodes are the tier-1 core.
void run_fig_5_1_degree_distribution(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const Stopwatch watch;
    const topo::AsGraph graph =
        topo::generate(topo::profile(profile, ctx.config().scale));
    eval::print_degree_distribution(profile, graph, std::cout);
    rows.add(profile + ".elapsed", watch.ms(), "ms");
    std::cout << "\n";
    add_memory_rows(rows, profile, graph);
  }
}

// Figures 5.2/5.3: the number of available alternate routes per (source,
// destination) pair, sweeping negotiation scope and export policy.
//
// Paper shape: only a small fraction of pairs has no alternate path even
// under the strictest policy (~5-13%); "more than half of the AS pairs can
// find at least tens of alternate paths"; the respect-export and
// most-flexible curves nearly coincide; the "path" scope grows much faster
// than "1-hop".
void run_fig_5_2_5_3_path_diversity(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const auto result = eval::run_path_diversity(plan);
    const double ms = watch.ms();
    eval::print(result, std::cout);
    print_computed_in(ms);
    rows.add(profile + ".elapsed", ms, "ms");
    for (const eval::DiversityRow& row : result.rows) {
      const std::string key = profile + "." + core::to_string(row.scope) +
                              "." + core::to_string(row.policy);
      rows.add(key + ".fraction_zero", row.fraction_zero, "fraction");
      rows.add(key + ".p50", row.p50, "paths");
    }
  }
}

// Table 5.2: avoid-an-AS success rates.
//
// Paper values to compare shape against:
//   Name         Single  Multi/s  Multi/e  Multi/a  Source
//   Gao 2000     27.8%   65.4%    72.9%    75.3%    89.5%
//   Gao 2003     31.2%   67.0%    74.6%    76.6%    90.4%
//   Gao 2005     29.5%   67.8%    73.7%    76.0%    91.1%
//   Sharad 2004  34.6%   56.7%    62.0%    68.1%    86.3%
// The ordering Single < Multi/s < Multi/e < Multi/a < Source and the rough
// magnitudes are the reproduction target.
void run_table_5_2_avoid_success(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const auto result = eval::run_avoid_as(plan);
    const double ms = watch.ms();
    eval::print_table_5_2(result, std::cout);
    print_computed_in(ms);
    rows.add(profile + ".elapsed", ms, "ms");
    rows.add(profile + ".single_rate", result.single_rate, "fraction");
    rows.add(profile + ".source_rate", result.source_rate, "fraction");
    for (int p = 0; p < 3; ++p) {
      rows.add(profile + ".multi_rate." + std::to_string(p),
               result.multi_rate[p], "fraction");
    }
    const double agree = static_agreement(plan);
    std::cout << "static/simulated agreement: " << agree << "\n\n";
    rows.add(profile + ".static_agree", agree, "fraction");
  }
}

// Table 5.3: the state MIRO handles while negotiating — success rate, ASes
// contacted per tuple, candidate paths received per tuple, restricted to
// the tuples plain BGP cannot satisfy.
//
// Paper shape: a stricter policy contacts MORE ASes but receives FEWER
// candidate paths (Gao 2005: strict 2.80 ASes / 36.6 paths vs flexible
// 2.38 ASes / 139.0 paths); later-year topologies yield more paths per
// tuple.
void run_table_5_3_negotiation_state(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const auto result = eval::run_avoid_as(plan);
    rows.add(profile + ".elapsed", watch.ms(), "ms");
    eval::print_table_5_3(result, std::cout);
    std::cout << "\n";
    for (const auto& row : result.state_rows) {
      const std::string key = profile + "." + core::to_string(row.policy);
      rows.add(key + ".success_rate", row.success_rate, "fraction");
      rows.add(key + ".avg_ases_contacted", row.avg_ases_contacted, "count");
    }
  }
}

// Figures 5.4/5.5: incremental deployment.
//
// Paper shape: with only the 0.2% most-connected ASes running MIRO the
// system already achieves ~40-50% of the full-deployment gain; the top 1%
// yields ~50-75%; deploying at the low-degree edge first achieves almost
// nothing until nearly everyone has converted.
void run_fig_5_4_5_5_incremental(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    const Stopwatch watch;
    const auto result = eval::run_incremental_deployment(plan);
    rows.add(profile + ".elapsed", watch.ms(), "ms");
    eval::print(result, std::cout);
    std::cout << "\n";
    if (!result.points.empty()) {
      const auto& half = result.points[result.points.size() / 2];
      rows.add(profile + ".mid_gain.flexible", half.relative_gain[2],
               "fraction");
      rows.add(profile + ".mid_gain.low_degree_first",
               half.low_degree_first_gain, "fraction");
    }
  }
}

// Figures 5.6/5.7: multi-homed stubs controlling inbound traffic through a
// single "power node" negotiation.
//
// Paper shape (Gao 2005): under strict policy and convert_all ~83% of stubs
// can move >= 10% of inbound traffic and about half can move >= 25%;
// flexible/convert_all reaches 98% at the 10% threshold; the
// independent_selection lower bound still moves >= 10% for ~64% (strict) to
// ~77% (flexible) of stubs. Over 90% of power nodes are top-degree ASes,
// only ~9% are immediate neighbors of the stub, ~68% sit two hops away.
void run_fig_5_6_5_7_traffic_control(Context& ctx, Results& rows) {
  for (const std::string& profile : ctx.profiles()) {
    const eval::ExperimentPlan& plan = ctx.plan(profile);
    add_memory_rows(rows, profile, plan);
    eval::TrafficControlConfig config;
    config.stub_samples = 120;
    const Stopwatch watch;
    const auto result = eval::run_traffic_control(plan, config);
    const double ms = watch.ms();
    eval::print(result, std::cout);
    print_computed_in(ms);
    rows.add(profile + ".elapsed", ms, "ms");
    rows.add(profile + ".stubs_evaluated",
             static_cast<double>(result.stubs_evaluated), "count");
    for (const auto& series : result.series) {
      const std::string key =
          profile + "." + core::to_string(series.policy) +
          (series.convert_all ? ".convert_all" : ".independent");
      rows.add(key + ".median_best_move", series.median_best_move,
               "fraction");
    }
  }
}

}  // namespace miro::bench
