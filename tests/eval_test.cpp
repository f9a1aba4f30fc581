#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "eval/avoid_as.hpp"
#include "eval/dataset_report.hpp"
#include "eval/experiments.hpp"
#include "eval/path_diversity.hpp"
#include "eval/traffic_control.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::eval {
namespace {

EvalConfig tiny_config() {
  EvalConfig config;
  config.profile = "tiny";
  config.destination_samples = 24;
  config.sources_per_destination = 16;
  config.seed = 7;
  return config;
}

const ExperimentPlan& tiny_plan() {
  static const ExperimentPlan* plan = new ExperimentPlan(tiny_config());
  return *plan;
}

TEST(ExperimentPlan, SamplesAreDeterministic) {
  const auto& plan = tiny_plan();
  const auto pairs1 = plan.sample_pairs(8);
  const auto pairs2 = plan.sample_pairs(8);
  ASSERT_EQ(pairs1.size(), pairs2.size());
  for (std::size_t i = 0; i < pairs1.size(); ++i) {
    EXPECT_EQ(pairs1[i].source, pairs2[i].source);
    EXPECT_EQ(pairs1[i].destination, pairs2[i].destination);
  }
  EXPECT_FALSE(pairs1.empty());
}

TEST(ExperimentPlan, TuplesExcludeNeighborsAndEndpoints) {
  const auto& plan = tiny_plan();
  for (const SampledTuple& tuple : plan.sample_tuples(16)) {
    EXPECT_NE(tuple.avoid, tuple.source);
    EXPECT_NE(tuple.avoid, tuple.destination);
    EXPECT_FALSE(plan.graph().has_edge(tuple.source, tuple.avoid))
        << "avoid AS must not be an immediate neighbor of the source";
    // The avoided AS lies on the source's default path.
    const auto path = plan.tree(tuple.tree_index).path_of(tuple.source);
    EXPECT_NE(std::find(path.begin(), path.end(), tuple.avoid), path.end());
  }
}

TEST(ReachableAvoiding, BasicProperties) {
  const auto& plan = tiny_plan();
  const auto tuples = plan.sample_tuples(8);
  ASSERT_FALSE(tuples.empty());
  // Avoiding a node never *creates* reachability: with no avoidance
  // constraint there is trivially a path (same node avoided = unused id).
  const SampledTuple& t = tuples.front();
  EXPECT_FALSE(
      reachable_avoiding(plan.graph(), t.source, t.destination, t.source));
  EXPECT_TRUE(reachable_avoiding(plan.graph(), t.source, t.source, t.avoid));
}

// One-directional BFS from the source with `avoid` removed: the reference
// the bidirectional search must agree with.
bool reference_reachable_avoiding(const topo::AsGraph& graph, NodeId source,
                                  NodeId destination, NodeId avoid) {
  if (source == avoid || destination == avoid) return false;
  std::vector<bool> seen(graph.node_count(), false);
  std::vector<NodeId> queue{source};
  seen[source] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (queue[head] == destination) return true;
    for (const topo::Neighbor& n : graph.neighbors(queue[head])) {
      if (n.node == avoid || seen[n.node]) continue;
      seen[n.node] = true;
      queue.push_back(n.node);
    }
  }
  return false;
}

TEST(ReachableAvoiding, AgreesWithOneDirectionalSearch) {
  const topo::AsGraph& graph = tiny_plan().graph();
  const std::size_t n = graph.node_count();
  Rng rng(41);
  const auto random_node = [&] {
    return static_cast<NodeId>(rng.next_below(n));
  };
  for (int i = 0; i < 400; ++i) {
    const NodeId source = random_node();
    const NodeId destination = random_node();
    const NodeId avoid = random_node();
    EXPECT_EQ(reachable_avoiding(graph, source, destination, avoid),
              reference_reachable_avoiding(graph, source, destination, avoid))
        << source << " -> " << destination << " avoiding " << avoid;
  }
  // Forced negatives: a single-homed stub cut off by avoiding its only
  // provider, in either direction, and an avoided endpoint.
  std::size_t cut_off = 0;
  for (NodeId stub = 0; stub < n; ++stub) {
    if (!graph.is_stub(stub) || graph.degree(stub) != 1) continue;
    const NodeId provider = graph.neighbors(stub).front().node;
    const NodeId other = stub == 0 ? 1 : 0;
    if (other == provider) continue;
    EXPECT_FALSE(reachable_avoiding(graph, stub, other, provider)) << stub;
    EXPECT_FALSE(reachable_avoiding(graph, other, stub, provider)) << stub;
    EXPECT_FALSE(reachable_avoiding(graph, stub, other, stub)) << stub;
    EXPECT_FALSE(reachable_avoiding(graph, other, stub, stub)) << stub;
    ++cut_off;
  }
  EXPECT_GT(cut_off, 0u) << "the tiny graph has no single-homed stub";
}

TEST(PathDiversity, PolicyAndScopeMonotonicity) {
  const DiversityResult result = run_path_diversity(tiny_plan());
  ASSERT_EQ(result.rows.size(), 6u);
  // Within each scope: strict <= export <= flexible on the mean.
  for (int scope = 0; scope < 2; ++scope) {
    const auto& strict = result.rows[scope * 3 + 0];
    const auto& exported = result.rows[scope * 3 + 1];
    const auto& flexible = result.rows[scope * 3 + 2];
    EXPECT_LE(strict.mean, exported.mean + 1e-9);
    EXPECT_LE(exported.mean, flexible.mean + 1e-9);
    EXPECT_GE(strict.fraction_zero, flexible.fraction_zero - 1e-9);
  }
  // MIRO exposes real diversity: flexible policy finds alternates for most
  // pairs.
  EXPECT_LT(result.rows[2].fraction_zero, 0.5);
  EXPECT_GT(result.rows[2].mean, 1.0);
}

TEST(PathDiversity, PrintsATable) {
  std::ostringstream out;
  print(run_path_diversity(tiny_plan()), out);
  EXPECT_NE(out.str().find("strict/s"), std::string::npos);
  EXPECT_NE(out.str().find("1-hop"), std::string::npos);
}

TEST(AvoidAs, Table52OrderingHolds) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  ASSERT_GT(result.tuples, 0u);
  // The paper's headline ordering: Single < Multi/s <= Multi/e <= Multi/a
  // <= Source.
  EXPECT_LT(result.single_rate, result.multi_rate[0]);
  EXPECT_LE(result.multi_rate[0], result.multi_rate[1] + 1e-9);
  EXPECT_LE(result.multi_rate[1], result.multi_rate[2] + 1e-9);
  EXPECT_LE(result.multi_rate[2], result.source_rate + 1e-9);
  // And MIRO provides a real boost over single-path routing.
  EXPECT_GT(result.multi_rate[2], result.single_rate + 0.1);
}

TEST(AvoidAs, Table53StateIsBounded) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  for (const auto& row : result.state_rows) {
    // Negotiation footprint stays tiny, as in the paper (~2-3 ASes).
    EXPECT_LT(row.avg_ases_contacted, 6.0);
    EXPECT_GE(row.avg_ases_contacted, 0.0);
    EXPECT_GE(row.avg_paths_received, 0.0);
  }
  // Looser policy => at least as many candidate paths per tuple.
  EXPECT_LE(result.state_rows[0].avg_paths_received,
            result.state_rows[2].avg_paths_received + 1e-9);
}

TEST(AvoidAs, PrintsTables) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  std::ostringstream out;
  print_table_5_2(result, out);
  print_table_5_3(result, out);
  EXPECT_NE(out.str().find("Multi/a"), std::string::npos);
  EXPECT_NE(out.str().find("Path#/tuple"), std::string::npos);
}

TEST(IncrementalDeployment, GainGrowsWithDeployment) {
  const DeploymentResult result = run_incremental_deployment(tiny_plan());
  ASSERT_FALSE(result.points.empty());
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    // Non-decreasing in deployment fraction for each policy.
    for (int p = 0; p < 3; ++p)
      EXPECT_GE(result.points[i].relative_gain[p] + 1e-9,
                result.points[i - 1].relative_gain[p]);
  }
  const auto& full = result.points.back();
  EXPECT_NEAR(full.relative_gain[2], 1.0, 1e-9);  // /a at 100% is the base
  // Top-degree deployment beats low-degree-first everywhere.
  for (const DeploymentPoint& point : result.points) {
    if (point.fraction < 0.5) {
      EXPECT_GE(point.relative_gain[2] + 1e-9, point.low_degree_first_gain);
    }
  }
  // A small top-degree core already yields a large share of the gain.
  for (const DeploymentPoint& point : result.points) {
    if (point.fraction >= 0.04 && point.fraction <= 0.06) {
      EXPECT_GT(point.relative_gain[2], 0.25);
    }
  }
}

TEST(TrafficControl, BoundsAndOrderings) {
  TrafficControlConfig config;
  config.stub_samples = 40;
  config.power_node_candidates = 4;
  const TrafficControlResult result =
      run_traffic_control(tiny_plan(), config);
  ASSERT_EQ(result.series.size(), 4u);
  for (const auto& series : result.series) {
    ASSERT_EQ(series.stub_fraction.size(), result.thresholds.size());
    // CCDF over thresholds is non-increasing and within [0,1].
    for (std::size_t i = 0; i < series.stub_fraction.size(); ++i) {
      EXPECT_GE(series.stub_fraction[i], 0.0);
      EXPECT_LE(series.stub_fraction[i], 1.0);
      if (i > 0) {
        EXPECT_LE(series.stub_fraction[i],
                  series.stub_fraction[i - 1] + 1e-9);
      }
    }
  }
  // convert_all is the upper bound of independent_selection, per policy.
  auto find = [&](core::ExportPolicy policy, bool convert) {
    for (const auto& series : result.series)
      if (series.policy == policy && series.convert_all == convert)
        return &series;
    return static_cast<const TrafficControlResult::Series*>(nullptr);
  };
  for (auto policy :
       {core::ExportPolicy::Strict, core::ExportPolicy::Flexible}) {
    const auto* convert = find(policy, true);
    const auto* independent = find(policy, false);
    ASSERT_TRUE(convert && independent);
    EXPECT_GE(convert->median_best_move + 1e-9,
              independent->median_best_move);
  }
  // Flexible policy moves at least as much as strict, per model.
  for (bool convert : {true, false}) {
    const auto* strict = find(core::ExportPolicy::Strict, convert);
    const auto* flexible = find(core::ExportPolicy::Flexible, convert);
    EXPECT_GE(flexible->median_best_move + 1e-9, strict->median_best_move);
  }
  // Most stubs can move a meaningful share via one power node.
  EXPECT_GT(find(core::ExportPolicy::Flexible, true)->stub_fraction[1],
            0.3);  // >= 10% movable
}

TEST(TrafficControl, PrintsFigures) {
  TrafficControlConfig config;
  config.stub_samples = 10;
  std::ostringstream out;
  print(run_traffic_control(tiny_plan(), config), out);
  EXPECT_NE(out.str().find("independent"), std::string::npos);
  EXPECT_NE(out.str().find("power nodes"), std::string::npos);
}

TEST(DatasetReport, PrintsTableAndDistribution) {
  const std::vector<topo::AsGraph> graphs{
      topo::generate(topo::profile("tiny", 1.0))};
  std::ostringstream out;
  print_dataset_table({"tiny"}, graphs, 1.0, out);
  print_degree_distribution("tiny", graphs.front(), out);
  EXPECT_NE(out.str().find("Peering links"), std::string::npos);
  EXPECT_NE(out.str().find("degree bucket"), std::string::npos);
  EXPECT_NE(out.str().find("[tiny, n="), std::string::npos);
  // One name per graph, or the table would read past one of them.
  EXPECT_THROW(print_dataset_table({"tiny", "gao2005"}, graphs, 1.0, out),
               Error);
}

// The trimmed cells of every printed table row whose first cell is `key`.
std::vector<std::vector<std::string>> rows_keyed(const std::string& text,
                                                 const std::string& key) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line.front() != '|') continue;
    std::vector<std::string> cells;
    std::istringstream fields(line.substr(1));
    std::string cell;
    while (std::getline(fields, cell, '|')) {
      const auto first = cell.find_first_not_of(' ');
      const auto last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? std::string()
                          : cell.substr(first, last - first + 1));
    }
    if (!cells.empty() && cells.front() == key) rows.push_back(cells);
  }
  return rows;
}

TEST(DatasetReport, TableRowCountsTheFigure31Graph) {
  // Six ASes, eight links: six customer-provider, two peering, no sibling;
  // A and F are the stubs, and each has two providers.
  const test::Figure31Topology fig;
  std::ostringstream out;
  print_dataset_table({"fig31"}, {fig.graph}, 0.5, out);
  EXPECT_NE(out.str().find("scale=0.5"), std::string::npos);
  const auto rows = rows_keyed(out.str(), "fig31");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"fig31", "6", "8", "6", "2",
                                                "0", "2", "2"}));
}

TEST(DatasetReport, RowsFollowTheGraphsInOrder) {
  topo::AsGraph pair;
  const topo::NodeId first = pair.add_as(1);
  const topo::NodeId second = pair.add_as(2);
  pair.add_sibling(first, second);
  const std::vector<topo::AsGraph> graphs{pair,
                                          test::Figure31Topology().graph};
  std::ostringstream out;
  print_dataset_table({"zeta", "alpha"}, graphs, 1.0, out);
  const std::string text = out.str();
  ASSERT_LT(text.find("| zeta"), text.find("| alpha"));
  const auto zeta = rows_keyed(text, "zeta");
  ASSERT_EQ(zeta.size(), 1u);
  EXPECT_EQ(zeta[0][1], "2");  // nodes
  EXPECT_EQ(zeta[0][2], "1");  // edges
  EXPECT_EQ(zeta[0][5], "1");  // sibling links
  ASSERT_EQ(rows_keyed(text, "alpha").size(), 1u);
  EXPECT_EQ(rows_keyed(text, "alpha")[0][1], "6");
}

TEST(DatasetReport, NoGraphsPrintsTheHeaderOnly) {
  std::ostringstream out;
  print_dataset_table({}, {}, 1.0, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| Name"), std::string::npos);
  EXPECT_NE(text.find("Multi-homed stubs"), std::string::npos);
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // title, header, rule
}

TEST(DatasetReport, DegreeBucketsCountEveryNode) {
  // Figure 3.1 degrees: A=2, B=3, C=3, D=2, E=4, F=2.
  const test::Figure31Topology fig;
  std::ostringstream out;
  print_degree_distribution("fig31", fig.graph, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("[fig31, n=6]"), std::string::npos);
  EXPECT_TRUE(rows_keyed(text, "[1, 2)").empty());  // empty buckets skipped
  const auto low = rows_keyed(text, "[2, 4)");
  const auto high = rows_keyed(text, "[4, 8)");
  ASSERT_EQ(low.size(), 1u);
  ASSERT_EQ(high.size(), 1u);
  EXPECT_EQ(low[0], (std::vector<std::string>{"[2, 4)", "5", "83.3%"}));
  EXPECT_EQ(high[0], (std::vector<std::string>{"[4, 8)", "1", "16.7%"}));
  EXPECT_NE(text.find("fraction with degree > 40: 0.00%, degree > 200: 0.00%"),
            std::string::npos);
}

TEST(DatasetReport, HighDegreeCutsCountTheHub) {
  // A provider with 41 customers: 1 of 42 ASes has degree above 40.
  topo::AsGraph star;
  const topo::NodeId hub = star.add_as(1);
  for (topo::AsNumber asn = 2; asn <= 42; ++asn)
    star.add_customer_provider(hub, star.add_as(asn));
  std::ostringstream out;
  print_degree_distribution("star", star, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("[star, n=42]"), std::string::npos);
  const auto leaves = rows_keyed(text, "[1, 2)");
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0][1], "41");
  const auto hub_row = rows_keyed(text, "[32, 64)");
  ASSERT_EQ(hub_row.size(), 1u);
  EXPECT_EQ(hub_row[0][1], "1");
  EXPECT_NE(text.find("fraction with degree > 40: 2.38%, degree > 200: 0.00%"),
            std::string::npos);
}

}  // namespace
}  // namespace miro::eval
