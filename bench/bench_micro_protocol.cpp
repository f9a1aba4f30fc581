// Micro benchmarks (google-benchmark): the per-operation costs of the
// building blocks — stable-route solving, candidate extraction, negotiation
// round trips, longest-prefix match, encapsulation schemes, AS-path regex —
// plus the design-choice ablation DESIGN.md calls out for the three
// Section 4.2 tunnel addressing schemes.
//
// In addition to google-benchmark's own flags, `--json <path>` writes every
// per-iteration result as {name, value, unit} in the bench snapshot schema
// (see results.hpp) for regression tracking.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/alternates.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "dataplane/encapsulation.hpp"
#include "net/prefix_trie.hpp"
#include "policy/aspath_regex.hpp"
#include "results.hpp"
#include "topology/generator.hpp"

namespace {

using namespace miro;

const topo::AsGraph& benchmark_graph() {
  static const topo::AsGraph* graph = [] {
    topo::GeneratorParams params = topo::profile("gao2005", 0.25);
    return new topo::AsGraph(topo::generate(params));
  }();
  return *graph;
}

void BM_StableRouteSolve(benchmark::State& state) {
  const topo::AsGraph& graph = benchmark_graph();
  bgp::StableRouteSolver solver(graph);
  topo::NodeId dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(dest));
    dest = (dest + 37) % graph.node_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.node_count()));
}
BENCHMARK(BM_StableRouteSolve);

void BM_CandidateExtraction(benchmark::State& state) {
  const topo::AsGraph& graph = benchmark_graph();
  bgp::StableRouteSolver solver(graph);
  const bgp::RoutingTree tree = solver.solve(1);
  topo::NodeId node = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.candidates_at(tree, node));
    node = (node + 13) % graph.node_count();
    if (node == 1) node = 2;
  }
}
BENCHMARK(BM_CandidateExtraction);

void BM_AvoidAsNegotiation(benchmark::State& state) {
  const topo::AsGraph& graph = benchmark_graph();
  bgp::StableRouteSolver solver(graph);
  core::AlternatesEngine engine(solver);
  const bgp::RoutingTree tree = solver.solve(0);
  // Collect workable (source, avoid) pairs once.
  std::vector<std::pair<topo::NodeId, topo::NodeId>> tuples;
  for (topo::NodeId source = 1;
       source < graph.node_count() && tuples.size() < 64; ++source) {
    if (!tree.reachable(source)) continue;
    const auto path = tree.path_of(source);
    if (path.size() < 4) continue;
    if (graph.has_edge(source, path[2])) continue;
    tuples.emplace_back(source, path[2]);
  }
  if (tuples.empty()) {
    state.SkipWithError("no avoid tuples on this topology");
    return;
  }
  std::size_t index = 0;
  for (auto _ : state) {
    const auto& [source, avoid] = tuples[index++ % tuples.size()];
    benchmark::DoNotOptimize(engine.avoid_as(
        tree, source, avoid, core::ExportPolicy::RespectExport));
  }
}
BENCHMARK(BM_AvoidAsNegotiation);

void BM_ControlPlaneRoundTrip(benchmark::State& state) {
  const topo::AsGraph& graph = benchmark_graph();
  core::RouteStore store(graph);
  bgp::StableRouteSolver solver(graph);
  const bgp::RoutingTree tree = solver.solve(0);
  // Find an adjacent (requester, responder) pair with alternates.
  topo::NodeId requester = topo::kInvalidNode;
  topo::NodeId responder = topo::kInvalidNode;
  for (topo::NodeId source = 1; source < graph.node_count(); ++source) {
    if (!tree.reachable(source)) continue;
    const auto path = tree.path_of(source);
    if (path.size() >= 3 &&
        solver.candidates_at(tree, path[1]).size() >= 2) {
      requester = source;
      responder = path[1];
      break;
    }
  }
  if (requester == topo::kInvalidNode) {
    state.SkipWithError("no negotiable pair found");
    return;
  }
  for (auto _ : state) {
    sim::Scheduler scheduler;
    core::Bus bus(scheduler);
    core::MiroAgent a(requester, store, bus);
    core::MiroAgent b(responder, store, bus);
    bool done = false;
    a.request(responder, requester, /*destination=*/0, std::nullopt,
              std::nullopt,
              [&done](const core::NegotiationOutcome&) { done = true; });
    scheduler.run_until(100);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ControlPlaneRoundTrip);

void BM_PrefixTrieLookup(benchmark::State& state) {
  net::PrefixTrie<std::uint32_t> trie;
  Rng rng(4);
  for (int i = 0; i < 8192; ++i) {
    const auto address =
        net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    trie.insert(net::Prefix(address, 8 + static_cast<int>(rng.next_below(17))),
                static_cast<std::uint32_t>(i));
  }
  std::uint32_t probe = 0x0a000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(net::Ipv4Address(probe)));
    probe = probe * 2654435761u + 12345u;
  }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_EncapsulationScheme(benchmark::State& state) {
  const auto scheme =
      static_cast<dataplane::EncapsulationScheme>(state.range(0));
  dataplane::TunnelEndpointAs as_x(scheme,
                                   *net::Prefix::parse("12.34.56.0/24"));
  const auto r1 = as_x.add_router();
  const auto r2 = as_x.add_router();
  const auto r3 = as_x.add_router();
  as_x.add_internal_link(r1, r2, 5);
  as_x.add_internal_link(r2, r3, 4);
  const auto exit = as_x.add_exit_link(r3, 100);
  const auto endpoint = as_x.establish_tunnel(exit);
  for (auto _ : state) {
    net::Packet packet(net::Ipv4Address(1, 0, 0, 1),
                       net::Ipv4Address(9, 9, 9, 9));
    packet.encapsulate(net::Ipv4Address(1, 0, 0, 1), endpoint.address,
                       endpoint.id);
    benchmark::DoNotOptimize(as_x.deliver(std::move(packet), r1));
  }
  state.SetLabel(dataplane::to_string(scheme));
}
BENCHMARK(BM_EncapsulationScheme)->DenseRange(0, 2);

void BM_AsPathRegexMatch(benchmark::State& state) {
  const policy::AsPathRegex regex("_(701|1239|3356)_");
  const std::vector<topo::AsNumber> path{64512, 701, 3356, 15169, 8075};
  for (auto _ : state) benchmark::DoNotOptimize(regex.matches(path));
}
BENCHMARK(BM_AsPathRegexMatch);

/// Console reporter that additionally captures each measured run as a
/// result row (aggregates and errored runs excluded).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::Results& rows) : rows_(rows) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      rows_.add(run.benchmark_name(), run.GetAdjustedRealTime(),
                benchmark::GetTimeUnitString(run.time_unit));
    }
  }

 private:
  bench::Results& rows_;
};

/// Pulls `--json <path>` out of argv (compacting it) before
/// google-benchmark, which rejects flags it does not know, sees the rest.
/// Returns "" when absent; a trailing `--json` without a value exits 2.
std::string take_json_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") {
      argv[out++] = argv[i];
    } else if (i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr, "error: missing value for --json\n");
      std::exit(2);
    }
  }
  argc = out;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  miro::bench::Results rows;
  CapturingReporter reporter(rows);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path.empty()) return 0;
  miro::JsonValue config = miro::JsonValue::make_object();
  config.set("suite", miro::JsonValue::make_string("bench_micro_protocol"));
  config.set("topology", miro::JsonValue::make_string("gao2005 scale 0.25"));
  std::ofstream out(json_path);
  out << miro::bench::snapshot(std::move(config), rows, nullptr, nullptr)
             .dump()
      << "\n";
  return out ? 0 : 2;
}
