// Tests for BGP-table rendering and Section 7.4's mixed-guideline
// convergence results.
#include <gtest/gtest.h>

#include <sstream>

#include "bgp/route_solver.hpp"
#include "bgp/table_format.hpp"
#include "convergence/gadgets.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {
namespace {

TEST(TableFormat, RendersTable11Style) {
  test::Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto entries = bgp_table_for(solver, tree, fig.b);
  ASSERT_EQ(entries.size(), 2u);
  // Exactly one best entry, and it is B's selected route BEF.
  std::size_t best_count = 0;
  for (const auto& entry : entries) {
    if (entry.best) {
      ++best_count;
      EXPECT_EQ(entry.as_path, (std::vector<topo::AsNumber>{5, 6}));
    }
    EXPECT_EQ(entry.prefix.to_string(), "0.6.0.0/16");
  }
  EXPECT_EQ(best_count, 1u);

  std::ostringstream out;
  print_bgp_table(entries, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("*>"), std::string::npos);
  EXPECT_NE(text.find("0.6.0.0/16"), std::string::npos);
  // The repeated prefix cell is blanked on continuation rows.
  EXPECT_EQ(text.find("0.6.0.0/16"), text.rfind("0.6.0.0/16"));
}

}  // namespace
}  // namespace miro::bgp

namespace miro::conv {
namespace {

TEST(MixedGuidelines, CAndDNodesConvergeTogether) {
  // Section 7.4: "if each AS conforms to either Guidelines A and C, or
  // Guidelines A and D, convergence is still guaranteed."
  const MiroGadget base = make_figure_7_2(Guideline::D);
  MiroGadget gadget = base;
  gadget.options.guideline_of = [](NodeId node) {
    return node % 2 == 0 ? Guideline::C : Guideline::D;
  };
  MiroConvergenceModel model = gadget.build();
  EXPECT_TRUE(model.run_round_robin().converged);
}

TEST(MixedGuidelines, CAndENodesConvergeTogether) {
  const MiroGadget base = make_figure_7_2(Guideline::E);
  MiroGadget gadget = base;
  gadget.options.guideline_of = [](NodeId node) {
    return node % 2 == 0 ? Guideline::C : Guideline::E;
  };
  MiroConvergenceModel model = gadget.build();
  EXPECT_TRUE(model.run_round_robin().converged);
}

TEST(MixedGuidelines, RandomMixesConverge) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.node_count = 64;
    params.seed = seed;
    const topo::AsGraph graph = topo::generate(params);
    Rng rng(seed * 101);
    std::vector<NodeId> destinations;
    for (int i = 0; i < 3; ++i)
      destinations.push_back(
          static_cast<NodeId>(rng.next_below(graph.node_count())));
    std::sort(destinations.begin(), destinations.end());
    destinations.erase(
        std::unique(destinations.begin(), destinations.end()),
        destinations.end());

    ModelOptions options;
    for (int i = 0; i < 10; ++i) {
      TunnelSpec spec;
      spec.requester =
          static_cast<NodeId>(rng.next_below(graph.node_count()));
      spec.responder =
          static_cast<NodeId>(rng.next_below(graph.node_count()));
      spec.destination = destinations[rng.next_below(destinations.size())];
      if (spec.requester == spec.responder ||
          spec.responder == spec.destination)
        continue;
      options.tunnels.push_back(spec);
    }
    // Random per-AS choice among the provably safe guidelines.
    std::vector<Guideline> assignment(graph.node_count());
    for (auto& g : assignment) {
      const Guideline safe[] = {Guideline::B, Guideline::C, Guideline::D,
                                Guideline::E};
      g = safe[rng.next_below(4)];
    }
    options.guideline_of = [assignment](NodeId node) {
      return assignment[node];
    };
    options.partial_order = [](NodeId, NodeId fd, NodeId dest) {
      return fd < dest;
    };
    MiroConvergenceModel model(graph, destinations, options);
    EXPECT_TRUE(model.run_round_robin(512).converged) << "seed " << seed;
  }
}

TEST(MixedGuidelines, RequiresPartialOrderOnlyWhenDNodesExist) {
  MiroGadget gadget = make_figure_7_2(Guideline::E);
  gadget.options.partial_order = nullptr;
  gadget.options.guideline_of = [](NodeId) { return Guideline::E; };
  EXPECT_NO_THROW(gadget.build());
  gadget.options.guideline_of = [](NodeId node) {
    return node == 0 ? Guideline::D : Guideline::E;
  };
  EXPECT_THROW(gadget.build(), Error);
}

}  // namespace
}  // namespace miro::conv
