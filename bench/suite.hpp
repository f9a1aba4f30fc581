// The reproduction bench suite: a registry of experiments (one per paper
// table / figure, ablation, or methodology check) run in-process by
// run_suite (bench_suite.cpp) over shared, lazily built experiment plans.
//
// An experiment is a function that prints its human-readable reproduction
// on stdout and reports result rows; it reads the run's knobs and the
// shared per-profile ExperimentPlan from the Context. Experiments whose
// rows time generation or solving build their own graphs and trees.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiments.hpp"
#include "results.hpp"

namespace miro::bench {

/// The knobs of one suite run.
struct SuiteConfig {
  std::vector<std::string> profiles;
  double scale = 0.25;
  std::size_t dests = 20;
  std::size_t sources = 10;
  std::uint64_t seed = 42;
  std::string save_path;  ///< bench_internet_scale writes its graph here
};

class Context {
 public:
  explicit Context(SuiteConfig config) : config_(std::move(config)) {}

  const SuiteConfig& config() const { return config_; }
  const std::vector<std::string>& profiles() const {
    return config_.profiles;
  }

  /// The plan for `profile` (generated graph plus solved trees), built on
  /// first use and shared by every later experiment. Each call re-books the
  /// plan's graph and tree accounts into the attached memory registry, so
  /// every experiment's memory section shows the state it read.
  const eval::ExperimentPlan& plan(const std::string& profile) {
    std::unique_ptr<eval::ExperimentPlan>& slot = plans_[profile];
    if (!slot) {
      eval::EvalConfig config;
      config.profile = profile;
      config.scale = config_.scale;
      config.destination_samples = config_.dests;
      config.sources_per_destination = config_.sources;
      config.seed = config_.seed;
      slot = std::make_unique<eval::ExperimentPlan>(config);
    }
    if (obs::MemoryRegistry* mem = obs::memory()) {
      mem->account("topology/graph").set_current(slot->graph().memory_bytes());
      mem->account("eval/trees").set_current(slot->trees_memory_bytes());
    }
    return *slot;
  }

 private:
  SuiteConfig config_;
  std::map<std::string, std::unique_ptr<eval::ExperimentPlan>> plans_;
};

struct Experiment {
  const char* name;  ///< the bench key in the suite document
  bool full_tier;    ///< affordable at internet scale (--full runs it)
  void (*run)(Context& ctx, Results& rows);
};

/// Footprint rows of a graph: resident bytes and bytes per edge, from a
/// capacity walk, so they obey the bit-identical determinism contract
/// (unlike RSS, which never becomes a result row).
inline void add_memory_rows(Results& rows, const std::string& prefix,
                            const topo::AsGraph& graph) {
  const double bytes = static_cast<double>(graph.memory_bytes());
  rows.add(prefix + ".graph_bytes", bytes, "bytes");
  if (graph.edge_count() > 0) {
    rows.add(prefix + ".bytes_per_edge",
             bytes / static_cast<double>(graph.edge_count()), "bytes/edge");
  }
}

/// Graph rows plus the solved routing state's bytes and bytes per route
/// (routes = reachable (node, tree) pairs across the plan's trees).
inline void add_memory_rows(Results& rows, const std::string& prefix,
                            const eval::ExperimentPlan& plan) {
  add_memory_rows(rows, prefix, plan.graph());
  const double tree_bytes = static_cast<double>(plan.trees_memory_bytes());
  rows.add(prefix + ".trees_bytes", tree_bytes, "bytes");
  if (plan.route_count() > 0) {
    rows.add(prefix + ".bytes_per_route",
             tree_bytes / static_cast<double>(plan.route_count()),
             "bytes/route");
  }
}

// Chapter 5 tables and figures (paper_experiments.cpp).
void run_table_5_1_datasets(Context& ctx, Results& rows);
void run_fig_5_1_degree_distribution(Context& ctx, Results& rows);
void run_fig_5_2_5_3_path_diversity(Context& ctx, Results& rows);
void run_table_5_2_avoid_success(Context& ctx, Results& rows);
void run_table_5_3_negotiation_state(Context& ctx, Results& rows);
void run_fig_5_4_5_5_incremental(Context& ctx, Results& rows);
void run_fig_5_6_5_7_traffic_control(Context& ctx, Results& rows);

// Ablations, methodology checks and scale (method_experiments.cpp).
void run_ablation_te_mechanisms(Context& ctx, Results& rows);
void run_ablation_negotiation_scope(Context& ctx, Results& rows);
void run_inference_accuracy(Context& ctx, Results& rows);
void run_verify_fixpoint(Context& ctx, Results& rows);
void run_internet_scale(Context& ctx, Results& rows);

// Message-level dynamics (protocol_experiments.cpp).
void run_convergence_lab(Context& ctx, Results& rows);
void run_overhead_messages(Context& ctx, Results& rows);
void run_churn_convergence(Context& ctx, Results& rows);

}  // namespace miro::bench
