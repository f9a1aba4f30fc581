// run_suite: the reproduction bench binary. Runs every experiment in the
// registry below in-process and writes one document — the format the
// perf-regression gate (bench_compare, obs/regression.hpp) consumes and the
// BENCH_PR3.json / BENCH_FULL.json baselines are checked in as:
//   {"suite":"miro-bench","schema":1,"config":{...},"benches":{...}}
//
//   ./run_suite [EXPERIMENT]... [--out PATH] [--profile NAME] [--scale X]
//               [--dests N] [--sources N] [--seed N] [--threads N]
//               [--save PATH] [--quick | --full]
//
// Naming experiments (bench keys, e.g. bench_table_5_2_avoid_success) runs
// only those; a named run writes a snapshot only when --out is given.
// Without --profile the four paper profiles run. --quick shrinks every knob
// for CI (one profile, small samples) so the gate measures relative shape,
// not absolute scale. --full is the other end: the internet2006 profile at
// scale 1.0 (~70k ASes, ~142k edges) with a small destination sample,
// restricted to the full-tier experiments, whose cost scales with graph
// size rather than with (samples x solves per sample); its snapshot
// defaults to BENCH_FULL.json so the two tiers' baselines live side by
// side. --save writes bench_internet_scale's generated graph in CAIDA
// format. --threads sets the eval worker count (default: MIRO_THREADS, else
// hardware concurrency); it is not part of the snapshot's config because
// result rows are bit-identical at any thread count.
//
// Per profile, the first experiment that asks for the ExperimentPlan builds
// it and every later one reads the same plan. Each experiment runs under a
// fresh ProfileRegistry and MemoryRegistry, whose summaries become its
// snapshot's "profile" and "memory" sections.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "suite.hpp"
#include "topology/generator.hpp"

namespace {

using miro::JsonValue;
using miro::bench::Experiment;

// Every reproduction experiment. The full-tier mark admits an experiment
// to --full: those whose cost is dominated by the sampled work
// (per-destination solves, per-tuple negotiations) stay affordable at 70k
// nodes, while the ones that sweep every node or replay message-level
// churn do not.
const Experiment kExperiments[] = {
    {"bench_table_5_1_datasets", true, miro::bench::run_table_5_1_datasets},
    {"bench_fig_5_1_degree_distribution", true,
     miro::bench::run_fig_5_1_degree_distribution},
    {"bench_fig_5_2_5_3_path_diversity", true,
     miro::bench::run_fig_5_2_5_3_path_diversity},
    {"bench_table_5_2_avoid_success", true,
     miro::bench::run_table_5_2_avoid_success},
    {"bench_table_5_3_negotiation_state", true,
     miro::bench::run_table_5_3_negotiation_state},
    {"bench_fig_5_4_5_5_incremental", true,
     miro::bench::run_fig_5_4_5_5_incremental},
    {"bench_fig_5_6_5_7_traffic_control", false,
     miro::bench::run_fig_5_6_5_7_traffic_control},
    {"bench_convergence_lab", false, miro::bench::run_convergence_lab},
    {"bench_ablation_te_mechanisms", false,
     miro::bench::run_ablation_te_mechanisms},
    {"bench_ablation_negotiation_scope", false,
     miro::bench::run_ablation_negotiation_scope},
    {"bench_inference_accuracy", false, miro::bench::run_inference_accuracy},
    {"bench_overhead_messages", false, miro::bench::run_overhead_messages},
    {"bench_churn_convergence", false, miro::bench::run_churn_convergence},
    {"bench_verify_fixpoint", true, miro::bench::run_verify_fixpoint},
    {"bench_internet_scale", true, miro::bench::run_internet_scale},
};

struct SuiteArgs {
  miro::bench::SuiteConfig config;
  std::string out;  // empty: no snapshot
  bool full = false;
  std::set<std::string> selected;  // empty: every experiment of the tier
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [EXPERIMENT]... [--out PATH] [--profile NAME] "
               "[--scale X] [--dests N] [--sources N] [--seed N] "
               "[--threads N] [--save PATH] [--quick | --full]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

bool known_experiment(const std::string& name) {
  for (const Experiment& experiment : kExperiments)
    if (name == experiment.name) return true;
  return false;
}

SuiteArgs parse(int argc, char** argv) {
  SuiteArgs args;
  miro::bench::SuiteConfig& config = args.config;
  std::string profile;  // empty: every paper profile
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--out") out = value();
    else if (flag == "--profile") profile = value();
    else if (flag == "--scale") config.scale = std::atof(value());
    else if (flag == "--dests")
      config.dests = static_cast<std::size_t>(std::atoll(value()));
    else if (flag == "--sources")
      config.sources = static_cast<std::size_t>(std::atoll(value()));
    else if (flag == "--seed")
      config.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (flag == "--save") config.save_path = value();
    else if (flag == "--threads") {
      // Strict, like MIRO_THREADS: a typo must not silently fall back to
      // the automatic thread count.
      const char* text = value();
      char* end = nullptr;
      const long threads = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || threads <= 0)
        fail(std::string("--threads expects a positive integer, got '") +
             text + "'");
      miro::par::set_thread_count(static_cast<std::size_t>(threads));
    } else if (flag == "--quick") {
      profile = "gao2005";
      config.scale = 0.15;
      config.dests = 10;
      config.sources = 8;
    } else if (flag == "--full") {
      // Measured-Internet scale: ~70k ASes. Sample counts stay small — the
      // tier exists to exercise graph-size scaling, not sample breadth.
      profile = "internet2006";
      config.scale = 1.0;
      config.dests = 6;
      config.sources = 4;
      args.full = true;
    } else if (!flag.empty() && flag[0] != '-') {
      if (!known_experiment(flag)) fail("unknown experiment '" + flag + "'");
      args.selected.insert(flag);
    } else {
      usage(argv[0]);
    }
  }
  config.profiles = profile.empty()
                        ? std::vector<std::string>{"gao2000", "gao2003",
                                                   "gao2005", "agarwal2004"}
                        : std::vector<std::string>{profile};
  // Reject a bad profile or scale before any experiment runs.
  try {
    for (const std::string& name : config.profiles)
      miro::topo::profile(name, config.scale);
  } catch (const std::exception& error) {
    fail(error.what());
  }
  // The two tiers keep separate checked-in baselines; --out always wins,
  // and a run of named experiments writes only where it is told to.
  if (!out.empty()) args.out = out;
  else if (args.selected.empty())
    args.out = args.full ? "BENCH_FULL.json" : "BENCH_PR3.json";
  return args;
}

// The sim-config every experiment's snapshot carries (strings, as the
// checked-in baselines have them).
JsonValue bench_config(const miro::bench::SuiteConfig& config) {
  std::string profiles;
  for (const std::string& profile : config.profiles)
    profiles += (profiles.empty() ? "" : ",") + profile;
  JsonValue section = JsonValue::make_object();
  section.set("profiles", JsonValue::make_string(profiles));
  section.set("scale", JsonValue::make_string(miro::json_number(config.scale)));
  section.set("dests", JsonValue::make_string(std::to_string(config.dests)));
  section.set("sources",
              JsonValue::make_string(std::to_string(config.sources)));
  section.set("seed", JsonValue::make_string(std::to_string(config.seed)));
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  const SuiteArgs args = parse(argc, argv);
  const miro::bench::Stopwatch suite_watch;
  miro::bench::Context ctx(args.config);
  const JsonValue experiment_config = bench_config(args.config);
  JsonValue benches = JsonValue::make_object();
  std::size_t failures = 0;
  for (const Experiment& experiment : kExperiments) {
    const bool run = args.selected.empty()
                         ? !args.full || experiment.full_tier
                         : args.selected.count(experiment.name) != 0;
    if (!run) continue;
    std::printf("== %s\n", experiment.name);
    std::fflush(stdout);
    miro::obs::ProfileRegistry profile;
    miro::obs::MemoryRegistry memory;
    miro::obs::set_profile(&profile);
    miro::obs::set_memory(&memory);
    miro::bench::Results rows;
    const miro::bench::Stopwatch watch;
    bool ok = true;
    try {
      experiment.run(ctx, rows);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_suite: %s failed: %s\n", experiment.name,
                   error.what());
      ok = false;
      ++failures;
    }
    miro::obs::set_memory(nullptr);
    miro::obs::set_profile(nullptr);
    std::printf("== %s: %.1f s%s\n", experiment.name, watch.ms() / 1000.0,
                ok ? "" : " (FAILED)");
    std::fflush(stdout);
    if (ok) {
      benches.set(experiment.name,
                  miro::bench::snapshot(experiment_config, rows, &profile,
                                        &memory));
    }
  }

  if (!args.out.empty()) {
    const miro::bench::SuiteConfig& config = args.config;
    JsonValue suite_config = JsonValue::make_object();
    suite_config.set("scale", JsonValue::make_number(config.scale));
    suite_config.set("dests",
                     JsonValue::make_number(static_cast<double>(config.dests)));
    suite_config.set(
        "sources", JsonValue::make_number(static_cast<double>(config.sources)));
    suite_config.set("seed",
                     JsonValue::make_number(static_cast<double>(config.seed)));
    suite_config.set("profile",
                     JsonValue::make_string(config.profiles.size() == 1
                                                ? config.profiles.front()
                                                : "all"));
    JsonValue doc = JsonValue::make_object();
    doc.set("suite", JsonValue::make_string("miro-bench"));
    doc.set("schema", JsonValue::make_number(1));
    doc.set("config", std::move(suite_config));
    doc.set("benches", std::move(benches));
    std::ofstream out(args.out);
    out << doc.dump() << "\n";
    if (!out) fail("cannot write " + args.out);
    std::printf("\nrun_suite: wrote %zu bench snapshot(s) to %s ",
                doc.at("benches").size(), args.out.c_str());
  } else {
    std::printf("\nrun_suite: ");
  }
  std::printf("(%zu failed, %.1f s total)\n", failures,
              suite_watch.ms() / 1000.0);
  return failures == 0 ? 0 : 1;
}
