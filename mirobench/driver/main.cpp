// mirobench: one driver for the MIRO pipeline benchmark.
//
//   mirobench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--commit ID] [--source-digest HEX]
//   mirobench --selftest
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Either way the last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Earlier lines carry provenance, the output digest and a
// human-readable report.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

#ifndef MIROBENCH_BUILD_TYPE
#define MIROBENCH_BUILD_TYPE "unknown"
#endif

namespace mirobench {
namespace {

/// Set-up runs at least kMinSetups times, and more (up to kMaxSetups) while
/// the set-ups so far took less than kSetupBudgetS; setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 3;
/// Ops whose outputs feed output_digest; later ops still run every check.
constexpr std::uint32_t kDigestOps = 100;
/// p90 needs ten samples beyond it.
constexpr std::size_t kMinOps = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: mirobench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit ID] [--source-digest HEX]\n"
               "       mirobench --selftest\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--selftest") {
        options.selftest = true;
      } else if (arg == "--commit") {
        options.commit = value();
      } else if (arg == "--source-digest") {
        options.source_digest = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!options.selftest && !have_workload) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

/// Effective cores: the same CPU-bound work on one thread, then on nproc
/// threads at once; nproc * t1 / tN is how many cores the threads really got.
double effective_cores(unsigned threads) {
  auto work = [] {
    volatile double sink = 0;
    double x = 0;
    for (int i = 1; i < 4'000'000; ++i) x += std::sqrt(static_cast<double>(i));
    sink = x;
    (void)sink;
  };
  double start = wall_ns();
  work();
  const double one = wall_ns() - start;
  start = wall_ns();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& thread : pool) thread.join();
  const double all = wall_ns() - start;
  return static_cast<double>(threads) * one / all;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The ops of one timed phase and their outcomes.
struct Phase {
  std::vector<double> op_ms;
  double units = 0;  ///< units() completed by the ops
  double op_ns_total = 0;
  std::size_t failed = 0;
  Digest digest;
  std::vector<std::string> failures;  ///< first few reasons

  /// Runs one timed op, then its checks off the clock.
  void run_op(Workload& workload, Tracer& tracer) {
    const double units_at_start = workload.units();
    tracer.begin_op();
    const double start = wall_ns();
    workload.op(tracer);
    const double elapsed = wall_ns() - start;
    tracer.end_op();
    const auto index = static_cast<std::uint32_t>(op_ms.size());
    op_ns_total += elapsed;
    op_ms.push_back(elapsed / 1e6);
    units += workload.units() - units_at_start;
    std::string why;
    if (!workload.verify(digest, index < kDigestOps, why)) {
      ++failed;
      if (failures.size() < 5)
        failures.push_back("op " + std::to_string(index) + ": " + why);
    }
  }
};

/// Runs ops until `seconds` of op time and `min_ops` ops have passed, or
/// until three times the budget (at least a minute more) of wall time.
Phase run_phase(Workload& workload, Tracer& tracer, double seconds,
                std::size_t min_ops) {
  Phase phase;
  const double budget_ns = seconds * 1e9;
  const double hard_stop =
      wall_ns() + std::max(3 * budget_ns, budget_ns + 60e9);
  while ((phase.op_ns_total < budget_ns || phase.op_ms.size() < min_ops) &&
         wall_ns() < hard_stop)
    phase.run_op(workload, tracer);
  return phase;
}

/// Per-layer metrics, in BENCHMARK.json order. Timed calls report calls,
/// busy time and the median per call; "share" metrics divide by total op
/// time.
const std::vector<std::pair<std::string, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, const char*>> names = {
      {"topology.generate.busy_ms", "ms"},
      {"topology.bytes_per_edge", "B"},
      {"bgp.solve.calls", "count"},
      {"bgp.solve.busy_ms", "ms"},
      {"bgp.solve.ms_per_call", "ms"},
      {"bgp.solve_pinned.calls", "count"},
      {"bgp.solve_pinned.busy_ms", "ms"},
      {"bgp.solve_pinned.ms_per_call", "ms"},
      {"bgp.solve_prepended.calls", "count"},
      {"bgp.solve_prepended.busy_ms", "ms"},
      {"bgp.solve_prepended.ms_per_call", "ms"},
      {"bgp.candidates_at.calls", "count"},
      {"bgp.candidates_at.ns_per_call", "ns"},
      {"bgp.ingress_scan.busy_ms", "ms"},
      {"bgp.tree_bytes_per_route", "B"},
      {"bgp.session.apply.busy_ms", "ms"},
      {"bgp.session.converge.busy_ms", "ms"},
      {"bgp.session.updates", "count"},
      {"bgp.session.coalesced", "count"},
      {"bgp.session.suppressed", "count"},
      {"bgp.session.lost_in_flight", "count"},
      {"bgp.session.rib_bytes_per_route", "B"},
      {"eval.reachable_avoiding.calls", "count"},
      {"eval.reachable_avoiding.busy_ms", "ms"},
      {"eval.reachable_avoiding.ms_per_call", "ms"},
      {"core.avoid_as.calls", "count"},
      {"core.avoid_as.ns_per_call", "ns"},
      {"core.avoid_as.success_ratio", "ratio"},
      {"core.avoid_as.ases_contacted_mean", "count"},
      {"core.negotiate.calls", "count"},
      {"core.negotiate.busy_ms", "ms"},
      {"core.negotiate.established_ratio", "ratio"},
      {"core.agent.retransmissions", "count"},
      {"core.teardown.calls", "count"},
      {"netsim.advance.busy_ms", "ms"},
      {"netsim.events_per_op", "count"},
      {"netsim.queue_depth", "count"},
      {"netsim.bus.delivered", "count"},
      {"dataplane.trace.calls", "count"},
      {"dataplane.trace.busy_ms", "ms"},
      {"dataplane.trace.ns_per_packet", "ns"},
      {"dataplane.trace.hops_per_packet", "count"},
      {"dataplane.trace.encap_ratio", "ratio"},
      {"dataplane.install_tunnel.ns_per_call", "ns"},
      {"churn.check.calls", "count"},
      {"churn.check.busy_ms", "ms"},
      {"churn.violations", "count"},
      {"churn.checker_bytes", "B"},
      {"layer.topology.busy_share", "ratio"},
      {"layer.topology.self_share", "ratio"},
      {"layer.topology.cpu_ms", "ms"},
      {"layer.bgp.busy_share", "ratio"},
      {"layer.bgp.self_share", "ratio"},
      {"layer.bgp.cpu_ms", "ms"},
      {"layer.eval.busy_share", "ratio"},
      {"layer.eval.self_share", "ratio"},
      {"layer.eval.cpu_ms", "ms"},
      {"layer.core.busy_share", "ratio"},
      {"layer.core.self_share", "ratio"},
      {"layer.core.cpu_ms", "ms"},
      {"layer.netsim.busy_share", "ratio"},
      {"layer.netsim.self_share", "ratio"},
      {"layer.netsim.cpu_ms", "ms"},
      {"layer.dataplane.busy_share", "ratio"},
      {"layer.dataplane.self_share", "ratio"},
      {"layer.dataplane.cpu_ms", "ms"},
      {"layer.churn.busy_share", "ratio"},
      {"layer.churn.self_share", "ratio"},
      {"layer.churn.cpu_ms", "ms"},
      {"op.count", "count"},
      {"op.cpu_ms", "ms"},
      {"op.unattributed_share", "ratio"},
      {"trace.ops_per_s_untraced", "1/s"},
      {"trace.ops_per_s_traced", "1/s"},
      {"trace.overhead_ratio", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return names;
}

/// Turns the traced phase's spans and the workload's counters into the
/// per-layer metric values.
Counters layer_report(const Tracer& tracer, const Workload& workload) {
  Counters values;
  workload.counters(values);
  struct Call {
    double count = 0;
    double busy_ns = 0;
    std::vector<double> durations;
  };
  std::map<std::string, Call> calls;
  struct Layer {
    double busy_ns = 0;
    double self_ns = 0;
    double cpu_ns = 0;
  };
  std::map<std::string, Layer> layers;
  double attributed_ns = 0;
  for (const Span& span : tracer.spans()) {
    const std::string name = span.name;
    const double duration = span.end_ns - span.start_ns;
    // Set-up spans (op 0) count only toward topology.generate; every other
    // figure is about the timed ops.
    if (span.op == 0 && name != "topology.generate") continue;
    Call& call = calls[name];
    ++call.count;
    call.busy_ns += duration;
    call.durations.push_back(duration);
    if (span.op == 0) continue;
    Layer& layer = layers[name.substr(0, name.find('.'))];
    layer.busy_ns += duration;
    layer.self_ns += duration - span.child_ns;
    layer.cpu_ns += span.cpu_ns;
    if (span.depth == 0) attributed_ns += duration;
  }
  double op_ns = 0;
  double op_cpu_ns = 0;
  for (const Span& op : tracer.ops()) {
    op_ns += op.end_ns - op.start_ns;
    op_cpu_ns += op.cpu_ns;
  }
  for (const auto& [name, call] : calls) {
    values[name + ".calls"] = call.count;
    values[name + ".busy_ms"] = call.busy_ns / 1e6;
    const double median = nearest_rank(call.durations, 50);
    values[name + ".ms_per_call"] = median / 1e6;
    values[name + ".ns_per_call"] = median;
  }
  if (calls.count("dataplane.trace"))
    values["dataplane.trace.ns_per_packet"] =
        values["dataplane.trace.ns_per_call"];
  for (const auto& [name, layer] : layers) {
    values["layer." + name + ".busy_share"] =
        op_ns > 0 ? layer.busy_ns / op_ns : 0;
    values["layer." + name + ".self_share"] =
        op_ns > 0 ? layer.self_ns / op_ns : 0;
    values["layer." + name + ".cpu_ms"] = layer.cpu_ns / 1e6;
  }
  values["op.count"] = static_cast<double>(tracer.ops().size());
  values["op.cpu_ms"] = op_cpu_ns / 1e6;
  values["op.unattributed_share"] =
      op_ns > 0 ? (op_ns - attributed_ns) / op_ns : 0;
  return values;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << json_string(metrics[i].name) << ": {\"value\": "
        << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void report_failures(const Phase& phase) {
  for (const std::string& failure : phase.failures)
    std::cout << "failed " << failure << "\n";
  if (phase.failed > phase.failures.size())
    std::cout << "failed ... " << phase.failed - phase.failures.size()
              << " more\n";
}

int run(const Options& options) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : workloads())
    if (options.workload == candidate.name) spec = &candidate;
  if (spec == nullptr) usage("unknown workload " + options.workload);
  const double scale = options.smoke ? spec->smoke_scale : spec->scale;
  const Inputs inputs{options.seed, spec->profile, scale, options.smoke};

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "provenance: {\"workload\": " << json_string(spec->name)
            << ", \"profile\": " << json_string(spec->profile)
            << ", \"scale\": " << json_number(scale)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"smoke\": " << (options.smoke ? "true" : "false")
            << ", \"nproc\": " << nproc << ", \"effective_cores\": "
            << json_number(effective_cores(nproc))
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": " << json_string(MIROBENCH_BUILD_TYPE)
            << ", \"commit\": " << json_string(options.commit)
            << ", \"source_digest\": " << json_string(options.source_digest)
            << "}" << std::endl;

  const std::size_t min_ops = options.smoke ? 1 : kMinOps;
  if (!options.trace) {
    // Set up several times; the last instance runs. setup_s is the median
    // of the once-only part plus, for a workload that repeats part of its
    // set-up for every new input, the median of those repeats over the run:
    // the repeated part depends on the input (churn_reconverge's destination),
    // so the factory's single instance of it would make setup_s mostly a
    // function of the seed.
    std::vector<double> once_s;
    std::unique_ptr<Workload> workload;
    Tracer off(false);
    double spent_s = 0;
    while (once_s.empty() ||
           (!options.smoke && static_cast<int>(once_s.size()) < kMaxSetups &&
            (static_cast<int>(once_s.size()) < kMinSetups ||
             spent_s < kSetupBudgetS))) {
      workload.reset();
      const double start = wall_ns();
      workload = spec->make(inputs, off);
      const double seconds = (wall_ns() - start) / 1e9;
      spent_s += seconds;
      const std::vector<double>& repeated = workload->repeated_setup_s();
      once_s.push_back(seconds - (repeated.empty() ? 0 : repeated.front()));
    }
    const Phase phase = run_phase(*workload, off, options.seconds, min_ops);
    report_failures(phase);
    const std::optional<double> p90 = tail_percentile(phase.op_ms, 90);
    // Rates over the whole timed phase. Per-op cost is heavy-tailed on
    // some workloads (a churn event costs from under 1 ms to over 200 ms),
    // so a rate over a slice of the run moves with which heavy ops fall in
    // the slice, and a median over slices with where the slices are cut.
    const double op_s = phase.op_ns_total / 1e9;
    const double ops_per_s = static_cast<double>(phase.op_ms.size()) / op_s;
    const double units_per_s = phase.units / op_s;
    const std::vector<double>& repeated_s = workload->repeated_setup_s();
    const double setup_s =
        nearest_rank(once_s, 50) +
        (repeated_s.empty() ? 0 : nearest_rank(repeated_s, 50));
    std::vector<Metric> metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"op_ms.p50", nearest_rank(phase.op_ms, 50), "ms"},
        {"op_ms.p90", p90.value_or(0), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"units_per_s", units_per_s, "1/s"},
    };
    std::cout << "output_digest: " << std::hex << phase.digest.value()
              << std::dec
              << " (first "
              << std::min<std::size_t>(kDigestOps, phase.op_ms.size())
              << " ops)\n";
    std::cout << "setup_s samples (once-only part):";
    for (double seconds : once_s) std::cout << " " << seconds;
    if (!repeated_s.empty())
      std::cout << "\nrepeated set-up: " << repeated_s.size()
                << " samples, median " << nearest_rank(repeated_s, 50);
    std::cout << "\nop_ms samples: " << phase.op_ms.size()
              << "  units: " << phase.units << " " << spec->unit << "\n";
    for (const Metric& metric : metrics)
      std::cout << "  " << metric.name << " = " << metric.value << " "
                << metric.unit << "\n";
    if (!p90 && !options.smoke) {
      std::cout << "error: only " << phase.op_ms.size()
                << " ops ran; op_ms.p90 needs " << kMinOps << "\n";
      return 1;
    }
    print_result(phase.failed == 0, phase.op_ms.size(), phase.failed, metrics);
    return 0;
  }

  // Traced run: two instances set up from the same seed run the same ops in
  // lock-step, one untraced and one traced, so machine-speed drift hits both
  // alike and their op-time ratio is the tracing overhead.
  Tracer off(false);
  Tracer on(true);
  std::unique_ptr<Workload> untraced =
      spec->make(inputs, off);
  std::unique_ptr<Workload> workload =
      spec->make(inputs, on);
  Phase plain;
  Phase traced;
  const double budget_ns = options.seconds / 2 * 1e9;
  const double hard_stop =
      wall_ns() + std::max(3 * budget_ns, budget_ns + 60e9);
  while ((plain.op_ns_total < budget_ns || plain.op_ms.size() < min_ops) &&
         wall_ns() < hard_stop) {
    plain.run_op(*untraced, off);
    traced.run_op(*workload, on);
  }
  untraced.reset();
  Counters values = layer_report(on, *workload);
  const double ops = static_cast<double>(plain.op_ms.size());
  values["trace.ops_per_s_untraced"] = ops / (plain.op_ns_total / 1e9);
  values["trace.ops_per_s_traced"] = ops / (traced.op_ns_total / 1e9);
  values["trace.overhead_ratio"] = traced.op_ns_total / plain.op_ns_total;
  const std::size_t attempted = plain.op_ms.size() + traced.op_ms.size();
  const std::size_t failed = plain.failed + traced.failed;
  values["fail_ratio"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  report_failures(plain);
  report_failures(traced);
  const bool same_outputs = plain.digest.value() == traced.digest.value();
  if (!same_outputs)
    std::cout << "error: traced and untraced instances produced different "
                 "outputs\n";

  std::vector<Metric> metrics;
  std::cout << "traced report (" << traced.op_ms.size() << " ops, "
            << traced.op_ns_total / 1e6 << " ms of op time):\n";
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    std::cout << "  " << name << " = " << metrics.back().value << " " << unit
              << "\n";
  }
  print_result(failed == 0 && same_outputs, attempted, failed, metrics);
  return 0;
}

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cout << "FAIL " << what << "\n";
      ++failures;
    }
  };
  std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(nearest_rank(ten, 50) == 5, "p50 of 1..10 is 5");
  expect(nearest_rank(ten, 90) == 9, "p90 of 1..10 is 9");
  expect(nearest_rank(ten, 100) == 10, "p100 of 1..10 is 10");
  expect(nearest_rank(ten, 1) == 1, "p1 of 1..10 is 1");
  expect(nearest_rank({42}, 50) == 42, "p50 of one sample");
  expect(nearest_rank({1, 2, 3, 4}, 50) == 2,
         "p50 of 1..4 is 2 (no interpolation)");
  std::vector<double> many;
  for (int i = 1; i <= 99; ++i) many.push_back(i);
  expect(!tail_percentile(many, 90).has_value(),
         "p90 suppressed at 99 samples");
  many.push_back(100);
  expect(tail_percentile(many, 90) == 90.0, "p90 of 1..100 is 90");
  expect(tail_percentile(many, 50) == 50.0, "p50 of 1..100 is 50");
  bool threw = false;
  try {
    nearest_rank({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");
  std::cout << (failures == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mirobench

int main(int argc, char** argv) {
  const mirobench::Options options = mirobench::parse(argc, argv);
  try {
    return options.selftest ? mirobench::selftest() : mirobench::run(options);
  } catch (const std::exception& error) {
    std::cout << "error: " << error.what() << std::endl;
    return 1;
  }
}
