// Timing, tracing and reporting shared by every benchmark workload.
//
// The driver times each call into a library layer from outside: a workload
// wraps the call in Tracer::time(name, ...). With tracing off that is one
// branch; with tracing on it records a span (wall start/end, thread CPU time,
// enclosing op) in memory, and the report is computed when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/route_solver.hpp"

namespace mirobench {

/// Monotonic wall clock and calling-thread CPU clock, in nanoseconds.
double wall_ns();
double thread_cpu_ns();

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it. `values` must be non-empty, 0 < p <= 100.
double nearest_rank(std::vector<double> values, double p);

/// A tail percentile is reported only when at least ten samples lie beyond
/// it, i.e. at least 10 / (1 - p/100) samples (100 for p90).
std::optional<double> tail_percentile(const std::vector<double>& values,
                                      double p);

/// One timed call into a layer. Spans nest: `child_ns` is the part of this
/// span covered by spans opened inside it, so self time = duration - child.
struct Span {
  const char* name = "";
  std::uint32_t op = 0;  ///< enclosing op id; 0 = set-up, outside any op
  double start_ns = 0;
  double end_ns = 0;
  double cpu_ns = 0;
  double child_ns = 0;
  std::uint32_t depth = 0;  ///< 0 = called directly from the op
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs `call`, recording a span named `name` when tracing is on.
  template <typename F>
  decltype(auto) time(const char* name, F&& call) {
    if (!enabled_) return call();
    Scope scope(*this, name);
    return call();
  }

  /// Op boundaries: spans recorded in between carry the op's id.
  void begin_op();
  void end_op();

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Span>& ops() const { return ops_; }

 private:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  bool enabled_;
  std::uint32_t current_op_ = 0;
  std::vector<Span> spans_;
  std::vector<Span> ops_;
  std::vector<std::size_t> open_;  ///< indices of spans still open
};

/// Incremental FNV-1a over the workload's outputs.
class Digest {
 public:
  void add(std::uint64_t value);
  template <typename Range>
  void add_all(const Range& range) {
    add(static_cast<std::uint64_t>(range.size()));
    for (const auto& item : range) add(static_cast<std::uint64_t>(item));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Named values a workload hands to the traced report (counts, ratios,
/// bytes); layer timings come from the spans instead.
using Counters = std::map<std::string, double>;

/// One benchmark workload, already set up by its factory. Ops run on the
/// calling thread; the driver times op() and keeps verify() out of the
/// timed path.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one op; every library call goes through `tracer`.
  virtual void op(Tracer& tracer) = 0;

  /// Checks the outputs of the op just run and, when `fold` is set, adds
  /// them to `digest`. Returns false when the op failed a check; `why`
  /// receives a one-line reason.
  virtual bool verify(Digest& digest, bool fold, std::string& why) = 0;

  /// The workload's inner work units completed so far (tuples, negotiated
  /// tunnels, re-solves, BGP messages): the numerator of units_per_s.
  virtual double units() const = 0;

  /// Counts and ratios for the traced report, named as in BENCHMARK.json.
  virtual void counters(Counters& out) const = 0;

  /// Wall seconds of each instance of set-up work the workload repeats for
  /// every new input between ops, off the op clock (churn_reconverge's
  /// per-trace network build and initial convergence). The first instance
  /// runs inside the factory. Empty when all set-up happens once.
  virtual const std::vector<double>& repeated_setup_s() const {
    static const std::vector<double> none;
    return none;
  }
};

/// What a workload's factory builds from. The factory is the workload's
/// set-up: setup_s times it (see Workload::repeated_setup_s()).
struct Inputs {
  std::uint64_t seed;
  const char* profile;  ///< topology::profile name
  double scale;
  bool smoke;  ///< tiny sizes, for the self-test
};

struct WorkloadSpec {
  const char* name;
  const char* profile;
  double scale;        ///< full-size topology scale
  double smoke_scale;  ///< tiny topology for the self-test smoke mode
  const char* unit;    ///< what units() counts
  std::unique_ptr<Workload> (*make)(const Inputs& inputs, Tracer& tracer);
};

const std::vector<WorkloadSpec>& workloads();

/// Local stable-state check of a solved tree: every reachable AS holds the
/// best of its candidates_at() under the Gao-Rexford ranking (bgp::prefer),
/// and every unreachable AS has no candidate at all. On failure `why` names
/// the first offending AS.
bool tree_is_stable(const miro::bgp::StableRouteSolver& solver,
                    const miro::bgp::RoutingTree& tree, std::string& why);

/// Adds every AS's next hop in `tree` to `digest`.
void digest_tree(const miro::bgp::RoutingTree& tree, std::size_t node_count,
                 Digest& digest);

/// Generates and freezes the workload's topology, timed as
/// topology.generate.
miro::topo::AsGraph generate_graph(const Inputs& inputs, Tracer& tracer);

// Factories, one per workload source file.
std::unique_ptr<Workload> make_avoid_internet(const Inputs& inputs,
                                              Tracer& tracer);
std::unique_ptr<Workload> make_tunnel_lifecycle(const Inputs& inputs,
                                                Tracer& tracer);
std::unique_ptr<Workload> make_inbound_te(const Inputs& inputs,
                                          Tracer& tracer);
std::unique_ptr<Workload> make_churn_reconverge(const Inputs& inputs,
                                                Tracer& tracer);

}  // namespace mirobench
