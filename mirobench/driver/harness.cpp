#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "topology/generator.hpp"

namespace mirobench {

double wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty() || !(p > 0 && p <= 100))
    throw std::invalid_argument(
        "nearest_rank: empty sample or p outside (0, 100]");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::optional<double> tail_percentile(const std::vector<double>& values,
                                      double p) {
  const double needed = std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9);
  if (static_cast<double>(values.size()) < needed) return std::nullopt;
  return nearest_rank(values, p);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.op = tracer.current_op_;
  span.depth = static_cast<std::uint32_t>(tracer.open_.size());
  span.cpu_ns = thread_cpu_ns();
  span.start_ns = wall_ns();
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  const double end = wall_ns();
  Span& span = tracer_.spans_[index_];
  span.end_ns = end;
  span.cpu_ns = thread_cpu_ns() - span.cpu_ns;
  tracer_.open_.pop_back();
  if (!tracer_.open_.empty())
    tracer_.spans_[tracer_.open_.back()].child_ns += end - span.start_ns;
}

void Tracer::begin_op() {
  ++current_op_;
  if (!enabled_) return;
  Span span;
  span.name = "op";
  span.op = current_op_;
  span.cpu_ns = thread_cpu_ns();
  span.start_ns = wall_ns();
  ops_.push_back(span);
}

void Tracer::end_op() {
  if (enabled_) {
    Span& span = ops_.back();
    span.end_ns = wall_ns();
    span.cpu_ns = thread_cpu_ns() - span.cpu_ns;
  }
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

bool tree_is_stable(const miro::bgp::StableRouteSolver& solver,
                    const miro::bgp::RoutingTree& tree, std::string& why) {
  const auto& graph = solver.graph();
  const auto destination = tree.destination();
  if (!tree.reachable(destination) ||
      tree.next_hop(destination) != destination) {
    why = "destination does not hold its own route";
    return false;
  }
  for (miro::topo::NodeId node = 0; node < graph.node_count(); ++node) {
    if (node == destination) continue;
    const auto candidates = solver.candidates_at(tree, node);
    if (!tree.reachable(node)) {
      if (!candidates.empty()) {
        why = "AS " + std::to_string(graph.as_number(node)) +
              " is unreachable but has candidate routes";
        return false;
      }
      continue;
    }
    const miro::bgp::Route* best = nullptr;
    for (const auto& candidate : candidates)
      if (best == nullptr || miro::bgp::prefer(candidate, *best, graph))
        best = &candidate;
    if (best == nullptr || best->next_hop() != tree.next_hop(node) ||
        best->route_class != tree.route_class(node) ||
        best->length() != tree.path_length(node)) {
      why = "AS " + std::to_string(graph.as_number(node)) +
            " does not hold the best of its candidate routes";
      return false;
    }
  }
  return true;
}

void digest_tree(const miro::bgp::RoutingTree& tree, std::size_t node_count,
                 Digest& digest) {
  digest.add(tree.destination());
  for (miro::topo::NodeId node = 0; node < node_count; ++node)
    digest.add(tree.reachable(node) ? tree.next_hop(node) : 0xffffffffULL);
}

miro::topo::AsGraph generate_graph(const Inputs& inputs, Tracer& tracer) {
  return tracer.time("topology.generate", [&] {
    return miro::topo::generate(
        miro::topo::profile(inputs.profile, inputs.scale));
  });
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"avoid_internet", "internet2006", 1.0, 0.02, "avoid tuples",
       make_avoid_internet},
      {"tunnel_lifecycle", "gao2005", 1.0, 0.05, "negotiated tunnels",
       make_tunnel_lifecycle},
      {"inbound_te", "gao2005", 1.0, 0.05, "modified re-solves",
       make_inbound_te},
      {"churn_reconverge", "gao2005", 1.0, 0.05, "BGP messages",
       make_churn_reconverge},
  };
  return specs;
}

}  // namespace mirobench
