// Asynchronous path-vector protocol engine.
//
// Implements the activation model of Sections 2.2.3 and 7.1: the system state
// is each speaker's chosen route; *activating* a speaker makes it apply its
// neighbors' export policies to their current choices, run import filtering
// (loop rejection), and re-select its best route. A state is stable when no
// activation changes it. The engine supports arbitrary activation schedules
// (round-robin sweeps, randomized fair sequences, adversarial orders) and
// pluggable export/preference policies so the Griffin-style divergence
// gadgets can be expressed; defaults are the conventional Gao-Rexford
// policies, under which the result provably matches StableRouteSolver.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "common/rng.hpp"

namespace miro::bgp {

/// Pluggable policy hooks. All must be deterministic.
struct PolicyHooks {
  /// May `owner` advertise its current best route to `neighbor`?
  /// Default: conventional export rules.
  std::function<bool(NodeId owner, const Route& route, NodeId neighbor)>
      exports;
  /// Explicit import filter: is this candidate a permitted path at its
  /// owner (the SPP notion)? Default: everything loop-free is permitted.
  std::function<bool(const Route& candidate)> imports;
  /// Strict preference between two candidate routes at the same owner.
  /// Default: class rank, then length, then next-hop AS number.
  std::function<bool(const Route& better, const Route& worse)> prefers;
};

class PathVectorEngine {
 public:
  /// One engine instance computes routes toward a single destination prefix
  /// (route aggregation does not affect convergence; Section 7.1.2).
  PathVectorEngine(const AsGraph& graph, NodeId destination,
                   PolicyHooks hooks = {});

  /// Activates one speaker; returns true when its choice changed.
  bool activate(NodeId node);

  /// Round-robin sweeps until one full sweep changes nothing.
  /// Returns the number of activations performed, or nullopt when
  /// `max_sweeps` elapsed without stabilizing (possible divergence).
  std::optional<std::size_t> run_to_stable(std::size_t max_sweeps = 1000);

  /// One synchronous step: every speaker re-selects simultaneously from the
  /// previous state (the schedule under which DISAGREE oscillates forever).
  /// Returns true when any selection changed.
  bool step_synchronous();

  /// Random fair schedule: activates uniformly random speakers, checking for
  /// stability every `graph size` activations. Returns activations used, or
  /// nullopt when the budget elapsed.
  std::optional<std::size_t> run_random(Rng& rng,
                                        std::size_t max_activations);

  /// True when every speaker's activation would be a no-op.
  bool is_stable();

  bool has_route(NodeId node) const { return best_[node].has_value(); }
  const Route& best(NodeId node) const;

  /// The candidate routes `node` would see if activated now (its Adj-RIB-In
  /// under the instant-visibility model), most preferred first.
  std::vector<Route> candidates(NodeId node) const;

  NodeId destination() const { return destination_; }
  const AsGraph& graph() const { return *graph_; }

 private:
  std::optional<Route> select(NodeId node) const;

  const AsGraph* graph_;
  NodeId destination_;
  PolicyHooks hooks_;
  std::vector<std::optional<Route>> best_;
};

}  // namespace miro::bgp
