// churn_reconverge: the BGP write path, where RIBs change under messages.
// Churn traces from generate_churn_trace are replayed against
// SessionedBgpNetwork (MRAI 60, flap damping on) with an InvariantChecker
// attached. One op is one trace event: advance to its time, apply it, step
// the scheduler until transit_quiet(), then check(). The last event of a
// trace also drains the remaining timers (damping reuse), and the trace's
// final_check runs off the clock.
//
// Every trace runs on a fresh network for its own sampled destination, as
// churn::replay_churn does, so one run averages over many destinations and
// traces. Building and initially converging that network is the trace's
// set-up. It runs between ops, off the op clock, and each one is timed:
// setup_s counts their median over the run (see repeated_setup_s()).
#include <algorithm>
#include <memory>

#include "bgp/session_bgp.hpp"
#include "churn/churn_trace.hpp"
#include "churn/invariant_checker.hpp"
#include "common/rng.hpp"
#include "harness.hpp"

namespace mirobench {
namespace {

using miro::churn::ChurnEvent;
using miro::churn::ChurnEventKind;
using miro::topo::NodeId;

constexpr miro::sim::Time kMrai = 60;
/// Traces keep the generator's default episode density (40 episodes per
/// 20,000 ticks) but are a quarter as long, so one run spans dozens of
/// destinations and traces instead of a handful; per-trace cost varies
/// enough that a handful leaves the run's figures hostage to the seed.
constexpr miro::sim::Time kTraceDuration = 5000;
/// A trace's 10 episodes in the generator's default proportions (link flap
/// 6 : session reset 2 : prefix flap 1 : hijack 1), with the two rare,
/// network-wide kinds fixed at one episode each instead of drawn. A prefix
/// withdrawal costs ten times a link flap, so a drawn count would let the
/// seed's share of them decide op_ms.p90.
constexpr std::size_t kLinkEpisodes = 8;  ///< flaps and resets, drawn 6 : 2
constexpr std::size_t kPrefixEpisodes = 1;
constexpr std::size_t kHijackEpisodes = 1;

/// BGP message counts; differences of two snapshots give one trace's share.
struct Totals {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t coalesced = 0;
  std::size_t suppressed = 0;
  std::size_t lost = 0;

  Totals& operator+=(const Totals& other) {
    sent += other.sent;
    delivered += other.delivered;
    coalesced += other.coalesced;
    suppressed += other.suppressed;
    lost += other.lost;
    return *this;
  }
  Totals operator-(const Totals& other) const {
    return {sent - other.sent, delivered - other.delivered,
            coalesced - other.coalesced, suppressed - other.suppressed,
            lost - other.lost};
  }
};

/// One trace replayed on its own converged network.
struct Replay {
  Replay(const miro::topo::AsGraph& graph, NodeId destination,
         const miro::bgp::ChurnDefenseConfig& defense)
      : network(graph, destination, scheduler, 10, defense),
        checker(network) {
    network.start();
    scheduler.run_all();
    converged = totals();
  }

  Totals totals() const {
    const auto& stats = network.stats();
    return {stats.updates_sent + stats.withdrawals_sent,
            stats.delivered_updates + stats.delivered_withdrawals,
            stats.coalesced, stats.updates_suppressed, stats.lost_in_flight};
  }

  miro::sim::Scheduler scheduler;
  miro::bgp::SessionedBgpNetwork network;
  miro::churn::InvariantChecker checker;
  miro::churn::ChurnTrace trace;
  Totals converged;            ///< message counts after initial convergence
  std::size_t next = 0;        ///< next event of `trace`
  std::size_t violations = 0;  ///< already reported
};

void apply(Replay& replay, const ChurnEvent& event) {
  auto& network = replay.network;
  switch (event.kind) {
    case ChurnEventKind::LinkDown:
      network.fail_link(event.a, event.b);
      replay.checker.on_session_flush(event.a, event.b);
      break;
    case ChurnEventKind::LinkUp:
      network.restore_link(event.a, event.b);
      break;
    case ChurnEventKind::SessionReset:
      network.fail_link(event.a, event.b);
      replay.checker.on_session_flush(event.a, event.b);
      network.restore_link(event.a, event.b);
      break;
    case ChurnEventKind::PrefixWithdraw:
      network.withdraw_prefix();
      break;
    case ChurnEventKind::PrefixAnnounce:
      network.announce_prefix();
      break;
    case ChurnEventKind::HijackStart:
      network.start_hijack(event.a);
      break;
    case ChurnEventKind::HijackEnd:
      network.end_hijack(event.a);
      break;
  }
}

std::size_t violation_count(const miro::churn::InvariantChecker& checker) {
  return checker.violations().size() + checker.stats().violations_dropped;
}

class ChurnReconverge final : public Workload {
 public:
  ChurnReconverge(const Inputs& inputs, Tracer& tracer)
      : graph_(generate_graph(inputs, tracer)),
        rng_(inputs.seed) {
    defense_.mrai = kMrai;
    defense_.damping_enabled = true;
    next_replay();
  }

  void op(Tracer& tracer) override {
    Replay& replay = *replay_;
    const ChurnEvent& event = replay.trace.events[replay.next];
    if (replay.scheduler.now() < event.time) {
      events_ += static_cast<double>(tracer.time("netsim.advance", [&] {
        return replay.scheduler.run_until(event.time);
      }));
    }
    replay.checker.note_event(replay.next);
    tracer.time("bgp.session.apply", [&] { apply(replay, event); });
    events_ += static_cast<double>(tracer.time("bgp.session.converge", [&] {
      // Events due now (the deferred reselects an event schedules) fire
      // before quiescence is judged, as they would before a checkpoint.
      std::size_t fired = 0;
      for (;;) {
        fired += replay.scheduler.run_until(replay.scheduler.now());
        if (replay.network.transit_quiet() || !replay.scheduler.run_one())
          return fired;
        ++fired;
      }
    }));
    tracer.time("churn.check",
                [&] { replay.checker.check(replay.scheduler.now()); });
    last_kind_ = event.kind;
    trace_done_ = ++replay.next == replay.trace.events.size();
    if (trace_done_) {
      events_ += static_cast<double>(tracer.time(
          "bgp.session.converge", [&] { return replay.scheduler.run_all(); }));
    }
    queue_depth_ += static_cast<double>(replay.scheduler.pending_events());
    ++ops_;
  }

  bool verify(Digest& digest, bool fold, std::string& why) override {
    Replay& replay = *replay_;
    if (trace_done_) replay.checker.final_check(replay.scheduler.now());
    const std::size_t violations = violation_count(replay.checker);
    bool ok = true;
    if (violations > replay.violations) {
      const auto& recorded = replay.checker.violations();
      why = "invariant violated";
      if (replay.violations < recorded.size())
        why += ": " + recorded[replay.violations].property + " (" +
               recorded[replay.violations].detail + ")";
      replay.violations = violations;
      ok = false;
    }
    if (fold) {
      digest.add(replay.trace.destination);
      digest.add(replay.next);
      digest.add(static_cast<std::uint64_t>(last_kind_));
      digest.add(replay.scheduler.now());
      digest.add(replay.network.stats().updates_sent +
                 replay.network.stats().withdrawals_sent);
      if (trace_done_) {
        for (NodeId node = 0; node < graph_.node_count(); ++node)
          digest.add_all(replay.network.path_of(node));
      }
    }
    if (trace_done_) {
      trace_done_ = false;
      next_replay();
    }
    return ok;
  }

  double units() const override {
    return static_cast<double>(replayed().delivered);
  }

  const std::vector<double>& repeated_setup_s() const override {
    return replay_setup_s_;
  }

  void counters(Counters& out) const override {
    const Totals sum = replayed();
    out["bgp.session.updates"] = static_cast<double>(sum.sent);
    out["bgp.session.coalesced"] = static_cast<double>(sum.coalesced);
    out["bgp.session.suppressed"] = static_cast<double>(sum.suppressed);
    out["bgp.session.lost_in_flight"] = static_cast<double>(sum.lost);
    out["netsim.bus.delivered"] = static_cast<double>(sum.delivered);
    // Footprints at the end of each finished trace: the mean RIB bytes per
    // route and the largest checker.
    if (traces_ > 0)
      out["bgp.session.rib_bytes_per_route"] = rib_bytes_per_route_ / traces_;
    out["churn.checker_bytes"] = checker_bytes_;
    out["churn.violations"] =
        static_cast<double>(violations_ + violation_count(replay_->checker));
    if (ops_ > 0) {
      out["netsim.events_per_op"] = events_ / ops_;
      out["netsim.queue_depth"] = queue_depth_ / ops_;
    }
    out["topology.bytes_per_edge"] =
        static_cast<double>(graph_.memory_bytes()) /
        static_cast<double>(graph_.edge_count());
  }

 private:
  /// Messages of every trace replayed so far, initial convergence excluded.
  Totals replayed() const {
    Totals sum = finished_;
    sum += replay_->totals() - replay_->converged;
    return sum;
  }

  /// Retires the current replay and sets up the next: a fresh network for a
  /// newly sampled destination, converged, with its own generated trace.
  void next_replay() {
    if (replay_) {
      finished_ += replay_->totals() - replay_->converged;
      violations_ += violation_count(replay_->checker);
      ++traces_;
      rib_bytes_per_route_ +=
          replay_->network.rib_footprint().bytes_per_route();
      checker_bytes_ = std::max(
          checker_bytes_, static_cast<double>(replay_->checker.memory_bytes()));
      replay_.reset();
    }
    const auto destination =
        static_cast<NodeId>(rng_.next_below(graph_.node_count()));
    const double start = wall_ns();
    replay_ = std::make_unique<Replay>(graph_, destination, defense_);
    replay_setup_s_.push_back((wall_ns() - start) / 1e9);
    replay_->trace = generate_trace(destination);
    // Shift the trace to start after the initial convergence.
    const miro::sim::Time offset = replay_->scheduler.now() + 1;
    for (ChurnEvent& event : replay_->trace.events) event.time += offset;
  }

  /// One trace of generate_churn_trace episodes in fixed proportions: three
  /// traces over the same span, one per resource (links, the prefix, the
  /// hijack slot), merged by time. The generator keeps the episodes on one
  /// resource apart, and episodes on different resources may overlap in the
  /// generator's own traces too, so the merged trace is one it could emit.
  miro::churn::ChurnTrace generate_trace(NodeId destination) {
    miro::churn::ChurnTrace trace;
    trace.destination = destination;
    auto add = [&](std::size_t episodes, double link_flap, double reset,
                   double prefix_flap, double hijack) {
      miro::churn::ChurnTraceConfig config;
      config.duration = kTraceDuration;
      config.episodes = episodes;
      config.link_flap_weight = link_flap;
      config.session_reset_weight = reset;
      config.prefix_flap_weight = prefix_flap;
      config.hijack_weight = hijack;
      config.seed = rng_.next();
      miro::churn::ChurnTrace part =
          miro::churn::generate_churn_trace(graph_, destination, config);
      const auto middle = static_cast<std::ptrdiff_t>(trace.events.size());
      trace.events.insert(trace.events.end(), part.events.begin(),
                          part.events.end());
      std::inplace_merge(trace.events.begin(), trace.events.begin() + middle,
                         trace.events.end(),
                         [](const ChurnEvent& x, const ChurnEvent& y) {
                           return x.time < y.time;
                         });
    };
    add(kLinkEpisodes, 6, 2, 0, 0);
    add(kPrefixEpisodes, 0, 0, 1, 0);
    add(kHijackEpisodes, 0, 0, 0, 1);
    trace.validate(graph_);
    return trace;
  }

  miro::topo::AsGraph graph_;
  miro::Rng rng_;
  miro::bgp::ChurnDefenseConfig defense_;
  std::unique_ptr<Replay> replay_;
  std::vector<double> replay_setup_s_;  ///< network build + convergence
  Totals finished_;
  std::size_t violations_ = 0;
  double traces_ = 0;  ///< finished traces
  double rib_bytes_per_route_ = 0;
  double checker_bytes_ = 0;
  bool trace_done_ = false;
  ChurnEventKind last_kind_ = ChurnEventKind::LinkDown;
  double events_ = 0;
  double queue_depth_ = 0;
  double ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn_reconverge(const Inputs& inputs,
                                                Tracer& tracer) {
  return std::make_unique<ChurnReconverge>(inputs, tracer);
}

}  // namespace mirobench
