// Automatic tunnel teardown on routing changes (Section 4.3).
//
// "A tunnel remains active until one AS tears it down ... AS A will tear
// down the tunnel if the path AB changes (e.g., if the path to B now
// traverses through E) or fails, and AS B will tear down the tunnel if the
// path BCF to the destination prefix fails. The ASes can observe these
// changes in the BGP update messages or session failures."
//
// The monitor holds the facts each tunnel depends on — the upstream's route
// to the responder (the carrier) and the first-hop-onward route the bound
// path rides on — and, fed with route-change events (typically wired to
// SessionedBgpNetwork observers), reports which tunnels must be destroyed.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "core/tunnel.hpp"

namespace miro::core {

class TunnelMonitor {
 public:
  struct WatchedTunnel {
    TunnelId id = 0;
    NodeId upstream = topo::kInvalidNode;
    NodeId responder = topo::kInvalidNode;
    NodeId destination = topo::kInvalidNode;
    /// The negotiated path beyond the responder: responder..destination.
    std::vector<NodeId> bound_path;
    /// The property the tunnel was negotiated for: if the carrier or the
    /// bound route starts traversing this AS, the tunnel is pointless.
    std::optional<NodeId> must_avoid;
    /// When true, any deviation of the downstream default route from the
    /// negotiated bound path tears the tunnel down (re-negotiate); when
    /// false only unreachability or a must_avoid violation does.
    bool strict_binding = false;
  };

  void watch(WatchedTunnel tunnel) { watched_.push_back(std::move(tunnel)); }

  /// Stops watching (e.g., after an active teardown). Returns true when the
  /// tunnel was watched.
  bool unwatch(NodeId responder, TunnelId id);

  /// Control-plane liveness hook: the upstream side failed the tunnel over
  /// (MiroAgent's keep-alive miss threshold, see TunnelLostEvent). Stops
  /// watching and returns the record — it carries everything a caller needs
  /// (destination, must_avoid) to steer the replacement negotiation.
  std::optional<WatchedTunnel> on_tunnel_lost(NodeId responder, TunnelId id);

  std::size_t watched_count() const { return watched_.size(); }

  /// Read-only view of everything currently watched, in watch order. The
  /// churn invariant checker audits this against the live routing state
  /// (no watched tunnel may outlive its underlying route past the
  /// hold-down).
  const std::vector<WatchedTunnel>& watched() const { return watched_; }

  /// The upstream's route toward `responder` changed (prefix = responder's
  /// address space). Returns the tunnels torn down by this event.
  std::vector<WatchedTunnel> on_carrier_change(
      NodeId upstream, NodeId responder,
      const std::optional<std::vector<NodeId>>& new_path);

  /// AS `hop`'s best route toward `destination` changed; affects every
  /// watched tunnel whose bound path continues through `hop` (the AS right
  /// after the responder's exit link). Returns the tunnels torn down.
  std::vector<WatchedTunnel> on_downstream_change(
      NodeId hop, NodeId destination,
      const std::optional<std::vector<NodeId>>& new_path);

 private:
  template <typename Predicate>
  std::vector<WatchedTunnel> tear_down_if(Predicate&& dead);

  std::vector<WatchedTunnel> watched_;
};

}  // namespace miro::core
