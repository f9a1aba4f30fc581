#include "bgp/route.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace miro::bgp {

const char* to_string(RouteClass cls) {
  switch (cls) {
    case RouteClass::Self: return "self";
    case RouteClass::Customer: return "customer";
    case RouteClass::Peer: return "peer";
    case RouteClass::Provider: return "provider";
  }
  return "?";
}

bool Route::traverses(NodeId node) const {
  return std::find(path.begin(), path.end(), node) != path.end();
}

std::string Route::to_string(const AsGraph& graph) const {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(graph.as_number(path[i]));
  }
  return out;
}

bool prefer(const Route& a, const Route& b, const AsGraph& graph) {
  require(!a.path.empty() && !b.path.empty(), "prefer: empty route");
  require(a.owner() == b.owner(), "prefer: routes have different owners");
  if (rank(a.route_class) != rank(b.route_class))
    return rank(a.route_class) < rank(b.route_class);
  if (a.length() != b.length()) return a.length() < b.length();
  const AsNumber next_a = graph.as_number(a.next_hop());
  const AsNumber next_b = graph.as_number(b.next_hop());
  if (next_a != next_b) return next_a < next_b;
  return a.path < b.path;  // total order fallback
}

}  // namespace miro::bgp
