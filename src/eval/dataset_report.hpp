// Reports for Table 5.1 (dataset attributes) and Figure 5.1 (node degree
// distribution) over the synthetic topology profiles.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "topology/metrics.hpp"

namespace miro::eval {

/// Table 5.1 analog: one row per graph, named by the matching entry of
/// `names` (the profile each graph was generated from at `scale`).
void print_dataset_table(const std::vector<std::string>& names,
                         const std::vector<topo::AsGraph>& graphs,
                         double scale, std::ostream& out);

/// Figure 5.1 analog: log2-bucketed degree CCDF for one graph, plus the
/// high-degree fractions the dissertation quotes (0.2% with > 200 neighbors
/// scaled to graph size).
void print_degree_distribution(const std::string& name,
                               const topo::AsGraph& graph, std::ostream& out);

}  // namespace miro::eval
