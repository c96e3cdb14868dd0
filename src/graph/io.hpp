// Plain-text graph serialization: a compact edge-list format, a SNAP-style
// edge-list importer for real graphs, and DOT export for visual inspection
// of the lower-bound gadget constructions.
//
// All text parsing is std::from_chars-based (locale-proof) and reports the
// offending 1-based line number on malformed, overflowing, or negative
// input via PreconditionViolation — which the CLI maps to exit 2.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace pg::graph {

/// Format: first line "n m", then m lines "u v".
void write_edge_list(GraphView g, std::ostream& out);
Graph read_edge_list(std::istream& in);

/// Statistics from a SNAP-style text import (see import_edge_list).
struct ImportStats {
  std::size_t lines = 0;        ///< input lines consumed
  std::size_t comment_lines = 0;///< '#'/'%' comments and blank lines
  std::size_t edge_lines = 0;   ///< lines carrying an edge pair
  std::size_t self_loops = 0;   ///< dropped u==u entries
  std::size_t duplicates = 0;   ///< dropped after symmetrization + dedup
  std::int64_t min_id = 0;      ///< smallest original vertex id seen
  std::int64_t max_id = -1;     ///< largest original vertex id seen
  bool remapped = false;        ///< ids were not already dense 0..n-1
};

struct ImportResult {
  Graph graph;
  ImportStats stats;
};

/// Parses SNAP/edge-list text into a clean undirected Graph:
///   * lines whose first non-blank character is '#' or '%' (and blank
///     lines) are comments;
///   * every other line is "<u> <v>" with non-negative integer ids
///     separated by spaces or tabs — anything else fails with its line
///     number;
///   * ids may be 1-based or sparse: distinct original ids are remapped to
///     dense 0..n-1 in ascending order (already-dense inputs map to
///     themselves, so the remap is the identity there);
///   * self-loops are dropped, (u,v)/(v,u) and repeated pairs deduplicate
///     to one undirected edge.
/// The text is read in blocks and parsed in place; the id remap is a rank
/// table when the ids span at most 2m values and a hash table otherwise
/// (only the n distinct ids are sorted), and the CSR comes from
/// GraphBuilder::build.  Time is O(n log n + m log Δ), linear for dense ids
/// apart from the row sorts; memory is O(n + m) whatever the id span.
/// Overflowing int32 vertex ids or the int32 adjacency slot space fails
/// loudly.
ImportResult import_edge_list(std::istream& in);

/// Graphviz DOT.  `labels` (optional, size n) names the vertices.
std::string to_dot(GraphView g,
                   const std::vector<std::string>* labels = nullptr);

}  // namespace pg::graph
