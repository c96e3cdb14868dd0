// Independent references for edge-list ingestion.  The importer now reads
// its stream in blocks, remaps ids through a rank table or a hash table,
// and builds its CSR through GraphBuilder's counting scatter, so none of
// those can check one another; the tests compare them against these
// direct transcriptions of the straightforward versions instead: a
// std::getline importer that sorts all 2m endpoints for the id remap, and
// a GraphBuilder::build that sorts and dedups the whole edge list first.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace pg::oracle {

/// Sort-based CSR construction: global sort and unique of the normalized
/// edge list, counting scatter, then a sort of each row.
inline graph::Graph sorted_build(graph::VertexId n,
                                 std::vector<graph::Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::size_t> offsets(nn + 1, 0);
  for (const graph::Edge& e : edges) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < nn; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::VertexId> adjacency(offsets[nn]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const graph::Edge& e : edges) {
    adjacency[cursor[static_cast<std::size_t>(e.u)]++] = e.v;
    adjacency[cursor[static_cast<std::size_t>(e.v)]++] = e.u;
  }
  for (std::size_t v = 0; v < nn; ++v)
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  return graph::Graph::from_csr(std::move(offsets), std::move(adjacency));
}

namespace detail {

inline bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

[[noreturn]] inline void parse_fail(std::size_t line_no,
                                    const std::string& why) {
  PG_REQUIRE(false, "edge list line " + std::to_string(line_no) + ": " + why);
}

inline void parse_ints(std::string_view line, std::size_t line_no,
                       std::int64_t* out, std::size_t count) {
  const char* p = line.data();
  const char* end = line.data() + line.size();
  for (std::size_t k = 0; k < count; ++k) {
    while (p != end && is_blank(*p)) ++p;
    if (p == end)
      parse_fail(line_no, "expected " + std::to_string(count) +
                              " integers, found " + std::to_string(k));
    const auto [next, ec] = std::from_chars(p, end, out[k]);
    if (ec == std::errc::result_out_of_range)
      parse_fail(line_no, "integer overflows 64 bits");
    if (ec != std::errc() || (next != end && !is_blank(*next)))
      parse_fail(line_no, "malformed integer");
    p = next;
  }
  while (p != end && is_blank(*p)) ++p;
  if (p != end) parse_fail(line_no, "trailing garbage after the integers");
}

inline bool is_comment(std::string_view line) {
  for (char c : line) {
    if (is_blank(c)) continue;
    return c == '#' || c == '%';
  }
  return true;
}

}  // namespace detail

/// Line-by-line importer: std::getline per line, sorted distinct endpoint
/// ids with a binary search per endpoint for the remap, sorted_build for
/// the CSR.  Same grammar, statistics and error messages as
/// graph::import_edge_list.
inline graph::ImportResult import_edge_list(std::istream& in) {
  graph::ImportResult result;
  graph::ImportStats& stats = result.stats;
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  std::string line;
  while (std::getline(in, line)) {
    ++stats.lines;
    std::string_view text = line;
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    if (detail::is_comment(text)) {
      ++stats.comment_lines;
      continue;
    }
    std::int64_t uv[2] = {0, 0};
    detail::parse_ints(text, stats.lines, uv, 2);
    if (uv[0] < 0 || uv[1] < 0)
      detail::parse_fail(stats.lines, "negative vertex id");
    ++stats.edge_lines;
    if (uv[0] == uv[1]) {
      ++stats.self_loops;
      continue;
    }
    stats.min_id = raw.empty() ? std::min(uv[0], uv[1])
                               : std::min({stats.min_id, uv[0], uv[1]});
    stats.max_id = std::max({stats.max_id, uv[0], uv[1]});
    raw.emplace_back(uv[0], uv[1]);
  }

  std::vector<std::int64_t> ids;
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto n = static_cast<graph::VertexId>(ids.size());
  stats.remapped =
      !(ids.empty() || (stats.min_id == 0 &&
                        stats.max_id == static_cast<std::int64_t>(n) - 1));
  const auto remap = [&](std::int64_t original) {
    return static_cast<graph::VertexId>(
        std::lower_bound(ids.begin(), ids.end(), original) - ids.begin());
  };
  std::vector<graph::Edge> edges;
  for (const auto& [u, v] : raw) edges.emplace_back(remap(u), remap(v));
  result.graph = sorted_build(n, std::move(edges));
  stats.duplicates =
      stats.edge_lines - stats.self_loops - result.graph.num_edges();
  return result;
}

}  // namespace pg::oracle
