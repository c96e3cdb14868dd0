#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace pg::graph {

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  PG_REQUIRE(false, "edge list line " + std::to_string(line_no) + ": " + why);
}

/// Parses exactly `count` base-10 integers from `line`, separated by
/// spaces/tabs, rejecting trailing garbage.  std::from_chars is
/// locale-independent and overflow-checked — a value past int64 (or a
/// stray token like "3.5" or "a") fails with the line number instead of
/// silently truncating the graph.
void parse_ints(std::string_view line, std::size_t line_no,
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

/// True for blank lines and '#'/'%' comment lines (SNAP headers).
bool is_comment(std::string_view line) {
  for (char c : line) {
    if (is_blank(c)) continue;
    return c == '#' || c == '%';
  }
  return true;
}

std::string_view chomp(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Calls on_line(text, line_no) for every '\n'-terminated line of `in`
/// (without the '\n'), numbered from 1, plus a final unterminated line if
/// it is non-empty — the lines std::getline would return.  The stream is
/// read in 64 KiB blocks and lines are parsed where they lie; only a line
/// that straddles two blocks moves (to the buffer's front), and a line
/// longer than the buffer doubles it.
template <typename OnLine>
void for_each_line(std::istream& in, OnLine&& on_line) {
  std::vector<char> buf(std::size_t{1} << 16);
  std::size_t held = 0;  // bytes of an unfinished line at buf's front
  std::size_t line_no = 0;
  for (;;) {
    if (held == buf.size()) buf.resize(2 * buf.size());
    in.read(buf.data() + held, static_cast<std::streamsize>(buf.size() - held));
    const auto got = static_cast<std::size_t>(in.gcount());
    const char* p = buf.data();
    const char* const end = buf.data() + held + got;
    while (const auto* nl = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) {
      on_line(std::string_view(p, static_cast<std::size_t>(nl - p)), ++line_no);
      p = nl + 1;
    }
    held = static_cast<std::size_t>(end - p);
    if (got == 0) {
      if (held > 0) on_line(std::string_view(p, held), ++line_no);
      return;
    }
    std::memmove(buf.data(), p, held);
  }
}

constexpr std::size_t kMaxVertexCount =
    static_cast<std::size_t>(std::numeric_limits<VertexId>::max());

/// Numbers distinct ids by first appearance: an open-addressing hash table
/// (linear probing, load at most 1/2) whose memory is O(n), however wide
/// the ids are spread.
class FirstSeen {
 public:
  VertexId operator()(std::int64_t id) {
    std::size_t i = slot_of(id);
    if (keys_[i] == kEmpty) {
      PG_REQUIRE(size_ < kMaxVertexCount,
                 "imported graph has more distinct vertex ids than int32 "
                 "allows");
      if (2 * (size_ + 1) > keys_.size()) {
        grow();
        i = slot_of(id);
      }
      keys_[i] = id;
      index_[i] = static_cast<VertexId>(size_++);
    }
    return index_[i];
  }

  /// rank[k] is the position of the k-th distinct id in ascending order.
  /// Only the n distinct ids are sorted.  Consumes the table.
  std::vector<VertexId> ranks() && {
    std::vector<std::pair<std::int64_t, VertexId>> by_id;
    by_id.reserve(size_);
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kEmpty) by_id.emplace_back(keys_[i], index_[i]);
    keys_ = std::vector<std::int64_t>();  // frees (= {} would keep capacity)
    index_ = std::vector<VertexId>();
    std::sort(by_id.begin(), by_id.end());
    std::vector<VertexId> rank(by_id.size());
    for (std::size_t r = 0; r < by_id.size(); ++r)
      rank[static_cast<std::size_t>(by_id[r].second)] = static_cast<VertexId>(r);
    return rank;
  }

 private:
  static constexpr std::int64_t kEmpty = -1;  // ids are non-negative

  std::size_t slot_of(std::int64_t id) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) >>
        (64 - std::countr_zero(keys_.size())));
    while (keys_[i] != kEmpty && keys_[i] != id) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::vector<std::int64_t> keys = std::exchange(
        keys_, std::vector<std::int64_t>(2 * keys_.size(), kEmpty));
    const std::vector<VertexId> index =
        std::exchange(index_, std::vector<VertexId>(keys_.size()));
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] != kEmpty) {
        const std::size_t j = slot_of(keys[i]);
        keys_[j] = keys[i];
        index_[j] = index[i];
      }
  }

  std::vector<std::int64_t> keys_ = std::vector<std::int64_t>(1024, kEmpty);
  std::vector<VertexId> index_ = std::vector<VertexId>(1024);
  std::size_t size_ = 0;
};

/// Original endpoint ids as parsed, in fixed-size blocks so that growing
/// never copies and the remap can free each block once it is read.
class ParsedEnds {
 public:
  void push(std::int64_t u, std::int64_t v) {
    if (blocks_.empty() || blocks_.back().size() == kBlock) {
      blocks_.emplace_back();
      blocks_.back().reserve(kBlock);
    }
    blocks_.back().push_back(u);
    blocks_.back().push_back(v);
    count_ += 2;
  }
  std::size_t size() const { return count_; }

  /// Calls fn(id) for every id in order, releasing each block after its
  /// last id.
  template <typename Fn>
  void drain(Fn&& fn) && {
    for (auto& block : blocks_) {
      for (const std::int64_t id : block) fn(id);
      block = std::vector<std::int64_t>();
    }
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 15;  // even
  std::vector<std::vector<std::int64_t>> blocks_;
  std::size_t count_ = 0;
};

/// The dense ids of the parsed endpoints: endpoint i becomes
/// rank[local[i]], 0..n-1 in ascending original order.
struct DenseIds {
  std::vector<VertexId> local;
  std::vector<VertexId> rank;
  VertexId n = 0;
};

/// Ids that span at most ends.size() values are ranked by a table over the
/// span (local = id - min_id); wider ones through FirstSeen (local = order
/// of first appearance).  Either way time is O(m + n log n) and memory
/// O(m), never proportional to the span.
DenseIds remap_ids(ParsedEnds&& ends, std::int64_t min_id,
                   std::int64_t max_id) {
  DenseIds out;
  if (ends.size() == 0) return out;
  out.local.reserve(ends.size());
  const std::uint64_t span = static_cast<std::uint64_t>(max_id) -
                             static_cast<std::uint64_t>(min_id) + 1;
  if (span <= std::min<std::size_t>(ends.size(), kMaxVertexCount)) {
    out.rank.assign(static_cast<std::size_t>(span), -1);
    std::move(ends).drain([&](std::int64_t id) {
      const auto local = static_cast<VertexId>(id - min_id);
      out.rank[static_cast<std::size_t>(local)] = 0;
      out.local.push_back(local);
    });
    for (VertexId& r : out.rank)
      if (r == 0) r = out.n++;
  } else {
    FirstSeen first_seen;
    std::move(ends).drain(
        [&](std::int64_t id) { out.local.push_back(first_seen(id)); });
    out.rank = std::move(first_seen).ranks();
    out.n = static_cast<VertexId>(out.rank.size());
  }
  return out;
}

}  // namespace

void write_edge_list(GraphView g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge([&](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;

  PG_REQUIRE(static_cast<bool>(std::getline(in, line)),
             "edge list is empty: missing the \"n m\" header line");
  ++line_no;
  std::int64_t header[2] = {0, 0};
  parse_ints(chomp(line), line_no, header, 2);
  if (header[0] < 0 ||
      header[0] > std::numeric_limits<VertexId>::max())
    parse_fail(line_no, "vertex count out of int32 range");
  if (header[1] < 0) parse_fail(line_no, "negative edge count");
  const auto n = static_cast<VertexId>(header[0]);
  const auto m = static_cast<std::size_t>(header[1]);

  GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::getline(in, line))
      PG_REQUIRE(false, "edge list ends after line " + std::to_string(line_no) +
                            ": header promised " + std::to_string(m) +
                            " edges, found " + std::to_string(i));
    ++line_no;
    std::int64_t uv[2] = {0, 0};
    parse_ints(chomp(line), line_no, uv, 2);
    if (uv[0] < 0 || uv[0] >= n || uv[1] < 0 || uv[1] >= n)
      parse_fail(line_no, "edge endpoint out of range [0, n)");
    if (uv[0] == uv[1]) parse_fail(line_no, "self loop");
    b.add_edge(static_cast<VertexId>(uv[0]), static_cast<VertexId>(uv[1]));
  }
  return std::move(b).build();
}

ImportResult import_edge_list(std::istream& in) {
  ImportResult result;
  ImportStats& stats = result.stats;

  // Endpoint pairs with their original (possibly 1-based or sparse) ids.
  ParsedEnds ends;
  for_each_line(in, [&](std::string_view line, std::size_t line_no) {
    stats.lines = line_no;
    const std::string_view text = chomp(line);
    if (is_comment(text)) {
      ++stats.comment_lines;
      return;
    }
    std::int64_t uv[2] = {0, 0};
    parse_ints(text, line_no, uv, 2);
    if (uv[0] < 0 || uv[1] < 0) parse_fail(line_no, "negative vertex id");
    ++stats.edge_lines;
    if (uv[0] == uv[1]) {
      ++stats.self_loops;
      return;
    }
    stats.min_id = ends.size() == 0 ? std::min(uv[0], uv[1])
                                    : std::min({stats.min_id, uv[0], uv[1]});
    stats.max_id = std::max({stats.max_id, uv[0], uv[1]});
    ends.push(uv[0], uv[1]);
  });
  PG_REQUIRE(!in.bad(), "I/O error while reading the edge list");

  // Ids become 0..n-1 in ascending original order, so a dense input maps
  // to itself and the result is deterministic.
  DenseIds ids = remap_ids(std::move(ends), stats.min_id, stats.max_id);
  stats.remapped =
      !(ids.n == 0 || (stats.min_id == 0 &&
                       stats.max_id == static_cast<std::int64_t>(ids.n) - 1));
  GraphBuilder builder(ids.n);
  builder.reserve_edges(ids.local.size() / 2);
  const auto dense = [&](std::size_t i) {
    return ids.rank[static_cast<std::size_t>(ids.local[i])];
  };
  for (std::size_t i = 0; i < ids.local.size(); i += 2)
    builder.add_edge(dense(i), dense(i + 1));
  ids = DenseIds();
  result.graph = std::move(builder).build();
  stats.duplicates = stats.edge_lines - stats.self_loops -
                     result.graph.num_edges();
  return result;
}

std::string to_dot(GraphView g, const std::vector<std::string>* labels) {
  PG_REQUIRE(labels == nullptr ||
                 static_cast<VertexId>(labels->size()) == g.num_vertices(),
             "label count must match vertex count");
  std::ostringstream out;
  out << "graph G {\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (labels != nullptr) out << " [label=\"" << (*labels)[static_cast<std::size_t>(v)] << "\"]";
    out << ";\n";
  }
  g.for_each_edge(
      [&](VertexId u, VertexId v) { out << "  " << u << " -- " << v << ";\n"; });
  out << "}\n";
  return out.str();
}

}  // namespace pg::graph
