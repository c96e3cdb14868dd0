// Edge-list ingestion against its oracles (tests/import_oracle.hpp):
// randomized SNAP-style text must import to the same CSR arrays, the same
// ImportStats and, when a line is malformed, the same line number and
// message as the getline/sort importer; GraphBuilder::build must match the
// sort-based build.  Also pins that the id remap never allocates in
// proportion to the id span.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "import_oracle.hpp"
#include "util/rng.hpp"

// Every heap allocation in this test binary goes through these, so a test
// can see the largest single allocation an import makes.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pg::graph {
namespace {

void expect_same_csr(GraphView expected, GraphView actual,
                     const std::string& context) {
  const auto eo = expected.adjacency_offsets();
  const auto ao = actual.adjacency_offsets();
  ASSERT_EQ(std::vector<std::size_t>(eo.begin(), eo.end()),
            std::vector<std::size_t>(ao.begin(), ao.end()))
      << context;
  const auto ea = expected.adjacency_array();
  const auto aa = actual.adjacency_array();
  ASSERT_EQ(std::vector<VertexId>(ea.begin(), ea.end()),
            std::vector<VertexId>(aa.begin(), aa.end()))
      << context;
}

void expect_same_stats(const ImportStats& e, const ImportStats& a,
                       const std::string& context) {
  EXPECT_EQ(e.lines, a.lines) << context;
  EXPECT_EQ(e.comment_lines, a.comment_lines) << context;
  EXPECT_EQ(e.edge_lines, a.edge_lines) << context;
  EXPECT_EQ(e.self_loops, a.self_loops) << context;
  EXPECT_EQ(e.duplicates, a.duplicates) << context;
  EXPECT_EQ(e.min_id, a.min_id) << context;
  EXPECT_EQ(e.max_id, a.max_id) << context;
  EXPECT_EQ(e.remapped, a.remapped) << context;
}

/// What a PreconditionViolation says after the check's source location
/// ("PG_REQUIRE failed: (...) at FILE:LINE — message").
std::string message_of(const PreconditionViolation& error) {
  const std::string what = error.what();
  const std::size_t dash = what.find(" — ");
  return dash == std::string::npos ? what : what.substr(dash);
}

/// Imports `text` with both importers; equal graphs and stats, or the same
/// error message (it names the line).
void expect_same_import(const std::string& text, const std::string& context) {
  std::string expected_error;
  ImportResult expected;
  try {
    std::istringstream in(text);
    expected = oracle::import_edge_list(in);
  } catch (const PreconditionViolation& error) {
    expected_error = message_of(error);
  }
  std::string actual_error;
  ImportResult actual;
  try {
    std::istringstream in(text);
    actual = import_edge_list(in);
  } catch (const PreconditionViolation& error) {
    actual_error = message_of(error);
  }
  ASSERT_EQ(expected_error, actual_error) << context;
  if (!expected_error.empty()) return;
  expect_same_csr(expected.graph, actual.graph, context);
  expect_same_stats(expected.stats, actual.stats, context);
}

int uniform(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.next_int(lo, hi));
}

enum class IdStyle { kDense, kOneBased, kSparse, kNearMax };

/// SNAP-style text over `vertices` ids: edges with repeats in both
/// orientations and self-loops, '#'/'%' comments, blank and
/// whitespace-only lines, tabs, CRLF line ends, and sometimes no final
/// newline.
std::string random_edge_list(Rng& rng, IdStyle style, int vertices,
                             int lines) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(vertices));
  for (int k = 0; k < vertices; ++k) {
    std::int64_t id = k;
    switch (style) {
      case IdStyle::kDense: break;
      case IdStyle::kOneBased: id = k + 1; break;
      case IdStyle::kSparse:
        id = static_cast<std::int64_t>(rng() >> 20);
        break;
      case IdStyle::kNearMax:
        id = std::numeric_limits<std::int64_t>::max() -
             rng.next_int(0, 4 * vertices);
        break;
    }
    ids[static_cast<std::size_t>(k)] = id;
  }
  const auto pick = [&] {
    return ids[static_cast<std::size_t>(uniform(rng, 0, vertices - 1))];
  };
  const auto blanks = [&] {
    static const char* const kBlanks[] = {"", " ", "\t", "  ", " \t "};
    return std::string(kBlanks[uniform(rng, 0, 4)]);
  };
  const bool crlf = rng.next_bool(0.3);
  std::string text;
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  for (int i = 0; i < lines; ++i) {
    const double kind = rng.next_double();
    if (kind < 0.05) {
      text += blanks() + (rng.next_bool(0.5) ? "# " : "% ") + "comment " +
              std::to_string(i);
    } else if (kind < 0.08) {
      text += blanks();  // blank or whitespace-only
    } else {
      std::int64_t u = pick();
      std::int64_t v = pick();
      if (kind < 0.12) v = u;  // self-loop
      if (kind > 0.85 && !seen.empty()) {  // repeat, either orientation
        const auto& old = seen[static_cast<std::size_t>(
            uniform(rng, 0, static_cast<int>(seen.size()) - 1))];
        u = rng.next_bool(0.5) ? old.first : old.second;
        v = u == old.first ? old.second : old.first;
      }
      seen.emplace_back(u, v);
      text += blanks() + std::to_string(u) + (rng.next_bool(0.5) ? "\t" : " ") +
              blanks() + std::to_string(v) + blanks();
    }
    if (i + 1 < lines || rng.next_bool(0.7)) text += crlf ? "\r\n" : "\n";
  }
  return text;
}

TEST(ImportOracle, RandomEdgeListsMatchTheLineByLineImporter) {
  Rng rng(20240611);
  const IdStyle styles[] = {IdStyle::kDense, IdStyle::kOneBased,
                            IdStyle::kSparse, IdStyle::kNearMax};
  for (int trial = 0; trial < 160; ++trial) {
    const IdStyle style = styles[trial % 4];
    const int vertices = uniform(rng, 1, 60);
    const int lines = uniform(rng, 0, 200);
    const std::string text = random_edge_list(rng, style, vertices, lines);
    expect_same_import(text, "trial " + std::to_string(trial));
  }
}

TEST(ImportOracle, InputsSpanningManyReadBlocksMatch) {
  // Several hundred KiB, so lines straddle the importer's 64 KiB blocks,
  // plus one comment line longer than a block.
  Rng rng(77);
  for (const IdStyle style : {IdStyle::kDense, IdStyle::kSparse}) {
    std::string text = random_edge_list(rng, style, 3000, 30000);
    text.insert(text.size() / 2, "\n#" + std::string(200000, 'x') + "\n");
    expect_same_import(text, "large input");
  }
}

TEST(ImportOracle, MalformedLinesFailWithTheSameLineAndMessage) {
  const std::string bad_lines[] = {
      "a b",      "1",         "1 2 3",     "1 -2",
      "-1 2",     "3.5 2",     "1 2x",      "1 99999999999999999999",
      "1\v2",     "0x1 2",     "+1 2",      "1 2 #"};
  Rng rng(5);
  int trial = 0;
  for (const std::string& bad : bad_lines) {
    for (int at : {0, 1, 7, 40}) {
      std::string text = random_edge_list(rng, IdStyle::kOneBased, 20, 40);
      // Splice the bad line in after `at` lines (or append it last).
      std::size_t pos = 0;
      for (int k = 0; k < at && pos != std::string::npos; ++k) {
        pos = text.find('\n', pos);
        if (pos != std::string::npos) ++pos;
      }
      if (pos == std::string::npos || pos >= text.size()) {
        if (!text.empty() && text.back() != '\n') text += '\n';
        text += bad;  // malformed last line with no final newline
      } else {
        text.insert(pos, bad + "\n");
      }
      std::string actual;
      try {
        std::istringstream in(text);
        import_edge_list(in);
      } catch (const PreconditionViolation& error) {
        actual = message_of(error);
      }
      EXPECT_NE(actual.find("edge list line "), std::string::npos)
          << "accepted '" << bad << "'";
      expect_same_import(text, "bad line '" + bad + "' trial " +
                                   std::to_string(trial++));
    }
  }
  // A malformed final line without a newline, and one after a CRLF file.
  expect_same_import("1 2\n2 3\nbroken", "unterminated bad last line");
  expect_same_import("1 2\r\n2 3\r\n4 -5", "bad last line after CRLF");
}

TEST(ImportOracle, EmptyAndCommentOnlyInputsImportToNoVertices) {
  for (const std::string& text :
       {std::string(), std::string("\n\n"), std::string("# only\n% comments"),
        std::string(" \t \r\n# x\r\n")}) {
    std::istringstream in(text);
    const ImportResult imported = import_edge_list(in);
    EXPECT_EQ(imported.graph.num_vertices(), 0);
    EXPECT_EQ(imported.graph.num_edges(), 0u);
    EXPECT_FALSE(imported.stats.remapped);
    expect_same_import(text, "empty-ish input");
  }
}

TEST(ImportBoundedMemory, IdsSpanningTwoToTheSixtyTwoImportAtOnce) {
  std::istringstream in("0 4611686018427387904\n");
  const ImportResult imported = import_edge_list(in);
  EXPECT_EQ(imported.graph.num_vertices(), 2);
  EXPECT_EQ(imported.graph.num_edges(), 1u);
  EXPECT_EQ(imported.stats.min_id, 0);
  EXPECT_EQ(imported.stats.max_id, std::int64_t{1} << 62);
  EXPECT_TRUE(imported.stats.remapped);
}

TEST(ImportBoundedMemory, NoAllocationScalesWithTheIdSpan) {
  // 1,000 lines whose ids spread over 2^26 values: a table over the span
  // would need 256 MiB; nothing here may come near 1 MiB.
  std::string text;
  for (std::int64_t k = 0; k < 1000; ++k)
    text += std::to_string(k * 67108) + " " + std::to_string(k * 67108 + 1) +
            "\n";
  text += "0 67108864\n";
  std::istringstream in(text);
  g_largest_allocation.store(0);
  const ImportResult imported = import_edge_list(in);
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 20);
  EXPECT_EQ(imported.graph.num_vertices(), 2001);
  EXPECT_EQ(imported.graph.num_edges(), 1001u);
}

TEST(BuilderOracle, CountingScatterMatchesTheSortBasedBuild) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    VertexId n = uniform(rng, 0, 40);
    GraphBuilder builder(n);
    std::vector<Edge> edges;
    const int m = n < 2 ? 0 : uniform(rng, 0, 3 * n);
    for (int i = 0; i < m; ++i) {
      const VertexId u = uniform(rng, 0, n - 1);
      const VertexId v = uniform(rng, 0, n - 1);
      if (u == v) continue;
      const int copies = rng.next_bool(0.2) ? 3 : 1;  // both orientations
      for (int c = 0; c < copies; ++c) {
        builder.add_edge(c % 2 == 0 ? u : v, c % 2 == 0 ? v : u);
        edges.emplace_back(u, v);
      }
    }
    if (rng.next_bool(0.2)) {  // vertices added after the edges stay isolated
      builder.add_vertex();
      ++n;
    }
    expect_same_csr(oracle::sorted_build(n, edges), std::move(builder).build(),
                    "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace pg::graph
