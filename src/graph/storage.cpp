#include "graph/storage.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace pg::graph {

namespace {

struct PgcsrHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t n;
  std::uint64_t m;
  std::uint64_t offsets_checksum;
  std::uint64_t adjacency_checksum;
  char reserved[16];
};

static_assert(sizeof(PgcsrHeader) == kPgcsrHeaderBytes,
              "pgcsr header must be exactly 64 bytes");

std::uint64_t section_checksum(const void* data, std::size_t bytes) {
  return fnv1a64(std::string_view(static_cast<const char*>(data), bytes));
}

void reject(const std::string& path, const std::string& why) {
  PG_REQUIRE(false, "'" + path + "' is not a usable .pgcsr file: " + why);
}

}  // namespace

void write_pgcsr(GraphView g, std::ostream& out) {
  // In-memory offsets are size_t; the on-disk format pins u64.  These are
  // the same representation on every platform this project targets, and
  // the static_assert keeps a hypothetical 32-bit port from silently
  // writing a foreign layout.
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "pgcsr serialization assumes 64-bit size_t");
  static_assert(sizeof(VertexId) == sizeof(std::int32_t));

  const auto offsets = g.adjacency_offsets();
  const auto adjacency = g.adjacency_array();
  PG_REQUIRE(!offsets.empty(), "cannot serialize a default-constructed view");

  PgcsrHeader header{};
  std::memcpy(header.magic, kPgcsrMagic, sizeof(kPgcsrMagic));
  header.version = kPgcsrVersion;
  header.endian = kPgcsrEndianSentinel;
  header.n = static_cast<std::uint64_t>(g.num_vertices());
  header.m = static_cast<std::uint64_t>(g.num_edges());
  header.offsets_checksum =
      section_checksum(offsets.data(), offsets.size_bytes());
  header.adjacency_checksum =
      section_checksum(adjacency.data(), adjacency.size_bytes());

  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size_bytes()));
  out.write(reinterpret_cast<const char*>(adjacency.data()),
            static_cast<std::streamsize>(adjacency.size_bytes()));
  PG_REQUIRE(static_cast<bool>(out), "pgcsr write failed");
}

void write_pgcsr_file(GraphView g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  PG_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "' for writing");
  write_pgcsr(g, out);
  out.flush();
  PG_REQUIRE(static_cast<bool>(out), "pgcsr write to '" + path + "' failed");
}

MappedGraph MappedGraph::open(const std::string& path) {
  MappedGraph mg;
  mg.file_ = util::FileView::map(path);
  mg.path_ = path;
  const std::byte* base = mg.file_.data();
  const std::size_t size = mg.file_.size();

  if (size < kPgcsrHeaderBytes) reject(path, "shorter than the 64-byte header");
  PgcsrHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kPgcsrMagic, sizeof(kPgcsrMagic)) != 0)
    reject(path, "wrong magic (not a pgcsr file)");
  if (header.endian != kPgcsrEndianSentinel)
    reject(path, "foreign byte order");
  if (header.version != kPgcsrVersion)
    reject(path, "unsupported format version " + std::to_string(header.version) +
                     " (this build reads version " +
                     std::to_string(kPgcsrVersion) + ")");

  if (header.n > static_cast<std::uint64_t>(
                     std::numeric_limits<VertexId>::max()))
    reject(path, "vertex count exceeds int32 vertex ids");
  if (header.m > kMaxAdjacencySlots / 2)
    reject(path, "edge count exceeds the int32-addressable slot space");
  const std::uint64_t n = header.n;
  const std::uint64_t slots = 2 * header.m;
  const std::size_t offsets_bytes =
      static_cast<std::size_t>(n + 1) * sizeof(std::uint64_t);
  const std::size_t adjacency_bytes =
      static_cast<std::size_t>(slots) * sizeof(std::int32_t);
  const std::size_t expected = kPgcsrHeaderBytes + offsets_bytes + adjacency_bytes;
  if (size != expected)
    reject(path, "size mismatch: header promises " + std::to_string(expected) +
                     " bytes, file has " + std::to_string(size));

  const std::byte* offsets_ptr = base + kPgcsrHeaderBytes;
  const std::byte* adjacency_ptr = offsets_ptr + offsets_bytes;
  if (section_checksum(offsets_ptr, offsets_bytes) != header.offsets_checksum)
    reject(path, "offsets section checksum mismatch");
  if (section_checksum(adjacency_ptr, adjacency_bytes) !=
      header.adjacency_checksum)
    reject(path, "adjacency section checksum mismatch");

  // mmap bases are page-aligned and both section offsets are multiples of
  // their element sizes (the header is 64 bytes, the offsets section a
  // multiple of 8), so these reinterpret_casts are aligned loads.
  const auto* offsets = reinterpret_cast<const std::size_t*>(offsets_ptr);
  const auto* adjacency = reinterpret_cast<const VertexId*>(adjacency_ptr);
  GraphView view({offsets, static_cast<std::size_t>(n + 1)},
                 {adjacency, static_cast<std::size_t>(slots)});

  // Full structural validation: a mapped graph must honour every Graph
  // invariant before any algorithm sees it, including the symmetry
  // GraphBuilder guarantees by construction.  Two O(n + m) passes at open
  // time; the checksums above already touched every page anyway.
  if (offsets[0] != 0 || offsets[n] != slots)
    reject(path, "CSR offsets do not span the adjacency section");
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1])
      reject(path, "CSR offsets are not ascending");
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = adjacency[i];
      if (w < 0 || static_cast<std::uint64_t>(w) >= n ||
          static_cast<std::uint64_t>(w) == v)
        reject(path, "adjacency id out of range or self-loop");
      if (i > offsets[v] && adjacency[i - 1] >= w)
        reject(path, "adjacency rows are not strictly sorted");
    }
  }
  // Symmetry, one cursor per vertex: sweeping u ascending meets each v's
  // in-neighbours in the order of v's sorted row, so the slot (u -> v) is
  // matched by v's next unread slot, which must hold u.
  std::vector<std::size_t> next(offsets, offsets + n);
  for (std::uint64_t u = 0; u < n; ++u)
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const auto v = static_cast<std::size_t>(adjacency[i]);
      if (next[v] == offsets[v + 1] ||
          adjacency[next[v]++] != static_cast<VertexId>(u))
        reject(path, "adjacency is not symmetric");
    }
  mg.view_ = view;
  return mg;
}

MappedGraph Graph::map_file(const std::string& path) {
  return MappedGraph::open(path);
}

}  // namespace pg::graph
