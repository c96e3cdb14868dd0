#include "scenario/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "scenario/report.hpp"
#include "util/hash.hpp"

namespace pg::scenario {

namespace {

// --------------------------------------------------------- line format ---
//
// <payload>\t#<16 hex digits of fnv1a64(payload)>
//
// The payload is tab-separated fields; strings escape tab/newline/
// backslash so any error text survives a round trip on one line.

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += text[i]; break;
    }
  }
  return out;
}

/// to_chars: exact for integers and the shortest round-trip form for
/// doubles (from_chars(to_chars(x)) == x), so a replayed row formats
/// identically in the reports.
template <typename Number>
void append_number(std::string& out, Number value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ec == std::errc{} ? ptr : buffer);
}

std::string with_checksum(std::string payload) {
  char digest[19];  // "\t#" + 16 hex digits + NUL
  std::snprintf(digest, sizeof(digest), "\t#%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  payload += digest;
  return payload;
}

/// Splits off and verifies the checksum suffix; empty on any mismatch.
std::string_view checked_payload(std::string_view line) {
  const std::size_t hash_at = line.rfind("\t#");
  if (hash_at == std::string_view::npos ||
      line.size() - hash_at != 2 + 16)
    return {};
  const std::string_view payload = line.substr(0, hash_at);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  if (line.substr(hash_at + 2) != digest) return {};
  return payload;
}

/// Cursor over the payload's tab-separated fields.
class FieldReader {
 public:
  explicit FieldReader(std::string_view payload) : rest_(payload) {}

  bool next(std::string_view& field) {
    if (done_) return false;
    const std::size_t tab = rest_.find('\t');
    if (tab == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, tab);
      rest_.remove_prefix(tab + 1);
    }
    return true;
  }

  bool exhausted() const { return done_; }

 private:
  std::string_view rest_;
  bool done_ = false;
};

constexpr std::string_view kRecordTag = "C";
// Bumped pgj1 -> pgj2 when the record gained the degree-regime fields: a
// journal written by an older binary fails the header check and resume
// refuses it outright instead of mixing wire formats.
constexpr std::string_view kHeaderTag = "pgj2";

/// The record's fields after the tag, in pgj2 order.  Each entry names
/// one CellResult member; its type picks the encoding (see put/take).
/// Adding, removing or reordering an entry changes the wire format, so it
/// must come with a new kHeaderTag.
constexpr auto kFields = std::make_tuple(
    [](auto& c) -> auto& { return c.cell_index; },
    [](auto& c) -> auto& { return c.spec.scenario; },
    [](auto& c) -> auto& { return c.spec.algorithm; },
    [](auto& c) -> auto& { return c.spec.n; },
    [](auto& c) -> auto& { return c.spec.r; },
    [](auto& c) -> auto& { return c.spec.epsilon; },
    [](auto& c) -> auto& { return c.spec.epsilon_used; },
    [](auto& c) -> auto& { return c.spec.seed; },
    [](auto& c) -> auto& { return c.spec.weighting; },
    [](auto& c) -> auto& { return c.spec.weights_used; },
    [](auto& c) -> auto& { return c.status; },
    [](auto& c) -> auto& { return c.error; },
    [](auto& c) -> auto& { return c.base_edges; },
    [](auto& c) -> auto& { return c.comm_power; },
    [](auto& c) -> auto& { return c.comm_edges; },
    [](auto& c) -> auto& { return c.target_edges; },
    [](auto& c) -> auto& { return c.solution_size; },
    [](auto& c) -> auto& { return c.solution_weight; },
    [](auto& c) -> auto& { return c.feasible; },
    [](auto& c) -> auto& { return c.exact; },
    [](auto& c) -> auto& { return c.rounds; },
    [](auto& c) -> auto& { return c.messages; },
    [](auto& c) -> auto& { return c.total_bits; },
    [](auto& c) -> auto& { return c.baseline; },
    [](auto& c) -> auto& { return c.baseline_size; },
    [](auto& c) -> auto& { return c.ratio; },
    [](auto& c) -> auto& { return c.weight_baseline; },
    [](auto& c) -> auto& { return c.baseline_weight; },
    [](auto& c) -> auto& { return c.ratio_weight; },
    [](auto& c) -> auto& { return c.msgs_dropped; },
    [](auto& c) -> auto& { return c.msgs_corrupted; },
    [](auto& c) -> auto& { return c.nodes_crashed; },
    [](auto& c) -> auto& { return c.rounds_survived; },
    [](auto& c) -> auto& { return c.wall_ms; },
    [](auto& c) -> auto& { return c.regime; },
    [](auto& c) -> auto& { return c.regime_alpha; });

/// The largest valid value of each flag or enum a record carries.
constexpr int max_value(bool) { return 1; }
constexpr int max_value(CellStatus) {
  return static_cast<int>(CellStatus::kUnverified);
}
constexpr int max_value(BaselineKind) {
  return static_cast<int>(BaselineKind::kGreedy);
}

/// One tab-prefixed field: strings are escaped, flags and enums are their
/// integer value, numbers are to_chars output.
template <typename T>
void put(std::string& out, const T& value) {
  out += '\t';
  if constexpr (std::is_convertible_v<T, std::string_view>)
    append_escaped(out, value);
  else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>)
    append_number(out, static_cast<int>(value));
  else
    append_number(out, value);
}

template <typename Number>
bool parse(std::string_view field, Number& value) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  return ec == std::errc{} && ptr == field.data() + field.size();
}

/// The inverse of put: false on a missing field, a malformed number, or a
/// flag or enum out of range.
template <typename T>
bool take(FieldReader& fields, T& value) {
  std::string_view field;
  if (!fields.next(field)) return false;
  if constexpr (std::is_same_v<T, std::string>) {
    value = unescape(field);
    return true;
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    int v = 0;
    if (!parse(field, v) || v < 0 || v > max_value(value)) return false;
    value = static_cast<T>(v);
    return true;
  } else {
    return parse(field, value);
  }
}

}  // namespace

std::string encode_cell_record(const CellResult& row) {
  std::string p(kRecordTag);
  p.reserve(160);
  std::apply([&](const auto&... field) { (put(p, field(row)), ...); },
             kFields);
  return with_checksum(std::move(p));
}

bool decode_cell_record(std::string_view line, CellResult& row) {
  const std::string_view payload = checked_payload(line);
  if (payload.empty()) return false;
  FieldReader fields(payload);
  std::string_view tag;
  if (!fields.next(tag) || tag != kRecordTag) return false;
  row = CellResult{};
  return std::apply(
             [&](const auto&... field) {
               return (take(fields, field(row)) && ...);
             },
             kFields) &&
         fields.exhausted();
}

std::string journal_header(const SweepSpec& spec, std::size_t total_cells,
                           std::string_view mode) {
  std::string p(kHeaderTag);
  put(p, spec_fingerprint(spec));
  put(p, spec.shard_index);
  put(p, spec.shard_count);
  put(p, total_cells);
  if (!mode.empty()) put(p, mode);
  return with_checksum(std::move(p));
}

std::string journal_path(const std::string& dir, const SweepSpec& spec) {
  std::string name = "journal-";
  append_number(name, spec.shard_index);
  name += "-of-";
  append_number(name, spec.shard_count);
  name += ".pgj";
  return (std::filesystem::path(dir) / name).string();
}

JournalContents read_journal(const std::string& path, const SweepSpec& spec,
                             std::size_t total_cells, std::string_view mode) {
  JournalContents contents;
  std::ifstream file(path, std::ios::binary);
  if (!file) return contents;  // no journal yet: empty, not an error
  contents.file_exists = true;

  // getline also returns a final line the file ends without its '\n';
  // eof() tells that torn line apart from a complete one.
  std::string line;
  if (!std::getline(file, line) || file.eof())
    return contents;  // torn header: empty
  const std::string expected_header = journal_header(spec, total_cells, mode);
  PG_REQUIRE(line == expected_header,
             "journal '" + path +
                 "' belongs to a different sweep (spec fingerprint, shard "
                 "coordinates, grid size, or certify/fault-plan mode "
                 "mismatch) — refusing to resume");
  contents.valid_bytes = line.size() + 1;

  while (std::getline(file, line) && !file.eof()) {
    CellResult row;
    if (!decode_cell_record(line, row)) break;
    const std::uint64_t end = contents.valid_bytes + line.size() + 1;
    contents.rows.push_back(std::move(row));
    contents.valid_bytes = end;
  }
  return contents;
}

JournalWriter::JournalWriter(const std::string& path, const SweepSpec& spec,
                             std::size_t total_cells,
                             std::uint64_t resume_from_bytes,
                             std::string_view mode) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  PG_REQUIRE(fd_ >= 0, "cannot open journal '" + path +
                           "': " + std::strerror(errno));
  PG_REQUIRE(::ftruncate(fd_, static_cast<off_t>(resume_from_bytes)) == 0,
             "cannot truncate journal '" + path +
                 "': " + std::strerror(errno));
  PG_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
             "cannot seek journal '" + path + "'");
  durable_bytes_ = resume_from_bytes;
  if (resume_from_bytes == 0) {
    buffer_ = journal_header(spec, total_cells, mode);
    buffer_ += '\n';
    commit();
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const CellResult& row) {
  buffer_ += encode_cell_record(row);
  buffer_ += '\n';
}

void JournalWriter::commit() {
  // A failed or short append (ENOSPC, quota, I/O error) must not leave a
  // torn record on disk: roll the file back to the last durable commit,
  // then fail the shard loudly.  Resume would detect and truncate a torn
  // tail anyway, but a clean tail means the journal is trustworthy even
  // for tools that read it without the full recovery pass.
  const auto fail = [this](const char* what) {
    const int saved_errno = errno;
    (void)::ftruncate(fd_, static_cast<off_t>(durable_bytes_));
    (void)::fsync(fd_);
    PG_REQUIRE(false, std::string(what) + " (partial append rolled back to " +
                          std::to_string(durable_bytes_) +
                          " durable bytes): " + std::strerror(saved_errno));
  };
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, data, left);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0) fail("journal write failed");
    if (wrote == 0) {
      // write(2) never returns 0 for a non-empty count on a regular
      // file unless the device is out of space in a way that did not
      // set errno; treat it as ENOSPC rather than spinning.
      errno = ENOSPC;
      fail("journal write made no progress");
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  if (::fsync(fd_) != 0) fail("journal fsync failed");
  durable_bytes_ += buffer_.size();
  buffer_.clear();
}

}  // namespace pg::scenario
