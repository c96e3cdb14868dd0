#include "scenario/report.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "scenario/fault.hpp"
#include "scenario/scenario.hpp"
#include "util/hash.hpp"

namespace pg::scenario {

namespace {

/// std::to_chars formatting: locale-independent by the standard's
/// guarantee, so the emitted bytes never depend on the host environment
/// (printf's %g would honor LC_NUMERIC's decimal point, and streaming an
/// integer through operator<< honors the stream's imbued locale — under a
/// grouping locale 100000 renders as "100.000", which corrupts the CSV
/// column count and breaks the shard-merge byte-equality guarantee).
/// Every number a report emits goes through here.
template <typename T, typename... Format>
void append_chars(std::string& out, T value, Format... format) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value, format...);
  out.append(buffer, ec == std::errc{} ? ptr : buffer);
}

template <typename T, typename... Format>
std::string fmt(T value, Format... format) {
  std::string out;
  append_chars(out, value, format...);
  return out;
}

/// `"name": ` — how JSON introduces a field.
void append_json_key(std::string& out, std::string_view name) {
  out += '"';
  out += name;
  out += "\": ";
}

void append_json_text(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// One report cell, typed so that each format renders each kind one way:
///   kind      CSV                JSON
///   kNull     -                  null
///   kInt      digits             digits
///   kFixed    fixed precision    fixed precision
///   kGeneral  %g style           %g style
///   kFlag     1 / 0              true / false
///   kVerdict  yes / no           true / false
///   kText     ',' '\n' '\r'->';' quoted, escaped
struct Value {
  enum class Kind { kNull, kInt, kFixed, kGeneral, kFlag, kVerdict, kText };
  Kind kind = Kind::kNull;
  std::uint64_t word = 0;  // kInt: the bits (of an int64 if is_signed);
                           // kFlag, kVerdict: 0 or 1
  bool is_signed = false;
  double number = 0.0;         // kFixed, kGeneral
  int precision = 0;           // kFixed
  std::string_view text = {};  // kText
};

using Kind = Value::Kind;

constexpr Value null() { return {}; }
template <typename Int>
constexpr Value integer(Int v) {
  return {Kind::kInt, static_cast<std::uint64_t>(v), std::is_signed_v<Int>};
}
constexpr Value fixed(double v, int p) { return {Kind::kFixed, 0, 0, v, p}; }
constexpr Value general(double v) { return {Kind::kGeneral, 0, 0, v}; }
constexpr Value flag(bool on) { return {Kind::kFlag, on}; }
constexpr Value verdict(bool yes) { return {Kind::kVerdict, yes}; }
constexpr Value text(std::string_view t) {
  return {Kind::kText, 0, false, 0.0, 0, t};
}

void append_csv(std::string& out, const Value& v) {
  switch (v.kind) {
    case Kind::kNull: out += '-'; break;
    case Kind::kInt:
      if (v.is_signed)
        append_chars(out, static_cast<std::int64_t>(v.word));
      else
        append_chars(out, v.word);
      break;
    case Kind::kFixed:
      append_chars(out, v.number, std::chars_format::fixed, v.precision);
      break;
    case Kind::kGeneral:  // printf's %g: 6 significant digits, no trailing 0s
      append_chars(out, v.number, std::chars_format::general, 6);
      break;
    case Kind::kFlag: out += v.word ? '1' : '0'; break;
    case Kind::kVerdict: out += v.word ? "yes" : "no"; break;
    case Kind::kText:
      for (char c : v.text)
        out += c == ',' || c == '\n' || c == '\r' ? ';' : c;
      break;
  }
}

void append_json(std::string& out, const Value& v) {
  switch (v.kind) {
    case Kind::kNull: out += "null"; break;
    case Kind::kFlag:
    case Kind::kVerdict: out += v.word ? "true" : "false"; break;
    case Kind::kText: append_json_text(out, v.text); break;
    default: append_csv(out, v);  // numbers render alike in both formats
  }
}

template <typename T, typename ToValue>
void write_json_list(std::ostream& out, const std::vector<T>& values,
                     ToValue to_value) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) list += ',';
    append_json(list, to_value(values[i]));
  }
  out << list << ']';
}

/// The grid-dimension fields of "spec" — everything that determines the
/// cell list, and therefore everything the fingerprint must cover.  Shard
/// coordinates are appended separately by JsonWriter::begin.
void write_spec_dims_json(std::ostream& out, const SweepSpec& spec) {
  const auto number = [](auto v) { return integer(v); };
  out << "\"scenarios\": ";
  write_json_list(out, spec.scenarios, text);
  out << ", \"algorithms\": ";
  write_json_list(out, spec.algorithms, text);
  out << ", \"sizes\": ";
  write_json_list(out, spec.sizes, number);
  out << ", \"powers\": ";
  write_json_list(out, spec.powers, number);
  out << ", \"epsilons\": ";
  write_json_list(out, spec.epsilons, general);
  out << ", \"weightings\": ";
  write_json_list(out, spec.weightings, text);
  out << ", \"seeds\": ";
  write_json_list(out, spec.seeds, number);
  out << ", \"exact_baseline_max_n\": "
      << fmt(spec.exact_baseline_max_n);
}

}  // namespace

std::string spec_fingerprint(const SweepSpec& spec) {
  std::ostringstream canon;
  write_spec_dims_json(canon, spec);
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fnv1a64(canon.str())));
  return std::string(buffer);
}

// ---------------------------------------------------------- column table ---

namespace {

constexpr bool ReportColumns::*kCore = nullptr;

struct Column {
  std::string_view name;
  bool ReportColumns::*group;  // kCore: always emitted
  Value (*get)(const CellResult&);
  bool json_only_on_failure = false;
};

/// Every report column, in emission order.  A new column is one entry
/// here: the CSV header and rows, the JSON rows, the mergers' group
/// detection and the allow-partial placeholders all follow this table.
constexpr Column kColumns[] = {
    {"cell_index", kCore, [](auto& c) { return integer(c.cell_index); }},
    {"scenario", kCore, [](auto& c) { return text(c.spec.scenario); }},
    {"algorithm", kCore, [](auto& c) { return text(c.spec.algorithm); }},
    {"n", kCore, [](auto& c) { return integer(c.spec.n); }},
    {"r", kCore, [](auto& c) { return integer(c.spec.r); }},
    {"epsilon", kCore,
     [](auto& c) {
       return c.spec.epsilon_used ? general(c.spec.epsilon) : null();
     }},
    {"weighting", kCore,
     [](auto& c) {
       return c.spec.weights_used ? text(c.spec.weighting) : null();
     }},
    {"seed", kCore, [](auto& c) { return integer(c.spec.seed); }},
    {"status", kCore, [](auto& c) { return text(cell_status_name(c.status)); }},
    {"base_edges", kCore, [](auto& c) { return integer(c.base_edges); }},
    {"comm_power", kCore, [](auto& c) { return integer(c.comm_power); }},
    {"comm_edges", kCore, [](auto& c) { return integer(c.comm_edges); }},
    {"target_edges", kCore, [](auto& c) { return integer(c.target_edges); }},
    {"solution_size", kCore, [](auto& c) { return integer(c.solution_size); }},
    {"solution_weight", kCore,
     [](auto& c) { return integer(c.solution_weight); }},
    {"feasible", kCore, [](auto& c) { return flag(c.feasible); }},
    {"exact", kCore, [](auto& c) { return flag(c.exact); }},
    {"rounds", kCore, [](auto& c) { return integer(c.rounds); }},
    {"messages", kCore, [](auto& c) { return integer(c.messages); }},
    {"total_bits", kCore, [](auto& c) { return integer(c.total_bits); }},
    {"baseline", kCore,
     [](auto& c) { return text(baseline_kind_name(c.baseline)); }},
    {"baseline_size", kCore, [](auto& c) { return integer(c.baseline_size); }},
    {"ratio", kCore,
     [](auto& c) {
       return c.baseline == BaselineKind::kNone ? null() : fixed(c.ratio, 4);
     }},
    // The weighted oracle gets its own kind/value columns: it succeeds or
    // downgrades independently of the size oracle, and a ratio_weight
    // without them would read as exact-relative when the weighted solve
    // actually fell back to greedy.
    {"weight_baseline", kCore,
     [](auto& c) { return text(baseline_kind_name(c.weight_baseline)); }},
    {"baseline_weight", kCore,
     [](auto& c) { return integer(c.baseline_weight); }},
    {"ratio_weight", kCore,
     [](auto& c) {
       return c.weight_baseline == BaselineKind::kNone
                  ? null()
                  : fixed(c.ratio_weight, 4);
     }},
    // Empty on rows that never built a topology (failed/missing before the
    // group opened); the classification itself is a pure function of the
    // topology, so the bytes stay deterministic.
    {"regime", &ReportColumns::classify,
     [](auto& c) { return c.regime.empty() ? null() : text(c.regime); }},
    {"regime_alpha", &ReportColumns::classify,
     [](auto& c) {
       return c.regime.empty() ? null() : fixed(c.regime_alpha, 3);
     }},
    // Failed/timeout/missing rows never reached the independent re-check.
    {"certified", &ReportColumns::certify,
     [](auto& c) {
       return c.status == CellStatus::kOk           ? verdict(true)
              : c.status == CellStatus::kUnverified ? verdict(false)
                                                    : null();
     }},
    {"msgs_dropped", &ReportColumns::faults,
     [](auto& c) { return integer(c.msgs_dropped); }},
    {"msgs_corrupted", &ReportColumns::faults,
     [](auto& c) { return integer(c.msgs_corrupted); }},
    {"nodes_crashed", &ReportColumns::faults,
     [](auto& c) { return integer(c.nodes_crashed); }},
    {"rounds_survived", &ReportColumns::faults,
     [](auto& c) { return integer(c.rounds_survived); }},
    {"wall_ms", &ReportColumns::timing,
     [](auto& c) { return fixed(c.wall_ms, 3); }},
    {"error", kCore, [](auto& c) { return text(c.error); },
     /*json_only_on_failure=*/true},
};

bool emitted(const Column& column, const ReportColumns& columns) {
  return column.group == kCore || columns.*column.group;
}

/// The opt-in groups under the names JSON shard stamps give them, in
/// stamp order.  "timing" is always stamped (true/false), the others only
/// when on, so reports written before a group existed keep their bytes.
struct GroupName {
  bool ReportColumns::*group;
  std::string_view name;
};
constexpr GroupName kGroupNames[] = {{&ReportColumns::timing, "timing"},
                                     {&ReportColumns::certify, "certify"},
                                     {&ReportColumns::faults, "faults"},
                                     {&ReportColumns::classify, "classify"}};

std::string csv_header(const ReportColumns& columns) {
  std::string header;
  for (const Column& column : kColumns) {
    if (!emitted(column, columns)) continue;
    if (!header.empty()) header += ',';
    header += column.name;
  }
  return header;
}

}  // namespace

ReportColumns report_columns(const SweepSpec& spec, const ExecOptions& exec,
                             bool timing, bool classify) {
  const FaultPlan* faults =
      exec.fault_plan != nullptr ? exec.fault_plan : FaultPlan::from_env();
  ReportColumns columns{classify, exec.certify,
                        faults != nullptr && faults->has_net_faults(), timing};
  for (const std::string& s : spec.scenarios)
    if (is_file_scenario(s)) columns.classify = true;
  return columns;
}

// ------------------------------------------------------------------- CSV ---

void CsvWriter::begin(const SweepSpec& spec, std::size_t total_cells) {
  if (spec.shard_count > 1)
    out_ << "# shard " << fmt(spec.shard_index) << '/'
         << fmt(spec.shard_count) << " cells " << fmt(total_cells)
         << " spec " << spec_fingerprint(spec) << '\n';
  out_ << csv_header(columns_) << '\n';
}

void CsvWriter::row(const CellResult& cell) {
  line_.clear();
  for (const Column& column : kColumns) {
    if (!emitted(column, columns_)) continue;
    if (&column != kColumns) line_ += ',';
    append_csv(line_, column.get(cell));
  }
  line_ += '\n';
  out_ << line_;
}

void write_csv(std::ostream& out, const SweepResult& result,
               bool include_timing) {
  CsvWriter writer(out, include_timing);
  writer.begin(result.spec,
               result.total_cells ? result.total_cells : result.cells.size());
  for (const CellResult& cell : result.cells) writer.row(cell);
}

// ------------------------------------------------------------------ JSON ---

void JsonWriter::begin(const SweepSpec& spec, std::size_t total_cells) {
  out_ << "{\n  \"spec\": {";
  write_spec_dims_json(out_, spec);
  if (spec.shard_count > 1) {
    out_ << ", \"shard_index\": " << fmt(spec.shard_index)
         << ", \"shard_count\": " << fmt(spec.shard_count)
         << ", \"total_cells\": " << fmt(total_cells);
    for (const GroupName& g : kGroupNames)
      if (columns_.*g.group || g.group == &ReportColumns::timing)
        out_ << ", \"" << g.name << "\": "
             << (columns_.*g.group ? "true" : "false");
    out_ << ", \"spec_fingerprint\": \"" << spec_fingerprint(spec) << '"';
  }
  out_ << "},\n  \"cells\": [";
  first_row_ = true;
}

void JsonWriter::row(const CellResult& cell) {
  line_ = first_row_ ? "\n    {" : ",\n    {";
  first_row_ = false;
  for (const Column& column : kColumns) {
    if (!emitted(column, columns_) ||
        (column.json_only_on_failure && cell.status == CellStatus::kOk))
      continue;
    if (&column != kColumns) line_ += ", ";
    append_json_key(line_, column.name);
    append_json(line_, column.get(cell));
  }
  line_ += '}';
  out_ << line_;
}

void JsonWriter::end(double peak_rss_mb) {
  out_ << "\n  ]";
  if (columns_.timing && peak_rss_mb >= 0.0)
    out_ << ",\n  \"meta\": {\"peak_rss_mb\": "
         << fmt(peak_rss_mb, std::chars_format::fixed, 1) << '}';
  out_ << "\n}\n";
}

void write_json(std::ostream& out, const SweepResult& result,
                bool include_timing) {
  JsonWriter writer(out, include_timing);
  writer.begin(result.spec,
               result.total_cells ? result.total_cells : result.cells.size());
  for (const CellResult& cell : result.cells) writer.row(cell);
  writer.end();
}

std::string csv_string(const SweepResult& result, bool include_timing) {
  std::ostringstream out;
  write_csv(out, result, include_timing);
  return out.str();
}

std::string json_string(const SweepResult& result, bool include_timing) {
  std::ostringstream out;
  write_json(out, result, include_timing);
  return out.str();
}

// ----------------------------------------------------------------- merge ---

namespace {

[[noreturn]] void merge_fail(const std::string& what) {
  throw PreconditionViolation("merge: " + what);
}

std::uint64_t parse_u64(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr == text.data())
    merge_fail(std::string("cannot parse ") + what);
  return value;
}

struct ShardStamp {
  int index = 0;
  int count = 0;
  std::uint64_t total_cells = 0;
  // The fingerprint plus any row-shape modifiers (the JSON merger appends
  // the opt-in groups; the CSV merger covers them via its header check).
  std::string fingerprint;
};

/// Bounds-checked narrowing for stamp fields parsed from untrusted files:
/// without it a corrupted count like 4294967297 would wrap in the int
/// cast and mis-validate (or blow up the seen-vector allocation below).
/// 1e6 matches the CLI's --shard cap.
int checked_shard_int(std::uint64_t value, const char* what) {
  if (value < 1 || value > 1'000'000)
    merge_fail(std::string(what) + " " + std::to_string(value) +
               " out of range [1, 1000000]");
  return static_cast<int>(value);
}

/// One parsed per-shard report: its stamp plus (cell_index, payload) rows.
struct ShardRows {
  ShardStamp stamp;
  std::vector<std::pair<std::uint64_t, std::string>> rows;
};

/// Shared tail of both mergers: validate that the stamps form one
/// complete partition (same spec, same shard count, every shard exactly
/// once) and that the combined rows cover cell indices 0..total-1.
/// Returns all rows sorted by cell index.  With `allow_partial`, missing
/// shards and uncovered cells are filled via `make_missing_row` instead
/// of failing; duplicates and spec disagreements still fail.
std::vector<std::pair<std::uint64_t, std::string>> validate_and_sort(
    std::vector<ShardRows>&& shards, bool allow_partial,
    const std::function<std::string(std::uint64_t)>& make_missing_row) {
  if (shards.empty()) merge_fail("no shard reports given");
  const ShardStamp& head = shards.front().stamp;
  std::vector<bool> seen(static_cast<std::size_t>(head.count), false);
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  for (const ShardRows& shard : shards) {
    const ShardStamp& s = shard.stamp;
    if (s.count != head.count || s.total_cells != head.total_cells ||
        s.fingerprint != head.fingerprint)
      merge_fail("shard reports disagree on the sweep spec");
    if (s.index < 1 || s.index > s.count)
      merge_fail("shard index " + std::to_string(s.index) +
                 " out of range for " + std::to_string(s.count) + " shards");
    if (seen[static_cast<std::size_t>(s.index - 1)])
      merge_fail("duplicate shard " + std::to_string(s.index) + "/" +
                 std::to_string(s.count));
    seen[static_cast<std::size_t>(s.index - 1)] = true;
    for (auto& row : shard.rows) rows.push_back(std::move(row));
  }
  if (!allow_partial)
    for (int i = 0; i < head.count; ++i)
      if (!seen[static_cast<std::size_t>(i)])
        merge_fail("missing shard " + std::to_string(i + 1) + "/" +
                   std::to_string(head.count));
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!allow_partial && rows.size() != head.total_cells)
    merge_fail("rows do not cover the grid: got " +
               std::to_string(rows.size()) + " of " +
               std::to_string(head.total_cells) + " cells");

  // A gap becomes a status=missing placeholder in partial mode: incomplete
  // is fine there, but inconsistent (duplicate or out-of-range cells)
  // never is.
  std::vector<std::pair<std::uint64_t, std::string>> full;
  full.reserve(static_cast<std::size_t>(head.total_cells));
  std::size_t at = 0;
  for (std::uint64_t t = 0; t < head.total_cells; ++t) {
    if (at < rows.size() && rows[at].first == t) {
      full.push_back(std::move(rows[at]));
      ++at;
      if (at < rows.size() && rows[at].first == t)
        merge_fail("rows do not cover the grid: cell " + std::to_string(t) +
                   " duplicated");
    } else if (allow_partial) {
      full.emplace_back(t, make_missing_row(t));
    } else {
      merge_fail("rows do not cover the grid: cell " + std::to_string(t) +
                 " missing");
    }
  }
  if (at != rows.size())
    merge_fail("cell index " + std::to_string(rows[at].first) +
               " out of range for " + std::to_string(head.total_cells) +
               " cells");
  return full;
}

constexpr std::string_view kCsvStampPrefix = "# shard ";

ShardStamp parse_csv_stamp(std::string_view line) {
  // "# shard I/K cells N spec H"
  if (line.substr(0, kCsvStampPrefix.size()) != kCsvStampPrefix)
    merge_fail(
        "input is not a shard report (expected a '# shard i/k …' first "
        "line; single-process sweeps need no merge)");
  ShardStamp stamp;
  std::string_view rest = line.substr(kCsvStampPrefix.size());
  const auto slash = rest.find('/');
  const auto cells_kw = rest.find(" cells ");
  const auto spec_kw = rest.find(" spec ");
  if (slash == std::string_view::npos || cells_kw == std::string_view::npos ||
      spec_kw == std::string_view::npos || slash > cells_kw ||
      cells_kw > spec_kw)
    merge_fail("malformed shard stamp line");
  stamp.index =
      checked_shard_int(parse_u64(rest.substr(0, slash), "shard index"),
                        "shard index");
  stamp.count = checked_shard_int(
      parse_u64(rest.substr(slash + 1, cells_kw - slash - 1), "shard count"),
      "shard count");
  stamp.total_cells =
      parse_u64(rest.substr(cells_kw + 7, spec_kw - cells_kw - 7),
                "grid cell count");
  stamp.fingerprint = std::string(rest.substr(spec_kw + 6));
  return stamp;
}

/// The opt-in groups whose columns a CSV header names.  Refuses a header
/// the column table does not reproduce: its placeholder rows would not
/// match the shape of the real ones.
ReportColumns columns_of_header(std::string_view header) {
  ReportColumns columns;
  for (std::size_t from = 0; from <= header.size();) {
    const std::size_t comma = std::min(header.find(',', from), header.size());
    for (const Column& column : kColumns)
      if (column.group != kCore &&
          column.name == header.substr(from, comma - from))
        columns.*column.group = true;
    from = comma + 1;
  }
  if (csv_header(columns) != header)
    merge_fail("unrecognized CSV header '" + std::string(header) + "'");
  return columns;
}

}  // namespace

CellResult missing_cell(std::uint64_t index) {
  CellResult cell;
  cell.cell_index = index;
  cell.spec.scenario = "-";
  cell.spec.algorithm = "-";
  cell.spec.n = 0;
  cell.spec.r = 0;
  cell.spec.epsilon_used = false;
  cell.spec.weights_used = false;
  cell.spec.seed = 0;
  cell.status = CellStatus::kMissing;
  cell.error = "no shard report covered this cell";
  return cell;
}

std::string merge_csv(const std::vector<std::string>& shard_reports,
                      bool allow_partial) {
  std::vector<ShardRows> shards;
  std::string header;
  for (const std::string& report : shard_reports) {
    ShardRows shard;
    std::istringstream in(report);
    std::string line;
    if (!std::getline(in, line)) merge_fail("empty shard report");
    shard.stamp = parse_csv_stamp(line);
    if (!std::getline(in, line)) merge_fail("shard report has no CSV header");
    if (header.empty())
      header = line;
    else if (line != header)
      merge_fail("shard reports disagree on the CSV header");
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto comma = line.find(',');
      if (comma == std::string::npos)
        merge_fail("malformed CSV row '" + line + "'");
      const std::uint64_t index =
          parse_u64(std::string_view(line).substr(0, comma), "cell index");
      shard.rows.emplace_back(index, std::move(line));
    }
    shards.push_back(std::move(shard));
  }

  // The shards' shared header says which opt-in groups rows carry;
  // synthesized placeholders must match its shape.
  const ReportColumns columns = columns_of_header(header);
  const auto rows = validate_and_sort(
      std::move(shards), allow_partial, [&](std::uint64_t index) {
        std::ostringstream row;
        CsvWriter(row, columns).row(missing_cell(index));
        std::string text = row.str();
        text.pop_back();  // the newline
        return text;
      });
  std::string out = header + '\n';
  for (const auto& [index, line] : rows) {
    out += line;
    out += '\n';
  }
  return out;
}

namespace {

constexpr std::string_view kJsonSpecOpen = "{\n  \"spec\": {";
constexpr std::string_view kJsonCellsOpen = "},\n  \"cells\": [";
constexpr std::string_view kJsonTail = "\n  ]\n}\n";
constexpr std::string_view kJsonShardKey = ", \"shard_index\": ";

/// Extracts `"key": <digits>` from a spec fragment.
std::uint64_t json_field_u64(std::string_view text, std::string_view key) {
  const auto at = text.find(key);
  if (at == std::string_view::npos)
    merge_fail("shard stamp lacks " + std::string(key));
  std::string_view rest = text.substr(at + key.size());
  std::size_t end = 0;
  while (end < rest.size() && rest[end] >= '0' && rest[end] <= '9') ++end;
  return parse_u64(rest.substr(0, end), std::string(key).c_str());
}

}  // namespace

std::string merge_json(const std::vector<std::string>& shard_reports,
                       bool allow_partial) {
  std::string index_key;
  append_json_key(index_key, kColumns[0].name);
  std::vector<ShardRows> shards;
  std::string spec_dims;  // the spec body minus the shard stamp fields
  ReportColumns columns;  // all shards agree (the fingerprint folds it)
  for (const std::string& report : shard_reports) {
    if (report.substr(0, kJsonSpecOpen.size()) != kJsonSpecOpen)
      merge_fail("input is not a sweep JSON report");
    const auto cells_at = report.find(kJsonCellsOpen);
    if (cells_at == std::string_view::npos)
      merge_fail("input is not a sweep JSON report");
    const std::string_view spec_body = std::string_view(report).substr(
        kJsonSpecOpen.size(), cells_at - kJsonSpecOpen.size());

    const auto shard_at = spec_body.find(kJsonShardKey);
    if (shard_at == std::string_view::npos)
      merge_fail(
          "input is not a shard report (its spec has no shard fields; "
          "single-process sweeps need no merge)");
    const std::string dims(spec_body.substr(0, shard_at));
    const std::string_view stamp_text = spec_body.substr(shard_at);
    if (spec_dims.empty())
      spec_dims = dims;
    else if (dims != spec_dims)
      merge_fail("shard reports disagree on the sweep spec");

    ShardRows shard;
    shard.stamp.index = checked_shard_int(
        json_field_u64(stamp_text, "\"shard_index\": "), "shard index");
    shard.stamp.count = checked_shard_int(
        json_field_u64(stamp_text, "\"shard_count\": "), "shard count");
    shard.stamp.total_cells = json_field_u64(stamp_text, "\"total_cells\": ");
    const auto fp_at = stamp_text.find("\"spec_fingerprint\": \"");
    if (fp_at == std::string_view::npos)
      merge_fail("shard stamp lacks \"spec_fingerprint\"");
    const auto fp_from = fp_at + 21;
    const auto fp_to = stamp_text.find('"', fp_from);
    if (fp_to == std::string_view::npos)
      merge_fail("malformed spec_fingerprint");
    shard.stamp.fingerprint =
        std::string(stamp_text.substr(fp_from, fp_to - fp_from));
    // Shards written with different opt-in groups have differently shaped
    // rows; fold the groups into the identity so they refuse to merge
    // instead of producing a ragged cells array.
    for (const GroupName& g : kGroupNames) {
      std::string key;
      append_json_key(key, g.name);
      const bool on = stamp_text.find(key + "true") != std::string_view::npos;
      if (g.group == &ReportColumns::timing && !on &&
          stamp_text.find(key + "false") == std::string_view::npos)
        merge_fail("shard stamp lacks \"" + std::string(g.name) + "\"");
      columns.*g.group = on;
      if (on) shard.stamp.fingerprint += "+" + std::string(g.name);
    }

    // The cells array closes with "\n  ]"; after it comes either the
    // document tail or an optional (timing-mode) ",\n  \"meta\": {…}"
    // block, which per-shard writers emit for peak-RSS accounting.  Meta
    // is host-dependent by construction, so the merger validates its
    // shape and strips it — the merged report stays byte-stable.
    const auto cells_close = report.rfind("\n  ]");
    if (cells_close == std::string::npos ||
        cells_close < cells_at + kJsonCellsOpen.size())
      merge_fail("truncated JSON shard report");
    const std::string_view after_cells =
        std::string_view(report).substr(cells_close + 4);
    if (after_cells != "\n}\n") {
      constexpr std::string_view kMetaOpen = ",\n  \"meta\": {";
      if (after_cells.substr(0, kMetaOpen.size()) != kMetaOpen ||
          after_cells.substr(after_cells.size() -
                             std::min<std::size_t>(after_cells.size(), 4)) !=
              "}\n}\n")
        merge_fail("truncated JSON shard report");
    }
    std::string_view cells = std::string_view(report).substr(
        cells_at + kJsonCellsOpen.size(),
        cells_close - cells_at - kJsonCellsOpen.size());
    while (!cells.empty()) {
      // Rows look like "\n    {...}" separated by commas.
      std::size_t next = cells.find(",\n    {", 1);
      std::string_view cell =
          next == std::string_view::npos ? cells : cells.substr(0, next);
      const std::uint64_t index = json_field_u64(cell, index_key);
      if (cell.substr(0, 1) == "\n") cell.remove_prefix(1);
      shard.rows.emplace_back(index, std::string(cell));
      if (next == std::string_view::npos) break;
      cells.remove_prefix(next + 1);  // drop the comma, keep "\n    {"
    }
    shards.push_back(std::move(shard));
  }

  const auto rows = validate_and_sort(
      std::move(shards), allow_partial, [&](std::uint64_t index) {
        std::ostringstream row;
        JsonWriter(row, columns).row(missing_cell(index));
        return row.str().substr(1);  // drop the first row's leading "\n"
      });
  std::string out;
  out += kJsonSpecOpen;
  out += spec_dims;
  out += kJsonCellsOpen;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += rows[i].second;
  }
  out += kJsonTail;
  return out;
}

}  // namespace pg::scenario
