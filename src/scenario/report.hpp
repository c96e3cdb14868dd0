// Deterministic serialization of sweep results.
//
// Both formats are byte-stable: identical specs produce identical bytes
// regardless of repetition, worker count, or host, because every emitted
// field is a deterministic function of the spec (wall-clock measurements
// and the thread count are excluded unless `include_timing` is set, which
// is documented to break byte-stability).
//
// Streaming: the writers emit row-by-row so the runner never has to hold
// a sweep in memory — `begin()`, then one `row()` per cell in grid order,
// then (JSON only) `end()`.  The whole-result `write_csv`/`write_json`
// functions are thin wrappers for callers that already hold a
// SweepResult.
//
// Sharding: when the spec is a shard (shard_count > 1) the writers stamp
// the output with the shard coordinates, the full grid's cell count, and
// a fingerprint of the spec — a CSV `# shard i/k …` comment line, or
// extra spec fields in JSON.  `merge_csv`/`merge_json` consume one such
// report per shard, validate that they belong together and cover the
// grid exactly, and reproduce the single-process report byte for byte.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace pg::scenario {

/// 16-hex-digit digest of the sweep's grid dimensions (scenarios,
/// algorithms, sizes, powers, epsilons, weightings, seeds,
/// exact_baseline_max_n — not threads or shard coordinates).  Shard
/// reports carry it so `merge` can refuse shards of different sweeps.
std::string spec_fingerprint(const SweepSpec& spec);

/// The opt-in column groups of a report; the core columns are always
/// emitted.  Each group is off by default so default reports keep their
/// historic bytes.
struct ReportColumns {
  bool classify = false;  // regime,regime_alpha
  bool certify = false;   // certified
  bool faults = false;    // msgs_dropped,msgs_corrupted,nodes_crashed,
                          // rounds_survived
  bool timing = false;    // wall_ms — breaks byte-stability
};

/// Chooses a sweep's column groups once, for every writer, shard child
/// and journal-backed resume alike: certify from `exec.certify`; faults
/// when the active fault plan (`exec.fault_plan`, else $PG_FAULT_PLAN)
/// has network directives; classify when asked for or when any scenario
/// is file:-backed (real graphs are about their degree regime); timing
/// when asked for.
ReportColumns report_columns(const SweepSpec& spec, const ExecOptions& exec,
                             bool timing, bool classify);

/// One row per cell, one column per entry of the column table in
/// report.cpp (a new column is one line there), in table order:
/// cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,
/// base_edges,comm_power,comm_edges,target_edges,solution_size,
/// solution_weight,feasible,exact,rounds,messages,total_bits,baseline,
/// baseline_size,ratio,weight_baseline,baseline_weight,ratio_weight
/// [,regime,regime_alpha][,certified]
/// [,msgs_dropped,msgs_corrupted,nodes_crashed,rounds_survived]
/// [,wall_ms],error.  The two oracles report their kinds separately
/// (baseline vs weight_baseline) because they succeed or downgrade
/// independently.  certified is yes for a row that survived the
/// independent re-check, no for one demoted to unverified, "-" for rows
/// that never reached certification.
/// "-" marks a value that does not apply: epsilon/weighting for
/// algorithms that ignore them, ratio/ratio_weight without a baseline,
/// regime/regime_alpha on rows that never built a topology.  Flags are
/// 0/1; error is empty on success; commas/newlines inside any string are
/// replaced by ';'.  All numbers are formatted locale-independently
/// (std::to_chars), so the bytes — and the shard-merge equality they
/// guarantee — cannot depend on the host's LC_NUMERIC.
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, ReportColumns columns)
      : out_(out), columns_(columns) {}
  explicit CsvWriter(std::ostream& out, bool include_timing = false,
                     bool certify = false, bool faults = false,
                     bool classify = false)
      : CsvWriter(out, ReportColumns{classify, certify, faults,
                                     include_timing}) {}

  /// Shard stamp (`# shard i/k cells N spec H`, only when spec.shard_count
  /// > 1) followed by the header row.  `total_cells` is the full grid's
  /// cell count across all shards.
  void begin(const SweepSpec& spec, std::size_t total_cells);
  void row(const CellResult& cell);

 private:
  std::ostream& out_;
  ReportColumns columns_;
  std::string line_;
};

/// {"spec": {...}, "cells": [...]} with the same columns as the CSV; "-"
/// becomes null, flags and verdicts become true/false, and `error` is
/// omitted on ok rows.  Sharded specs add shard_index/shard_count/
/// total_cells/timing, the other opt-in groups that are on, and
/// spec_fingerprint to "spec".
class JsonWriter {
 public:
  JsonWriter(std::ostream& out, ReportColumns columns)
      : out_(out), columns_(columns) {}
  explicit JsonWriter(std::ostream& out, bool include_timing = false,
                      bool certify = false, bool faults = false,
                      bool classify = false)
      : JsonWriter(out, ReportColumns{classify, certify, faults,
                                      include_timing}) {}

  void begin(const SweepSpec& spec, std::size_t total_cells);
  void row(const CellResult& cell);
  /// Closes the document.  A non-negative `peak_rss_mb` adds a trailing
  /// `"meta": {"peak_rss_mb": …}` block — but only when the writer was
  /// opened with include_timing, because peak RSS is as host-dependent as
  /// wall clock and must never enter the byte-stable output.  Mergers
  /// accept and strip the block.
  void end(double peak_rss_mb = -1.0);

 private:
  std::ostream& out_;
  ReportColumns columns_;
  std::string line_;
  bool first_row_ = true;
};

void write_csv(std::ostream& out, const SweepResult& result,
               bool include_timing = false);
void write_json(std::ostream& out, const SweepResult& result,
                bool include_timing = false);

std::string csv_string(const SweepResult& result, bool include_timing = false);
std::string json_string(const SweepResult& result,
                        bool include_timing = false);

/// Merges per-shard CSV reports (file *contents*, any order) back into
/// the byte-identical single-process report.  Throws
/// PreconditionViolation when the inputs are not shard reports, disagree
/// on the spec (fingerprint, headers, shard count, grid size), repeat or
/// miss a shard, or their rows do not cover the grid exactly.
///
/// With `allow_partial`, missing shards and uncovered cells stop being
/// errors: every grid cell no given report covers becomes a placeholder
/// row with status=missing (scenario/algorithm "-", zero metrics, error
/// explaining the gap), so a sweep whose shard died still yields one
/// complete, grid-shaped report.  Duplicate shards, duplicate cells, and
/// spec disagreements are still rejected — partial means incomplete, not
/// inconsistent.
std::string merge_csv(const std::vector<std::string>& shard_reports,
                      bool allow_partial = false);

/// Same for JSON shard reports.
std::string merge_json(const std::vector<std::string>& shard_reports,
                       bool allow_partial = false);

}  // namespace pg::scenario
