// Append-only sweep journal: the crash-recovery log behind
// `sweep --resume` and the row wire format of forked children
// (`--isolate` and `--spawn` alike).
//
// A journaled sweep writes one record per *emitted* row, in emission
// order.  Rows leave the runner in ascending cell_index order, so the
// journal is always a prefix of the shard's cell sequence — resume
// replays that prefix byte-for-byte (every CellResult field a report
// writer reads is serialized, doubles in shortest-round-trip form) and
// restarts execution at the first unjournaled cell.  Each record carries
// an FNV-1a checksum and the file is fsync'd after every emitted group,
// so a SIGKILL can only cost the in-flight group and a torn tail is
// detected and truncated, never replayed.
//
// The header pins the sweep identity (spec fingerprint, shard
// coordinates, grid size): resume refuses a journal written by a
// different sweep instead of silently mixing rows.
//
// The same one-line record format carries rows from forked children back
// to the parent over a pipe — a crashed child leaves at worst a torn
// final line, which the parent detects exactly like a torn journal tail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/runner.hpp"

namespace pg::scenario {

/// One CellResult as a single '\n'-free line (strings escaped, checksum
/// suffix).  Journals and pipes terminate every record with '\n'; a
/// final record without it is torn, however intact its bytes look, and
/// readers drop it.  The solution bitset is not serialized — journaled sweeps
/// stream, and streamed rows have already dropped it.
std::string encode_cell_record(const CellResult& row);

/// Decodes a record line (without trailing newline).  Returns false —
/// leaving `row` unspecified — on any corruption: bad checksum, wrong
/// field count, malformed numbers.
bool decode_cell_record(std::string_view line, CellResult& row);

/// The journal header line for a sweep (also checksummed).  `mode` pins
/// row-semantics toggles that the spec fingerprint cannot see — the
/// certify pass and the canonical network-fault plan — so resume refuses
/// to splice rows produced under a different adversary.
std::string journal_header(const SweepSpec& spec, std::size_t total_cells,
                           std::string_view mode = {});

/// This shard's journal path inside a journal directory.
std::string journal_path(const std::string& dir, const SweepSpec& spec);

struct JournalContents {
  /// Rows of every intact record, in file order.  A corrupt or torn
  /// record ends the scan: later bytes are ignored and re-executed.
  std::vector<CellResult> rows;
  /// Byte offset just past the last intact record (header included) —
  /// the writer truncates here before appending, so a torn tail never
  /// accumulates.
  std::uint64_t valid_bytes = 0;
  bool file_exists = false;
};

/// Reads and validates a journal against the sweep it is resuming.
/// Throws PreconditionViolation when the file exists but belongs to a
/// different sweep (fingerprint/shard/grid mismatch) — a missing file is
/// simply an empty journal, so `--resume` is safe on a fresh directory.
JournalContents read_journal(const std::string& path, const SweepSpec& spec,
                             std::size_t total_cells,
                             std::string_view mode = {});

/// Append-only, fsync'd journal writer over a POSIX fd.
class JournalWriter {
 public:
  /// Creates/truncates (resume_from_bytes == 0) or resumes at a byte
  /// offset (truncating any torn tail past it).  Creates the directory.
  /// Writes the header iff starting from zero.  Throws on I/O errors.
  JournalWriter(const std::string& path, const SweepSpec& spec,
                std::size_t total_cells, std::uint64_t resume_from_bytes,
                std::string_view mode = {});
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one record; commit() makes it durable.
  void append(const CellResult& row);

  /// Writes buffered records and fsyncs.  Called once per emitted group.
  /// On ENOSPC, a short write, or an fsync failure the partial append is
  /// truncated away first — the on-disk tail ends at the last durable
  /// commit, never inside a torn record — and the shard fails with a
  /// PreconditionViolation naming the cause.
  void commit();

 private:
  int fd_ = -1;
  std::uint64_t durable_bytes_ = 0;  // file size as of the last commit
  std::string buffer_;
};

}  // namespace pg::scenario
