// Per-thread memo in front of the exact branch-and-bound solvers.
//
// A sweep solves the same exact instance more than once: an oracle row's
// baseline, the naive algorithms' full gather and the leaders' remainder H
// often hand the solver byte-identical input.  The search is deterministic
// (same instance and node budget: same nodes, same solution bits), so a
// repeat can return the stored result instead of searching again.
//
// Rules, which the exact_vc.hpp / exact_ds.hpp contracts repeat:
//  * The key is the instance's exact bytes, flattened to words by the
//    caller: topology or coverage, weights or costs, decision target.  A
//    64-bit hash rejects mismatches quickly; a full compare decides.
//  * A stored result serves a call when the key matches and either the
//    node budget is the same, or the stored search completed (`optimal`)
//    within the new budget.  Those are exactly the calls whose search
//    would replay identically.
//  * A hit returns the stored ExactResult verbatim, nodes_explored
//    included.  A solve that throws stores nothing.
//  * State is per thread (no locks, nothing shared) and bounded: at most
//    kMemoEntries entries and kMemoKeyBytes key bytes, evicted oldest
//    first.  A key larger than the byte cap bypasses the memo.
//  * A call allocates the same amount whatever the budget and the memo's
//    state: one key block, plus one result copy on a hit or a store.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "solvers/exact_vc.hpp"  // ExactResult
#include "util/cancel.hpp"

namespace pg::solvers::detail {

inline constexpr std::size_t kMemoEntries = 32;
inline constexpr std::size_t kMemoKeyBytes = std::size_t{1} << 20;

/// Builds one memo key in a block sized up front (one allocation).  A key
/// whose size would exceed kMemoKeyBytes is not enabled(): the caller
/// fills nothing in and the call bypasses the memo.
class MemoKey {
 public:
  explicit MemoKey(std::size_t num_words)
      : enabled_(num_words * sizeof(std::uint64_t) <= kMemoKeyBytes) {
    if (enabled_) words_.reserve(num_words);
  }

  bool enabled() const { return enabled_; }

  void put(std::uint64_t word) { words_.push_back(word); }

  /// Appends `values` as raw bytes, zero-padded to a whole word.
  template <typename T>
  void put_bytes(std::span<const T> values) {
    if (values.empty()) return;
    const std::size_t at = words_.size();
    words_.resize(at + words_for<T>(values.size()), 0);
    std::memcpy(words_.data() + at, values.data(), values.size_bytes());
  }

  /// Words that put_bytes spends on `count` values of type T.
  template <typename T>
  static std::size_t words_for(std::size_t count) {
    return (count * sizeof(T) + sizeof(std::uint64_t) - 1) /
           sizeof(std::uint64_t);
  }

  std::vector<std::uint64_t>& words() { return words_; }

 private:
  bool enabled_;
  std::vector<std::uint64_t> words_;
};

/// The stored result that serves (`key`, `budget`), or nullptr.
const ExactResult* memo_find(std::span<const std::uint64_t> key,
                             std::uint64_t hash, std::int64_t budget);

/// Stores `result` under `key`, evicting the oldest entries to make room.
void memo_store(std::vector<std::uint64_t> key, std::uint64_t hash,
                std::int64_t budget, const ExactResult& result);

std::uint64_t memo_hash(std::span<const std::uint64_t> key);

/// Counts one search actually run on this thread (see ExactMemoSeam).
void note_search();

/// Serves `solve()` for the instance `key` under `budget`: the stored
/// result when one applies, else a fresh search that is then stored.
template <typename Solve>
ExactResult memoized(MemoKey key, std::int64_t budget, Solve&& solve) {
  if (!key.enabled()) {
    note_search();
    return solve();
  }
  const std::uint64_t hash = memo_hash(key.words());
  if (const ExactResult* hit = memo_find(key.words(), hash, budget)) {
    cancel::poll();  // the watchdog point the replayed root would have hit
    return *hit;
  }
  note_search();
  ExactResult result = solve();
  memo_store(std::move(key.words()), hash, budget, result);
  return result;
}

/// Test-only view of the calling thread's memo (no public option reaches
/// it): tests assert which calls searched and that the bounds hold.
struct ExactMemoSeam {
  /// Searches run on this thread so far (memo misses and bypasses).
  static std::int64_t searches();
  static std::size_t entries();
  static std::size_t key_bytes();
  /// Empties this thread's memo.
  static void clear();
};

}  // namespace pg::solvers::detail
