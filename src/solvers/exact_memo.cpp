#include "solvers/exact_memo.hpp"

#include <algorithm>
#include <array>

namespace pg::solvers::detail {

namespace {

struct Entry {
  std::vector<std::uint64_t> key;  // empty while the slot is free
  std::uint64_t hash = 0;
  std::int64_t budget = 0;
  ExactResult result;
};

/// A FIFO ring of kMemoEntries slots.  Slots keep no spare capacity: a
/// store moves the caller's key block in and copies the result into a
/// fresh block, and an eviction frees both, so what a call allocates
/// never depends on which slots were in use before.
class Memo {
 public:
  const ExactResult* find(std::span<const std::uint64_t> key,
                          std::uint64_t hash, std::int64_t budget) const {
    for (const Entry& e : slots_) {
      if (e.hash != hash || e.key.size() != key.size()) continue;
      const bool replays =
          e.budget == budget ||
          (e.result.optimal && e.result.nodes_explored <= budget);
      if (replays && std::equal(key.begin(), key.end(), e.key.begin()))
        return &e.result;
    }
    return nullptr;
  }

  void store(std::vector<std::uint64_t> key, std::uint64_t hash,
             std::int64_t budget, const ExactResult& result) {
    const std::size_t bytes = key.size() * sizeof(std::uint64_t);
    if (bytes > kMemoKeyBytes) return;
    while (count_ == kMemoEntries || bytes_ + bytes > kMemoKeyBytes)
      evict_oldest();
    Entry& e = slots_[next_];
    e.key = std::move(key);
    e.hash = hash;
    e.budget = budget;
    e.result = ExactResult(result);
    bytes_ += bytes;
    next_ = (next_ + 1) % kMemoEntries;
    ++count_;
  }

  void clear() {
    while (count_ > 0) evict_oldest();
  }

  std::size_t entries() const { return count_; }
  std::size_t key_bytes() const { return bytes_; }

 private:
  void evict_oldest() {
    Entry& e = slots_[(next_ + kMemoEntries - count_) % kMemoEntries];
    bytes_ -= e.key.size() * sizeof(std::uint64_t);
    e = Entry{};
    --count_;
  }

  std::array<Entry, kMemoEntries> slots_;
  std::size_t next_ = 0;   // the slot the next store fills
  std::size_t count_ = 0;  // occupied slots, ending just before next_
  std::size_t bytes_ = 0;  // key bytes held
};

thread_local Memo tl_memo;
thread_local std::int64_t tl_searches = 0;

}  // namespace

const ExactResult* memo_find(std::span<const std::uint64_t> key,
                             std::uint64_t hash, std::int64_t budget) {
  return tl_memo.find(key, hash, budget);
}

void memo_store(std::vector<std::uint64_t> key, std::uint64_t hash,
                std::int64_t budget, const ExactResult& result) {
  tl_memo.store(std::move(key), hash, budget, result);
}

std::uint64_t memo_hash(std::span<const std::uint64_t> key) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
  for (const std::uint64_t w : key) {
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

void note_search() { ++tl_searches; }

std::int64_t ExactMemoSeam::searches() { return tl_searches; }
std::size_t ExactMemoSeam::entries() { return tl_memo.entries(); }
std::size_t ExactMemoSeam::key_bytes() { return tl_memo.key_bytes(); }
void ExactMemoSeam::clear() { tl_memo.clear(); }

}  // namespace pg::solvers::detail
