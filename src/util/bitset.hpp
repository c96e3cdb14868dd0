// Dynamic fixed-capacity bitset used by the exact solvers, where adjacency
// and coverage sets over a few thousand vertices must support fast
// union / intersection / subset tests.
//
// Up to 4 words (256 bits) live inside the object, so copying or
// constructing a small bitset never touches the heap; larger bitsets keep
// their words in one heap block.  This is what lets the branch-and-bound
// kernels copy their per-node state freely on every instance of at most
// 256 vertices.  The "common" helpers (first_common, for_each_common,
// intersects, or_and) read two or three bitsets word by word, so callers
// never materialize a temporary intersection.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace pg {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits) : bits_(bits) {
    if (on_heap()) heap_ = new std::uint64_t[num_words()];
    std::fill_n(data(), num_words(), 0);
  }

  Bitset(const Bitset& other) : bits_(other.bits_) {
    if (on_heap()) heap_ = new std::uint64_t[num_words()];
    std::copy_n(other.data(), num_words(), data());
  }
  Bitset(Bitset&& other) noexcept { swap(*this, other); }
  Bitset& operator=(const Bitset& other) {
    if (num_words() != other.num_words()) {
      Bitset copy(other);
      swap(*this, copy);
    } else if (this != &other) {
      bits_ = other.bits_;
      std::copy_n(other.data(), num_words(), data());
    }
    return *this;
  }
  Bitset& operator=(Bitset&& other) noexcept {
    Bitset moved(std::move(other));
    swap(*this, moved);
    return *this;
  }
  ~Bitset() { delete[] heap_; }

  friend void swap(Bitset& a, Bitset& b) noexcept {
    std::swap(a.bits_, b.bits_);
    std::swap(a.inline_, b.inline_);
    std::swap(a.heap_, b.heap_);
  }

  std::size_t size() const { return bits_; }

  /// The backing words, bit i in word i / 64; bits past size() are zero.
  std::span<const std::uint64_t> words() const {
    return {data(), num_words()};
  }

  void set(std::size_t i) {
    PG_REQUIRE(i < bits_, "bit index out of range");
    data()[i >> 6] |= (1ull << (i & 63));
  }
  void reset(std::size_t i) {
    PG_REQUIRE(i < bits_, "bit index out of range");
    data()[i >> 6] &= ~(1ull << (i & 63));
  }
  bool test(std::size_t i) const {
    PG_REQUIRE(i < bits_, "bit index out of range");
    return (data()[i >> 6] >> (i & 63)) & 1u;
  }

  void clear() { std::fill_n(data(), num_words(), 0); }

  std::size_t count() const {
    const std::uint64_t* w = data();
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      total += static_cast<std::size_t>(std::popcount(w[i]));
    return total;
  }

  bool any() const {
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] != 0) return true;
    return false;
  }
  bool none() const { return !any(); }

  Bitset& operator|=(const Bitset& other) {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= o[i];
    return *this;
  }
  Bitset& operator&=(const Bitset& other) {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= o[i];
    return *this;
  }
  Bitset& subtract(const Bitset& other) {  // *this &= ~other
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ~o[i];
    return *this;
  }
  /// *this |= (a & b), without materializing a & b.
  Bitset& or_and(const Bitset& a, const Bitset& b) {
    PG_REQUIRE(bits_ == a.bits_ && bits_ == b.bits_, "bitset size mismatch");
    std::uint64_t* w = data();
    const std::uint64_t* x = a.data();
    const std::uint64_t* y = b.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= x[i] & y[i];
    return *this;
  }

  /// Number of set bits shared with `other`.
  std::size_t intersection_count(const Bitset& other) const {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      total += static_cast<std::size_t>(std::popcount(w[i] & o[i]));
    return total;
  }

  /// Number of set bits of *this not present in `other`.
  std::size_t difference_count(const Bitset& other) const {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      total += static_cast<std::size_t>(std::popcount(w[i] & ~o[i]));
    return total;
  }

  /// true iff *this, `a` and `b` share a set bit.
  bool intersects(const Bitset& a, const Bitset& b) const {
    PG_REQUIRE(bits_ == a.bits_ && bits_ == b.bits_, "bitset size mismatch");
    const std::uint64_t* w = data();
    const std::uint64_t* x = a.data();
    const std::uint64_t* y = b.data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & x[i] & y[i]) return true;
    return false;
  }

  /// true iff every bit of *this is also set in `other`.
  bool is_subset_of(const Bitset& other) const {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & ~o[i]) return false;
    return true;
  }

  bool operator==(const Bitset& other) const {
    return bits_ == other.bits_ &&
           std::equal(data(), data() + num_words(), other.data());
  }

  /// Index of the lowest set bit, or size() when empty.
  std::size_t first_set() const {
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] != 0)
        return (i << 6) + static_cast<std::size_t>(std::countr_zero(w[i]));
    return bits_;
  }

  /// Index of the lowest bit >= `from` set in both *this and `other`, or
  /// size() when there is none.
  std::size_t first_common(const Bitset& other, std::size_t from = 0) const {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    if (from >= bits_) return bits_;
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t i = from >> 6;
    std::uint64_t word = w[i] & o[i] & (~0ull << (from & 63));
    while (word == 0) {
      if (++i == num_words()) return bits_;
      word = w[i] & o[i];
    }
    return (i << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = data();
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = words[i];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn((i << 6) + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Calls fn(index) for every bit set in both *this and `other`,
  /// ascending.  Like for_each, a word is read when the scan reaches it.
  template <typename Fn>
  void for_each_common(const Bitset& other, Fn&& fn) const {
    PG_REQUIRE(bits_ == other.bits_, "bitset size mismatch");
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = data()[i] & other.data()[i];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn((i << 6) + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  static constexpr std::size_t kInlineWords = 4;  // 256 bits

  std::size_t num_words() const { return (bits_ + 63) >> 6; }
  bool on_heap() const { return num_words() > kInlineWords; }
  std::uint64_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : inline_; }

  std::size_t bits_ = 0;
  std::uint64_t inline_[kInlineWords] = {};  // the words while !on_heap()
  std::uint64_t* heap_ = nullptr;            // the words while on_heap()
};

}  // namespace pg
