// Unit tests for the utility substrate: RNG determinism and distributions,
// bitsets, check macros, and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pg {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Rng c2(43);
  Rng a2(42);
  EXPECT_NE(a2(), c2());
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int bucket : counts) EXPECT_NEAR(bucket, 1000, 150);
  EXPECT_THROW(rng.next_below(0), PreconditionViolation);
}

TEST(Rng, NextIntBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.next_int(2, 1), PreconditionViolation);
}

TEST(Rng, ExponentialHasUnitMean) {
  Rng rng(13);
  double sum = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) sum += rng.next_exponential();
  EXPECT_NEAR(sum / samples, 1.0, 0.05);
  EXPECT_THROW(rng.next_exponential(0.0), PreconditionViolation);
}

TEST(Bitset, BasicOperations) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(64));
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.first_set(), 0u);
  b.reset(0);
  EXPECT_EQ(b.first_set(), 129u);
  EXPECT_THROW(b.set(130), PreconditionViolation);
}

TEST(Bitset, SetAlgebra) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(1);
  b.set(2);
  Bitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(1));
  EXPECT_EQ(a.intersection_count(b), 1u);
  EXPECT_EQ(a.difference_count(b), 1u);
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
  Bitset d = a;
  d.subtract(b);
  EXPECT_TRUE(d.test(65));
  EXPECT_FALSE(d.test(1));
  std::vector<std::size_t> seen;
  a.for_each([&](std::size_t idx) { seen.push_back(idx); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 65}));
}

/// A bitset of `bits` with each bit set with probability 1/2 (or, with
/// `sparse`, 1/16, so intersections are often empty).
Bitset random_bitset(std::size_t bits, Rng& rng, bool sparse = false) {
  Bitset b(bits);
  for (std::size_t i = 0; i < bits; ++i)
    if (rng.next_below(sparse ? 16 : 2) == 0) b.set(i);
  return b;
}

std::vector<std::size_t> bits_of(const Bitset& b) {
  std::vector<std::size_t> out;
  b.for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(Bitset, CommonHelpersMatchMaterializedIntersections) {
  Rng rng(17);
  for (const std::size_t bits : {1, 63, 64, 65, 200, 255, 256, 257, 1000}) {
    for (int trial = 0; trial < 8; ++trial) {
      const bool sparse = trial % 2 == 1;
      const Bitset x = random_bitset(bits, rng, sparse);
      const Bitset a = random_bitset(bits, rng, sparse);
      const Bitset b = random_bitset(bits, rng, sparse);
      Bitset xa = x;
      xa &= a;
      Bitset xab = xa;
      xab &= b;

      // first_common(other, from) == first bit >= from of x & a.
      for (std::size_t from = 0; from <= bits; ++from) {
        std::size_t want = bits;
        for (std::size_t i = from; i < bits; ++i)
          if (xa.test(i)) {
            want = i;
            break;
          }
        ASSERT_EQ(x.first_common(a, from), want) << bits << " from " << from;
      }
      EXPECT_EQ(x.first_common(a, bits + 5), bits);
      EXPECT_EQ(x.first_common(a), xa.first_set());

      std::vector<std::size_t> common;
      x.for_each_common(a, [&](std::size_t i) { common.push_back(i); });
      EXPECT_EQ(common, bits_of(xa));

      EXPECT_EQ(x.intersects(a, b), xab.any());

      Bitset via_helper = b;
      via_helper.or_and(x, a);
      Bitset materialized = b;
      materialized |= xa;
      EXPECT_EQ(via_helper, materialized);
    }
  }
  Bitset empty;
  EXPECT_EQ(empty.first_common(empty), 0u);
  EXPECT_FALSE(empty.intersects(empty, empty));
  EXPECT_THROW(Bitset(8).first_common(Bitset(9)), PreconditionViolation);
  EXPECT_THROW(Bitset(8).or_and(Bitset(8), Bitset(9)), PreconditionViolation);
}

TEST(Bitset, CopyMoveAndReassignAcrossInlineAndHeapStorage) {
  const std::size_t sizes[] = {0, 1, 64, 255, 256, 257, 1000};
  Rng rng(23);
  for (const std::size_t from : sizes) {
    const Bitset original = random_bitset(from, rng);
    const std::vector<std::size_t> original_bits = bits_of(original);

    Bitset copy(original);
    EXPECT_EQ(copy, original);
    if (from > 0) {
      copy.set(from - 1);
      copy.reset(0);
      EXPECT_EQ(bits_of(original), original_bits) << "copy shares storage";
    }

    Bitset source = original;
    Bitset moved(std::move(source));
    EXPECT_EQ(moved, original);
    source = original;  // a moved-from bitset is reusable
    EXPECT_EQ(source, original);

    Bitset self = original;
    Bitset& alias = self;
    self = alias;
    EXPECT_EQ(self, original);
    self = std::move(alias);
    EXPECT_EQ(self, original);

    for (const std::size_t to : sizes) {
      const Bitset target = random_bitset(to, rng);

      Bitset assigned = original;
      assigned = target;
      EXPECT_EQ(assigned, target) << from << " -> " << to;
      EXPECT_EQ(assigned.size(), to);
      if (to > 0) {
        assigned.set(to - 1);
        assigned.reset(0);
        Bitset fresh = random_bitset(to, rng);
        fresh = assigned;
        EXPECT_EQ(fresh, assigned);
      }
      EXPECT_EQ(bits_of(original), original_bits);

      Bitset move_assigned = original;
      Bitset donor = target;
      move_assigned = std::move(donor);
      EXPECT_EQ(move_assigned, target) << from << " -> " << to;

      Bitset left = original, right = target;
      swap(left, right);
      EXPECT_EQ(left, target);
      EXPECT_EQ(right, original);
    }
  }
}

TEST(Check, MacrosThrowTheRightTypes) {
  EXPECT_THROW(PG_REQUIRE(false, "precondition"), PreconditionViolation);
  EXPECT_THROW(PG_CHECK(false, "invariant"), InvariantViolation);
  EXPECT_NO_THROW(PG_REQUIRE(true));
  EXPECT_NO_THROW(PG_CHECK(true));
  try {
    PG_REQUIRE(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const PreconditionViolation& error) {
    EXPECT_NE(std::string(error.what()).find("context message"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Table, AlignsColumns) {
  Table table({"a", "long header"});
  table.add_row({"wide cell", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| wide cell |"), std::string::npos);
  EXPECT_NE(text.find("long header"), std::string::npos);
  // Three lines: header, separator, one row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Table, FormatHelper) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace pg
