// DvRow: aggregates, flags, growth, wire reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "core/dv_matrix.hpp"

namespace aacc {
namespace {

TEST(DvRow, FreshRowKnowsOnlyItself) {
  const DvRow row(2, 5);
  EXPECT_EQ(row.self(), 2u);
  EXPECT_EQ(row.size(), 5u);
  EXPECT_EQ(row.dist(2), 0u);
  for (VertexId t : {0u, 1u, 3u, 4u}) EXPECT_EQ(row.dist(t), kInfDist);
  EXPECT_EQ(row.finite_count(), 0u);
  EXPECT_EQ(row.finite_sum(), 0u);
  EXPECT_EQ(row.closeness(), 0.0);
}

TEST(DvRow, SetMaintainsAggregates) {
  DvRow row(0, 4);
  row.set(1, 5, 1);
  row.set(2, 7, 1);
  EXPECT_EQ(row.finite_sum(), 12u);
  EXPECT_EQ(row.finite_count(), 2u);
  EXPECT_DOUBLE_EQ(row.closeness(), 1.0 / 12.0);
  row.set(1, 3, 2);  // improvement
  EXPECT_EQ(row.finite_sum(), 10u);
  EXPECT_EQ(row.finite_count(), 2u);
  row.set(2, kInfDist, kNoVertex);  // poison
  EXPECT_EQ(row.finite_sum(), 3u);
  EXPECT_EQ(row.finite_count(), 1u);
}

TEST(DvRow, SelfEntryExcludedFromAggregates) {
  DvRow row(1, 3);
  row.set(0, 2, 0);
  EXPECT_EQ(row.finite_sum(), 2u);
  EXPECT_EQ(row.finite_count(), 1u);
}

TEST(DvRow, DirtyFlagCounting) {
  DvRow row(0, 4);
  EXPECT_TRUE(row.mark_dirty(1));
  EXPECT_FALSE(row.mark_dirty(1));  // already dirty
  EXPECT_TRUE(row.mark_dirty(2));
  EXPECT_EQ(row.dirty_count(), 2u);
  EXPECT_TRUE(row.clear_dirty(1));
  EXPECT_FALSE(row.clear_dirty(1));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, QueuedFlagIndependentOfDirty) {
  DvRow row(0, 3);
  row.set_flag(1, DvRow::kQueued);
  EXPECT_TRUE(row.test_flag(1, DvRow::kQueued));
  EXPECT_FALSE(row.test_flag(1, DvRow::kDirty));
  (void)row.mark_dirty(1);
  row.clear_flag(1, DvRow::kQueued);
  EXPECT_TRUE(row.test_flag(1, DvRow::kDirty));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, GrowAddsUnreachableColumns) {
  DvRow row(0, 2);
  row.set(1, 4, 1);
  row.grow(3);
  EXPECT_EQ(row.size(), 5u);
  EXPECT_EQ(row.dist(4), kInfDist);
  EXPECT_EQ(row.next_hop(4), kNoVertex);
  EXPECT_EQ(row.finite_sum(), 4u);  // aggregates unchanged
}

TEST(DvRow, WireConstructorRecomputesAggregates) {
  const std::vector<Dist> d{0, 3, kInfDist, 9};
  const std::vector<VertexId> nh{kNoVertex, 1, kNoVertex, 1};
  const DvRow row(0, d, nh);
  EXPECT_EQ(row.finite_sum(), 12u);
  EXPECT_EQ(row.finite_count(), 2u);
  EXPECT_EQ(row.dirty_count(), 0u);
  EXPECT_EQ(row.next_hop(3), 1u);
}

TEST(DvRow, SortedDirtyMatchesFlagScan) {
  DvRow row(0, 8);
  (void)row.mark_dirty(5);
  (void)row.mark_dirty(1);
  (void)row.mark_dirty(7);
  (void)row.clear_dirty(1);
  (void)row.mark_dirty(3);
  std::vector<VertexId> dirty;
  row.sorted_dirty(dirty);
  EXPECT_EQ(dirty, (std::vector<VertexId>{3, 5, 7}));
  EXPECT_EQ(row.dirty_count(), 3u);
}

/// A row of n columns whose dirty list holds exactly `listed` ids: every
/// third id of those is cleared again, so the list carries stale entries.
/// Returns the live set a brute-force flag scan sees.
std::vector<VertexId> mark_with_stale(DvRow& row, std::size_t listed,
                                      std::mt19937& rng) {
  std::vector<VertexId> cols(row.size());
  for (VertexId t = 0; t < row.size(); ++t) cols[t] = t;
  std::shuffle(cols.begin(), cols.end(), rng);
  cols.resize(listed);
  for (const VertexId t : cols) EXPECT_TRUE(row.mark_dirty(t));
  for (std::size_t i = 0; i < cols.size(); i += 3) {
    EXPECT_TRUE(row.clear_dirty(cols[i]));
  }
  std::vector<VertexId> live;
  for (VertexId t = 0; t < row.size(); ++t) {
    if (row.test_flag(t, DvRow::kDirty)) live.push_back(t);
  }
  return live;
}

TEST(DvRow, SortedDirtyAgreesAcrossTheDenseScanThreshold) {
  // sorted_dirty() sorts a list shorter than n / kDenseDirtyScan and scans
  // the flags from that length on. Lists one below and at the threshold,
  // with stale ids (cleared bits still listed; clear_dirty never compacts),
  // must give the same strictly ascending live set on either path.
  std::mt19937 rng(1212);
  for (const VertexId n : {1600u, 4000u, 16u * 97u + 5u}) {
    const std::size_t threshold =
        (n + DvRow::kDenseDirtyScan - 1) / DvRow::kDenseDirtyScan;
    for (const std::size_t listed :
         {threshold - 1, threshold, threshold + 1, std::size_t{n}}) {
      DvRow row(0, n);
      const std::vector<VertexId> want = mark_with_stale(row, listed, rng);
      std::vector<VertexId> got{42, 43};  // stale scratch contents
      row.sorted_dirty(got);
      EXPECT_EQ(got, want) << "n=" << n << " listed=" << listed;
      EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                     std::greater_equal<>()) == got.end());
      EXPECT_EQ(got.size(), row.dirty_count());
    }
  }
}

TEST(DvRow, ClearAllDirtyReturnsCount) {
  DvRow row(0, 6);
  (void)row.mark_dirty(2);
  (void)row.mark_dirty(4);
  (void)row.clear_dirty(2);
  EXPECT_EQ(row.clear_all_dirty(), 1u);
  EXPECT_EQ(row.dirty_count(), 0u);
  std::vector<VertexId> dirty;
  row.sorted_dirty(dirty);
  EXPECT_TRUE(dirty.empty());
  // Re-marking after a bulk clear starts a fresh list.
  EXPECT_TRUE(row.mark_dirty(4));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, ForEachFiniteVisitsReachableColumns) {
  DvRow row(1, 6);
  row.set(0, 4, 0);
  row.set(3, 2, 3);
  row.set(5, 9, 3);
  row.set(5, kInfDist, kNoVertex);  // poisoned after being reached
  std::vector<VertexId> seen;
  row.for_each_finite([&](VertexId t) { seen.push_back(t); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<VertexId>{0, 3}));
}

// Fuzz: the sparse dirty list and reach list must agree with a brute-force
// scan of the per-column flags/distances after any interleaving of set,
// mark, clear, grow, bulk-clear, and reset operations.
TEST(DvRow, FuzzSparseTrackingMatchesBruteForce) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 20; ++round) {
    VertexId n = 16;
    DvRow row(3, n);
    for (int step = 0; step < 400; ++step) {
      const auto op = rng() % 100;
      const auto t = static_cast<VertexId>(rng() % n);
      if (op < 35) {
        (void)row.mark_dirty(t);
      } else if (op < 60) {
        (void)row.clear_dirty(t);
      } else if (op < 85) {
        const Dist d = (rng() % 8 == 0) ? kInfDist : rng() % 1000;
        row.set(t, d, d == kInfDist ? kNoVertex : t);
      } else if (op < 92) {
        const auto added = static_cast<VertexId>(1 + rng() % 4);
        row.grow(added);
        n += added;
      } else if (op < 96) {
        (void)row.clear_all_dirty();
      } else if (op < 98) {
        row.reset_flags();
      } else {
        row.shrink_to_fit();
      }

      // Brute-force models straight off the dense arrays.
      std::vector<VertexId> want_dirty;
      std::size_t want_finite = 0;
      for (VertexId c = 0; c < n; ++c) {
        if (row.test_flag(c, DvRow::kDirty)) want_dirty.push_back(c);
        if (c != row.self() && row.dist(c) != kInfDist) ++want_finite;
      }

      ASSERT_EQ(row.dirty_count(), want_dirty.size());
      std::vector<VertexId> got_dirty;
      row.sorted_dirty(got_dirty);
      ASSERT_EQ(got_dirty, want_dirty);

      std::vector<VertexId> got_finite;
      row.for_each_finite([&](VertexId c) { got_finite.push_back(c); });
      std::sort(got_finite.begin(), got_finite.end());
      ASSERT_EQ(got_finite.size(), want_finite);
      ASSERT_TRUE(std::adjacent_find(got_finite.begin(), got_finite.end()) ==
                  got_finite.end())
          << "duplicate visit";
      for (const VertexId c : got_finite) {
        ASSERT_NE(c, row.self());
        ASSERT_NE(row.dist(c), kInfDist);
      }
    }
  }
}

TEST(DvRow, ResetFlagsClearsEverything) {
  DvRow row(0, 4);
  (void)row.mark_dirty(1);
  (void)row.mark_dirty(2);
  row.set_flag(3, DvRow::kQueued);
  row.reset_flags();
  EXPECT_EQ(row.dirty_count(), 0u);
  EXPECT_FALSE(row.test_flag(1, DvRow::kDirty));
  EXPECT_FALSE(row.test_flag(3, DvRow::kQueued));
}

}  // namespace
}  // namespace aacc
