// Unit + concurrency tests for the lock-free skiplist.
#include "ds/skiplist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "support/test_common.hpp"

namespace flit::ds {
namespace {

using flit::test::PmemTest;
using Skip = SkipList<std::int64_t, std::int64_t, HashedWords, Automatic>;

class SkipListTest : public PmemTest {};

TEST_F(SkipListTest, EmptyContainsNothing) {
  Skip s;
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.size(), 0u);
}

TEST_F(SkipListTest, InsertContainsRemove) {
  Skip s;
  EXPECT_TRUE(s.insert(42, 420));
  EXPECT_TRUE(s.contains(42));
  EXPECT_EQ(s.find_value(42).value(), 420);
  EXPECT_TRUE(s.remove(42));
  EXPECT_FALSE(s.contains(42));
  EXPECT_FALSE(s.remove(42));
}

TEST_F(SkipListTest, DuplicateInsertFails) {
  Skip s;
  EXPECT_TRUE(s.insert(1, 1));
  EXPECT_FALSE(s.insert(1, 2));
  EXPECT_EQ(s.find_value(1).value(), 1);
}

TEST_F(SkipListTest, ManySequentialKeys) {
  Skip s;
  for (std::int64_t k = 0; k < 1'000; ++k) EXPECT_TRUE(s.insert(k, -k));
  EXPECT_EQ(s.size(), 1'000u);
  for (std::int64_t k = 0; k < 1'000; ++k) {
    EXPECT_TRUE(s.contains(k)) << k;
    EXPECT_EQ(s.find_value(k).value(), -k);
  }
  for (std::int64_t k = 0; k < 1'000; k += 3) EXPECT_TRUE(s.remove(k));
  for (std::int64_t k = 0; k < 1'000; ++k) {
    EXPECT_EQ(s.contains(k), k % 3 != 0) << k;
  }
}

TEST_F(SkipListTest, ShuffledInsertionOrder) {
  Skip s;
  std::vector<std::int64_t> keys(500);
  for (std::int64_t k = 0; k < 500; ++k) keys[static_cast<std::size_t>(k)] = k;
  std::mt19937_64 rng(3);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (auto k : keys) EXPECT_TRUE(s.insert(k, k));
  for (auto k : keys) EXPECT_TRUE(s.contains(k));
}

TEST_F(SkipListTest, TowersEventuallySpanLevels) {
  // With 4096 inserts, the probability that every node has height 1 is
  // astronomically small; verify the index above level 0 is in use by
  // checking head's level-1 pointer moved off the tail.
  Skip s;
  for (std::int64_t k = 0; k < 4'096; ++k) s.insert(k, k);
  EXPECT_NE(without_mark(s.roots()->head->next[1].load_private()),
            s.roots()->tail);
}

TEST_F(SkipListTest, ConcurrentDisjointInserts) {
  Skip s;
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 1'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&s, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(s.insert(t * kPerThread + i, i));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::int64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(s.contains(k)) << k;
  }
}

TEST_F(SkipListTest, ConcurrentInsertersAndRemoversBalance) {
  Skip s;
  constexpr int kPairs = 4;
  constexpr std::int64_t kRange = 256;
  std::atomic<std::int64_t> net{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 2 * kPairs; ++t) {
    ts.emplace_back([&s, &net, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 17 + 3);
      std::int64_t local = 0;
      for (int i = 0; i < 5'000; ++i) {
        const std::int64_t k = static_cast<std::int64_t>(rng() % kRange);
        if (t % 2 == 0) {
          if (s.insert(k, k)) ++local;
        } else {
          if (s.remove(k)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()));
}

TEST_F(SkipListTest, HighContentionSingleKey) {
  Skip s;
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&s, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < 10'000; ++i) {
        if (rng() % 2 == 0) {
          s.insert(7, 7);
        } else {
          s.remove(7);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_LE(s.size(), 1u);
  s.remove(7);
  EXPECT_TRUE(s.insert(7, 8));
  EXPECT_EQ(s.find_value(7).value(), 8);
}

TEST_F(SkipListTest, RecoverHandleSeesSameContent) {
  Skip s;
  for (std::int64_t k = 0; k < 100; ++k) s.insert(k, k + 5);
  Skip view = Skip::recover(s.roots());
  EXPECT_EQ(view.size(), 100u);
  for (std::int64_t k = 0; k < 100; ++k) EXPECT_TRUE(view.contains(k));
}

}  // namespace
}  // namespace flit::ds
