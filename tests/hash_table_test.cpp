// Unit + concurrency tests for the bucketed hash table.
#include "ds/hash_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/test_common.hpp"

namespace flit::ds {
namespace {

using flit::test::PmemTest;
using Table = HashTable<std::int64_t, std::int64_t, HashedWords, Automatic>;

class HashTableTest : public PmemTest {};

TEST_F(HashTableTest, EmptyContainsNothing) {
  Table t(64);
  EXPECT_FALSE(t.contains(0));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.bucket_count(), 64u);
}

TEST_F(HashTableTest, ZeroBucketsIsRejected) {
  // A table needs a head word to hash into: 0 buckets would divide by
  // zero on the first operation.
  EXPECT_THROW((void)Table(0), std::invalid_argument);
}

TEST_F(HashTableTest, InsertContainsRemove) {
  Table t(64);
  EXPECT_TRUE(t.insert(5, 55));
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.find(5).value(), 55);
  EXPECT_TRUE(t.remove(5));
  EXPECT_FALSE(t.contains(5));
}

TEST_F(HashTableTest, ManyKeysAcrossBuckets) {
  Table t(128);
  for (std::int64_t k = 0; k < 2'000; ++k) EXPECT_TRUE(t.insert(k, k * 11));
  EXPECT_EQ(t.size(), 2'000u);
  for (std::int64_t k = 0; k < 2'000; ++k) {
    EXPECT_TRUE(t.contains(k)) << k;
    EXPECT_EQ(t.find(k).value(), k * 11);
  }
}

TEST_F(HashTableTest, CollidingKeysShareABucketCorrectly) {
  Table t(1);  // force every key into one bucket (pure chain)
  for (std::int64_t k = 0; k < 100; ++k) EXPECT_TRUE(t.insert(k, k));
  EXPECT_EQ(t.size(), 100u);
  for (std::int64_t k = 0; k < 100; k += 2) EXPECT_TRUE(t.remove(k));
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(t.contains(k), k % 2 == 1);
  }
}

TEST_F(HashTableTest, DuplicateInsertFails) {
  Table t(16);
  EXPECT_TRUE(t.insert(9, 1));
  EXPECT_FALSE(t.insert(9, 2));
  EXPECT_EQ(t.find(9).value(), 1);
}

TEST_F(HashTableTest, NegativeKeysWork) {
  Table t(32);
  EXPECT_TRUE(t.insert(-5, 5));
  EXPECT_TRUE(t.contains(-5));
  EXPECT_TRUE(t.remove(-5));
}

TEST_F(HashTableTest, ConcurrentDisjointInserts) {
  Table t(1024);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 2'000;
  std::vector<std::thread> ts;
  for (int th = 0; th < kThreads; ++th) {
    ts.emplace_back([&t, th] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(t.insert(th * kPerThread + i, i));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(HashTableTest, ConcurrentMixedOnFewBuckets) {
  Table t(4);  // heavy per-bucket contention
  constexpr int kThreads = 8;
  std::atomic<std::int64_t> net{0};
  std::vector<std::thread> ts;
  for (int th = 0; th < kThreads; ++th) {
    ts.emplace_back([&t, &net, th] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(th) * 7 + 13);
      std::int64_t local = 0;
      for (int i = 0; i < 5'000; ++i) {
        const std::int64_t k = static_cast<std::int64_t>(rng() % 64);
        if (th % 2 == 0) {
          if (t.insert(k, k)) ++local;
        } else {
          if (t.remove(k)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(net.load()));
}

TEST_F(HashTableTest, RecoverFromPersistedRoots) {
  Table t(32);
  for (std::int64_t k = 0; k < 500; ++k) t.insert(k, k + 1);
  Table view = Table::recover(t.roots());
  EXPECT_EQ(view.bucket_count(), 32u);
  EXPECT_EQ(view.size(), 500u);
  for (std::int64_t k = 0; k < 500; ++k) {
    EXPECT_TRUE(view.contains(k));
    EXPECT_EQ(view.find(k).value(), k + 1);
  }
}

}  // namespace
}  // namespace flit::ds
