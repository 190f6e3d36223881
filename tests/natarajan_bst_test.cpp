// Unit + concurrency tests for the Natarajan–Mittal external BST.
#include "ds/natarajan_bst.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "support/test_common.hpp"

namespace flit::ds {
namespace {

using flit::test::PmemTest;
using Bst = NatarajanBst<std::int64_t, std::int64_t, HashedWords, Automatic>;

class BstTest : public PmemTest {};

TEST_F(BstTest, EmptyTreeContainsNothing) {
  Bst t;
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.contains(123));
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(BstTest, InsertThenContains) {
  Bst t;
  EXPECT_TRUE(t.insert(10, 100));
  EXPECT_TRUE(t.contains(10));
  EXPECT_FALSE(t.contains(9));
  EXPECT_FALSE(t.contains(11));
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(BstTest, DuplicateInsertFails) {
  Bst t;
  EXPECT_TRUE(t.insert(10, 1));
  EXPECT_FALSE(t.insert(10, 2));
  EXPECT_EQ(t.find(10).value(), 1);
}

TEST_F(BstTest, RemoveLeafAndReinsert) {
  Bst t;
  EXPECT_TRUE(t.insert(10, 1));
  EXPECT_TRUE(t.remove(10));
  EXPECT_FALSE(t.contains(10));
  EXPECT_FALSE(t.remove(10));
  EXPECT_TRUE(t.insert(10, 2));
  EXPECT_EQ(t.find(10).value(), 2);
}

TEST_F(BstTest, RemoveFromDeepTree) {
  Bst t;
  for (std::int64_t k : {50, 25, 75, 10, 30, 60, 90, 5, 15}) {
    EXPECT_TRUE(t.insert(k, k));
  }
  EXPECT_EQ(t.size(), 9u);
  for (std::int64_t k : {25, 90, 50, 5}) {
    EXPECT_TRUE(t.remove(k)) << k;
    EXPECT_FALSE(t.contains(k)) << k;
  }
  for (std::int64_t k : {75, 10, 30, 60, 15}) {
    EXPECT_TRUE(t.contains(k)) << k;
  }
  EXPECT_EQ(t.size(), 5u);
}

TEST_F(BstTest, AscendingDescendingAndRandomOrders) {
  for (int mode = 0; mode < 3; ++mode) {
    Bst t;
    std::vector<std::int64_t> keys;
    for (std::int64_t k = 0; k < 300; ++k) keys.push_back(k);
    if (mode == 1) std::reverse(keys.begin(), keys.end());
    if (mode == 2) {
      std::mt19937_64 rng(9);
      std::shuffle(keys.begin(), keys.end(), rng);
    }
    for (auto k : keys) EXPECT_TRUE(t.insert(k, k));
    for (auto k : keys) EXPECT_TRUE(t.contains(k)) << "mode " << mode;
    EXPECT_EQ(t.size(), 300u);
  }
}

TEST_F(BstTest, SentinelKeysAreExcludedFromSize) {
  Bst t;
  EXPECT_EQ(t.size(), 0u);
  t.insert(1, 1);
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(BstTest, ConcurrentDisjointInserts) {
  Bst t;
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 1'000;
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
  for (std::int64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(t.contains(k)) << k;
  }
}

TEST_F(BstTest, ConcurrentInsertersAndRemoversBalance) {
  Bst t;
  constexpr int kPairs = 4;
  constexpr std::int64_t kRange = 256;
  std::atomic<std::int64_t> net{0};
  std::vector<std::thread> ts;
  for (int th = 0; th < 2 * kPairs; ++th) {
    ts.emplace_back([&t, &net, th] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(th) * 31 + 5);
      std::int64_t local = 0;
      for (int i = 0; i < 5'000; ++i) {
        const std::int64_t k = static_cast<std::int64_t>(rng() % kRange);
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

TEST_F(BstTest, ConcurrentSameKeyContention) {
  // All threads fight over a handful of keys — exercises flag/tag helping.
  Bst t;
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  for (int th = 0; th < kThreads; ++th) {
    ts.emplace_back([&t, th] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(th) + 1);
      for (int i = 0; i < 10'000; ++i) {
        const std::int64_t k = static_cast<std::int64_t>(rng() % 4);
        if (rng() % 2 == 0) {
          t.insert(k, k);
        } else {
          t.remove(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_LE(t.size(), 4u);
  // The tree must still be fully operational.
  for (std::int64_t k = 0; k < 4; ++k) t.remove(k);
  EXPECT_TRUE(t.insert(2, 2));
  EXPECT_TRUE(t.contains(2));
}

/// A lookup of 20 under method M, with the parent's edge into 20's leaf
/// tagged as an insert's unfenced publish leaves it, must flush that edge
/// (one pwb) before it completes.
template <class M>
void expect_lookup_flushes_tagged_last_link(const char* method) {
  SCOPED_TRACE(method);
  using T = NatarajanBst<std::int64_t, std::int64_t, HashedWords, M>;
  T t;
  for (std::int64_t k : {10, 20, 30}) ASSERT_TRUE(t.insert(k, k));
  auto* edge = &t.sentinel()->left;
  auto* n = without_bits(edge->load_private(), kFlagBit | kTagBit);
  while (!n->is_leaf()) {
    edge = 20 < n->key.load_private() ? &n->left : &n->right;
    n = without_bits(edge->load_private(), kFlagBit | kTagBit);
  }
  ASSERT_EQ(n->key.load_private(), 20);
  auto* leaf = edge->load_private();
  ASSERT_TRUE(edge->cas_deferred(leaf, leaf));  // tagged, pwb unfenced
  pmem::pfence();  // fence this thread's pwb; the word stays tagged
  const auto pwbs_of = [](auto&& op) {
    const pmem::StatsSnapshot before = pmem::stats_snapshot();
    op();
    return (pmem::stats_snapshot() - before).pwbs;
  };
  EXPECT_EQ(pwbs_of([&] { EXPECT_TRUE(t.contains(20)); }), 1u) << "contains";
  EXPECT_EQ(pwbs_of([&] { EXPECT_EQ(t.find(20), 20); }), 1u) << "find";
  edge->complete_deferred(leaf);
  EXPECT_EQ(pwbs_of([&] { EXPECT_TRUE(t.contains(20)); }), 0u)
      << "untagged again";
}

TEST_F(BstTest, LookupFlushesItsTaggedLastLink) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  expect_lookup_flushes_tagged_last_link<NVTraverse>("NVTraverse");
  expect_lookup_flushes_tagged_last_link<Manual>("Manual");
}

TEST_F(BstTest, RecoverHandleSeesSameContent) {
  Bst t;
  for (std::int64_t k = 0; k < 64; ++k) t.insert(k, k * 7);
  Bst view = Bst::recover(t.root(), t.sentinel());
  for (std::int64_t k = 0; k < 64; ++k) {
    EXPECT_TRUE(view.contains(k));
    EXPECT_EQ(view.find(k).value(), k * 7);
  }
  EXPECT_EQ(view.size(), 64u);
}

}  // namespace
}  // namespace flit::ds
