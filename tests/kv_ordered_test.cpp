// Tests for the ordered (skiplist-backed, range-partitioned) KV store:
// scan semantics across shard boundaries, scans under concurrent
// insert/remove, O(1) size counters, simulated-crash recovery of ordered
// shards (every committed key observed in scan order) and its exact
// persistence cost, file restart, and cross-layout-tag rejection (ordered
// file opened as hashed and vice versa).
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using K = std::int64_t;
using Ordered = OrderedStore<HashedWords, Automatic>;

std::string value_for(K k, std::uint64_t salt = 0) {
  const std::size_t len =
      1 + static_cast<std::size_t>((static_cast<std::uint64_t>(k) * 131 +
                                    salt * 257) %
                                   512);
  return std::string(len, static_cast<char>('a' + (k + salt) % 26));
}

class KvOrderedTest : public PmemTest {};

TEST_F(KvOrderedTest, PutGetRemoveRoundTrip) {
  Ordered kv(4, 64, KeyRange{0, 1'000});
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_TRUE(kv.put(1, "one"));
  EXPECT_EQ(kv.get(1), "one");
  EXPECT_FALSE(kv.put(1, "uno"));  // overwrite
  EXPECT_EQ(kv.get(1), "uno");
  EXPECT_TRUE(kv.remove(1));
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_FALSE(kv.remove(1));
}

TEST_F(KvOrderedTest, RangePartitionIsMonotoneAndStable) {
  Ordered a(4, 64, KeyRange{0, 1'000});
  Ordered b(4, 64, KeyRange{0, 1'000});
  std::size_t prev = 0;
  for (K k = -50; k < 1'100; ++k) {
    const std::size_t i = a.shard_index(k);
    EXPECT_EQ(i, b.shard_index(k)) << k;   // stable across instances
    EXPECT_GE(i, prev) << k;               // monotone in the key
    EXPECT_LT(i, a.nshards()) << k;
    prev = i;
  }
  // Every shard owns a piece of the range.
  EXPECT_EQ(a.shard_index(0), 0u);
  EXPECT_EQ(a.shard_index(999), a.nshards() - 1u);
}

TEST_F(KvOrderedTest, ScanMergesAcrossShardBoundariesInOrder) {
  Ordered kv(4, 64, KeyRange{0, 1'000});
  for (K k = 0; k < 1'000; k += 2) {  // even keys only
    kv.put(k, value_for(k));
  }
  // A scan crossing all four shard ranges: every even key in [100, 100 +
  // 2*300), in ascending order.
  const auto out = kv.scan(100, 300);
  ASSERT_EQ(out.size(), 300u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 100 + static_cast<K>(2 * i));
    EXPECT_EQ(out[i].second, value_for(out[i].first));
  }
  // Start between keys: rounds up to the next present key.
  const auto odd_start = kv.scan(101, 3);
  ASSERT_EQ(odd_start.size(), 3u);
  EXPECT_EQ(odd_start[0].first, 102);
  // Truncated at the top of the keyspace.
  EXPECT_EQ(kv.scan(996, 100).size(), 2u);
  EXPECT_EQ(kv.scan(2'000, 10).size(), 0u);
  EXPECT_EQ(kv.scan(0, 0).size(), 0u);
}

TEST_F(KvOrderedTest, ScanSkipsRemovedAndSeesOverwrites) {
  Ordered kv(2, 64, KeyRange{0, 100});
  for (K k = 0; k < 100; ++k) kv.put(k, value_for(k));
  for (K k = 0; k < 100; k += 3) kv.remove(k);
  kv.put(50, "fresh");  // 50 % 3 != 0: overwrite of a live key
  const auto out = kv.scan(0, 200);
  K prev = std::numeric_limits<K>::min();
  for (const auto& [k, v] : out) {
    EXPECT_GT(k, prev);
    EXPECT_NE(k % 3, 0) << "removed key " << k << " must not appear";
    EXPECT_EQ(v, k == 50 ? "fresh" : value_for(k)) << k;
    prev = k;
  }
  EXPECT_EQ(out.size(), 100u - 34u);  // 34 multiples of 3 in [0, 100)
}

TEST_F(KvOrderedTest, ReusedScanBufferMatchesAFreshScan) {
  // scan(start, n, out) overwrites the pairs `out` already holds, appends
  // past them and trims the rest. Reuse one `out` across scans that
  // shrink, empty and grow again, each crossing a shard boundary (shard i
  // owns [101 i, 101 (i + 1))), over removed keys and overwrites of other
  // lengths: every result must equal a scan into a fresh vector.
  Ordered kv(4, 64, KeyRange{0, 400});
  for (K k = 0; k < 400; ++k) kv.put(k, value_for(k));
  for (K k = 0; k < 400; k += 7) kv.remove(k);
  for (K k = 1; k < 400; k += 5) kv.put(k, value_for(k, /*salt=*/1));
  std::vector<std::pair<K, std::string>> out;
  const std::pair<K, std::size_t> scans[] = {
      {95, 100}, {200, 3}, {250, 0}, {290, 57}, {150, 100}};
  for (const auto& [start, n] : scans) {
    SCOPED_TRACE(testing::Message() << "scan(" << start << ", " << n << ")");
    const std::size_t got = kv.scan(start, n, out);
    EXPECT_EQ(got, out.size());
    EXPECT_EQ(out, kv.scan(start, n));
    EXPECT_EQ(out.size(), n);
    if (n > 0) {
      EXPECT_LT(kv.shard_index(out.front().first),
                kv.shard_index(out.back().first));
    }
  }
}

/// 1 B to 300 B, varying by key and version.
std::string recycled_value(K k, std::uint64_t version = 0) {
  const std::size_t len =
      1 + static_cast<std::size_t>(
              (static_cast<std::uint64_t>(k) * 37 + version * 101) % 300);
  return std::string(len, static_cast<char>('A' + (k + version) % 26));
}

TEST_F(KvOrderedTest, RecycledScanStringsHoldExactlyTheNewValue) {
  // A scan that trims `out` keeps the dropped strings on the thread's
  // spare list, and a later scan that grows `out` (or fills a fresh
  // vector) takes them back. A recycled string that held a longer value
  // must hold exactly the new one.
  Ordered kv(4, 64, KeyRange{0, 400});
  for (K k = 0; k < 400; ++k) kv.put(k, recycled_value(k));
  std::vector<std::pair<K, std::string>> out;
  const std::pair<K, std::size_t> scans[] = {
      {10, 50}, {0, 0}, {333, 7}, {120, 100}, {5, 3}, {200, 100}};
  for (const auto& [start, n] : scans) {
    SCOPED_TRACE(testing::Message() << "scan(" << start << ", " << n << ")");
    ASSERT_EQ(kv.scan(start, n, out), n);
    const auto fresh = kv.scan(start, n);
    ASSERT_EQ(out.size(), fresh.size());
    for (std::size_t i = 0; i < n; ++i) {
      const K k = start + static_cast<K>(i);
      EXPECT_EQ(out[i].first, k);
      EXPECT_EQ(out[i].second, recycled_value(k)) << k;
      EXPECT_EQ(fresh[i], out[i]) << k;
    }
  }
}

TEST_F(KvOrderedTest, RecycledScanStringsStayThreadPrivate) {
  // Two threads scan into their own reused `out` at varying lengths, so
  // each trims and re-grows through its own spare list, while a third
  // overwrites the scanned keys with values of other lengths. Every pair
  // must be one version of its key's value, whole.
  constexpr K kKeys = 256;
  constexpr std::uint64_t kVersions = 4;
  Ordered kv(4, 64, KeyRange{0, kKeys});
  for (K k = 0; k < kKeys; ++k) kv.put(k, recycled_value(k));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t v = 1; !stop.load(std::memory_order_relaxed); ++v) {
      for (K k = 0; k < kKeys; ++k) kv.put(k, recycled_value(k, v % kVersions));
    }
  });
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 977 + 3);
      std::vector<std::pair<K, std::string>> out;
      for (int i = 0; i < 500; ++i) {
        const K start = static_cast<K>(rng() % kKeys);
        const std::size_t want = rng() % 101;
        kv.scan(start, want, out);
        if (out.size() != std::min<std::size_t>(
                              want, static_cast<std::size_t>(kKeys - start))) {
          ++violations;
        }
        for (std::size_t j = 0; j < out.size(); ++j) {
          const K k = out[j].first;
          const bool whole = k == start + static_cast<K>(j);
          bool known = false;
          for (std::uint64_t v = 0; v < kVersions && !known; ++v) {
            known = out[j].second == recycled_value(k, v);
          }
          if (!whole || !known) ++violations;
        }
      }
    });
  }
  for (auto& th : scanners) th.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST_F(KvOrderedTest, OutOfRangeKeysClampButStaySorted) {
  // Keys outside the declared range route to the edge shards; scans must
  // still be globally sorted and complete.
  Ordered kv(4, 64, KeyRange{0, 100});
  const K keys[] = {-500, -1, 0, 50, 99, 100, 700};
  for (const K k : keys) kv.put(k, value_for(k));
  const auto out = kv.scan(std::numeric_limits<K>::min(), 100);
  ASSERT_EQ(out.size(), std::size(keys));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, keys[i]);
  }
}

TEST_F(KvOrderedTest, SizeCountersAreExactAtQuiescence) {
  Ordered kv(4, 64, KeyRange{0, 512});
  EXPECT_EQ(kv.size(), 0u);
  for (K k = 0; k < 300; ++k) kv.put(k, "v");
  EXPECT_EQ(kv.size(), 300u);
  for (K k = 0; k < 300; ++k) kv.put(k, "w");  // overwrites: net zero
  EXPECT_EQ(kv.size(), 300u);
  for (K k = 0; k < 300; k += 2) kv.remove(k);
  EXPECT_EQ(kv.size(), 150u);
  // Per-shard counters sum to the total.
  std::size_t per_shard = 0;
  for (std::size_t i = 0; i < kv.nshards(); ++i) {
    per_shard += kv.shard(i).size();
  }
  EXPECT_EQ(per_shard, 150u);
}

TEST_F(KvOrderedTest, EmptyKeyRangeIsRejected) {
  EXPECT_THROW(Ordered(2, 64, KeyRange{10, 10}), std::invalid_argument);
  EXPECT_THROW(Ordered(2, 64, KeyRange{10, 5}), std::invalid_argument);
}

TEST_F(KvOrderedTest, ScansUnderConcurrentInsertRemoveStayConsistent) {
  // Anchor keys (multiples of 4) are inserted up front and never touched;
  // churn keys are concurrently inserted/removed/overwritten. Every scan
  // must return strictly ascending keys, the exact committed payload for
  // whatever it returns, and — because anchors are stable for the whole
  // run — every anchor inside the scanned window.
  constexpr K kRange = 1'024;
  Ordered kv(4, 64, KeyRange{0, kRange});
  for (K k = 0; k < kRange; k += 4) kv.put(k, value_for(k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 5);
      while (!stop.load(std::memory_order_relaxed)) {
        K k = static_cast<K>(rng() % kRange);
        if (k % 4 == 0) ++k;  // never touch an anchor
        if (rng() % 2 == 0) {
          kv.put(k, value_for(k));
        } else {
          kv.remove(k);
        }
      }
    });
  }

  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&kv, &violations, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 17);
      std::vector<std::pair<K, std::string>> buf;
      for (int i = 0; i < 400; ++i) {
        const K start = static_cast<K>(rng() % kRange);
        const std::size_t want = 1 + rng() % 64;
        kv.scan(start, want, buf);
        K prev = std::numeric_limits<K>::min();
        for (const auto& [k, v] : buf) {
          if (k < start || k <= prev) ++violations;
          if (v != value_for(k)) ++violations;
          prev = k;
        }
        if (buf.size() > want) ++violations;
        // Stable anchors inside [start, last-returned] must all appear
        // (only checkable when the scan wasn't truncated by `want`).
        if (buf.size() < want) {
          std::size_t anchors_seen = 0;
          for (const auto& [k, v] : buf) anchors_seen += k % 4 == 0;
          const K first_anchor = (start + 3) / 4 * 4;
          const std::size_t anchors_expected =
              first_anchor < kRange
                  ? static_cast<std::size_t>((kRange - first_anchor + 3) / 4)
                  : 0;
          if (anchors_seen != anchors_expected) ++violations;
        }
      }
    });
  }
  for (auto& th : scanners) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST_F(KvOrderedTest, OverwriteChurnNeverHidesKeysFromGetsOrScans) {
  // The tentpole's acceptance criterion on the ordered backend: under
  // 100% overwrite churn on a fixed key set, a concurrent get never
  // returns absent and a full scan never drops a key. Every key is
  // written only as value_for(k, salt) for some salt, so any returned
  // payload must be consistent with its key. Run under ASan and the tsan
  // preset (label kv) — the value-claim protocol's races live here.
  constexpr K kKeys = 256;
  Ordered kv(4, 64, KeyRange{0, kKeys});
  for (K k = 0; k < kKeys; ++k) kv.put(k, value_for(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&kv, &stop, &violations, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      std::uint64_t salt = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = static_cast<K>(rng() % kKeys);
        if (kv.put(k, value_for(k, salt++))) {
          ++violations;  // an overwrite must never be a fresh insert
        }
      }
    });
  }

  // A reader cannot know which salt it will catch, but every committed
  // value_for(k, s) is a uniform fill of 1..512 bytes — a torn mix of
  // two generations (different fill chars or a stale length) fails this.
  const auto plausible = [](const std::string& v) {
    return !v.empty() && v.size() <= 512 &&
           v.find_first_not_of(v[0]) == std::string::npos;
  };
  std::vector<std::thread> getters;
  for (int t = 0; t < 2; ++t) {
    getters.emplace_back([&kv, &violations, &plausible, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 17);
      for (int i = 0; i < 20'000; ++i) {
        const K k = static_cast<K>(rng() % kKeys);
        const auto v = kv.get(k);
        if (!v) {
          ++violations;  // the key transiently disappeared
        } else if (!plausible(*v)) {
          ++violations;
        }
      }
    });
  }

  std::thread scanner([&kv, &violations, &plausible] {
    std::vector<std::pair<K, std::string>> buf;
    for (int i = 0; i < 300; ++i) {
      kv.scan(0, static_cast<std::size_t>(kKeys) + 8, buf);
      if (buf.size() != static_cast<std::size_t>(kKeys)) {
        ++violations;  // a scan dropped (or invented) a key mid-overwrite
        continue;
      }
      for (std::size_t j = 0; j < buf.size(); ++j) {
        if (buf[j].first != static_cast<K>(j)) ++violations;
        if (!plausible(buf[j].second)) ++violations;
      }
    }
  });

  std::thread size_checker([&kv, &violations] {
    for (int i = 0; i < 2'000; ++i) {
      if (kv.size() != static_cast<std::size_t>(kKeys)) {
        ++violations;  // overwrites must not move the counters
      }
    }
  });

  for (auto& th : getters) th.join();
  scanner.join();
  size_checker.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiescent: every key holds some committed generation, intact.
  for (K k = 0; k < kKeys; ++k) {
    const auto v = kv.get(k);
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_TRUE(plausible(*v)) << "torn value at key " << k;
  }
}

TEST_F(KvOrderedTest, MultiOpsMatchScalarOnTheOrderedStore) {
  // The batched path routes through the range partition: a cross-shard
  // batch must behave exactly like the scalar loop, and a scan after a
  // multi_put must see every element in order.
  Ordered kv(4, 64, KeyRange{0, 1'000});
  std::vector<std::pair<K, std::string_view>> kvs;
  std::vector<std::string> store;
  for (K k = 0; k < 1'000; k += 37) {
    store.push_back("v" + std::to_string(k));
  }
  std::size_t i = 0;
  for (K k = 0; k < 1'000; k += 37) kvs.emplace_back(k, store[i++]);
  const auto fresh = kv.multi_put(kvs);
  for (const bool f : fresh) EXPECT_TRUE(f);
  EXPECT_EQ(kv.size(), kvs.size());

  // multi_get across every shard, with misses interleaved.
  std::vector<K> keys;
  for (K k = 0; k < 1'000; k += 19) keys.push_back(k);
  const auto got = kv.multi_get(keys);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    EXPECT_EQ(got[j], kv.get(keys[j])) << "key " << keys[j];
  }

  // A scan sees the batch's elements in ascending order.
  const auto scanned = kv.scan(0, kvs.size() + 10);
  ASSERT_EQ(scanned.size(), kvs.size());
  for (std::size_t j = 0; j < scanned.size(); ++j) {
    EXPECT_EQ(scanned[j].first, kvs[j].first);
    EXPECT_EQ(scanned[j].second, kvs[j].second);
  }

  // Batched overwrite of every other key; scans observe the new values.
  std::vector<std::pair<K, std::string_view>> over;
  for (std::size_t j = 0; j < kvs.size(); j += 2) {
    over.emplace_back(kvs[j].first, "new");
  }
  const auto fresh2 = kv.multi_put(over);
  for (const bool f : fresh2) EXPECT_FALSE(f) << "overwrites, not inserts";
  const auto rescanned = kv.scan(0, kvs.size() + 10);
  ASSERT_EQ(rescanned.size(), kvs.size());
  for (std::size_t j = 0; j < rescanned.size(); ++j) {
    EXPECT_EQ(rescanned[j].second, j % 2 == 0 ? "new" : store[j]) << j;
  }

  // multi_remove across shards, scan shrinks accordingly.
  std::vector<K> dead;
  for (std::size_t j = 1; j < kvs.size(); j += 2) dead.push_back(kvs[j].first);
  for (const bool r : kv.multi_remove(dead)) EXPECT_TRUE(r);
  EXPECT_EQ(kv.scan(0, 1'000).size(), kvs.size() - dead.size());
}

TEST_F(KvOrderedTest, ReservedSentinelKeysAuditOnTheOrderedStore) {
  // scan()'s contract at the reserved sentinel keys (audited per the
  // issue): INT64_MIN is a safe "from the beginning" start that returns
  // every key (the structures' head sentinels are never emitted), and
  // INT64_MAX returns nothing (it is not storable, and the tail
  // sentinels are never emitted either). Point ops on the sentinels are
  // rejected/absent exactly like the hashed store.
  constexpr K kMin = std::numeric_limits<K>::min();
  constexpr K kMax = std::numeric_limits<K>::max();
  Ordered kv(4, 64, KeyRange{-100, 100});
  const K keys[] = {-90, -1, 0, 7, 99};
  for (const K k : keys) kv.put(k, value_for(k));

  EXPECT_THROW(kv.put(kMin, "x"), std::invalid_argument);
  EXPECT_THROW(kv.put(kMax, "x"), std::invalid_argument);
  EXPECT_EQ(kv.get(kMin), std::nullopt);
  EXPECT_EQ(kv.get(kMax), std::nullopt);
  EXPECT_FALSE(kv.contains(kMin));
  EXPECT_FALSE(kv.remove(kMax));

  const auto all = kv.scan(kMin, 100);
  ASSERT_EQ(all.size(), std::size(keys));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].first, keys[i]);
    EXPECT_EQ(all[i].second, value_for(keys[i]));
  }
  EXPECT_TRUE(kv.scan(kMax, 100).empty())
      << "INT64_MAX is reserved: no stored key can be >= it";
  EXPECT_TRUE(kv.scan(kMax, 0).empty());
  // A scan starting one past the largest real key is empty too.
  EXPECT_TRUE(kv.scan(100, 10).empty());
}

/// Recover sb with the pmem counters bracketing only the recovery: the
/// recovered store and the p-instructions its recovery issued.
template <class StoreT>
std::pair<StoreT, pmem::StatsSnapshot> counted_recover(
    typename StoreT::Superblock* sb) {
  pmem::pfence();  // start with nothing pending
  const pmem::StatsSnapshot before = pmem::stats_snapshot();
  StoreT kv = StoreT::recover(sb);
  return {std::move(kv), pmem::stats_snapshot() - before};
}

TEST_F(KvOrderedTest, RecoveryPersistCountsAreExact) {
  // Recovery's only p-instructions are the generation word's pwb and
  // pfence, on both layouts: the walks read the persisted links and
  // leave them as found, and an ordered shard's rebuilt index levels are
  // volatile. The ordered image also holds one live node marked at level
  // 0 but still linked — what a remover that died between its mark CAS
  // and its unlink leaves. Recovery must leave it linked, and the store
  // must treat it as removed until a put of its key.
  constexpr std::uint32_t kShards = 4;
  constexpr K kKeys = 10'000;
  constexpr K kMarked = 4'001;  // live: only multiples of 4 are removed
  const std::string value(100, 'v');
  const auto load = [&](auto& kv) {
    for (K k = 0; k < kKeys; ++k) kv.put(k, value);
    for (K k = 0; k < kKeys; k += 4) kv.remove(k);
    auto* sb = kv.superblock();
    kv.close();
    return sb;
  };

  Ordered ordered(kShards, 64, KeyRange{0, kKeys});
  Ordered::Superblock* sb = load(ordered);
  using Node = Ordered::Shard_::Node;
  const auto level0_links = [&](K key) -> Node* {
    for (std::uint32_t i = 0; i < kShards; ++i) {
      for (Node* n = sb->shard_roots[i]->head; n != nullptr;
           n = ds::without_mark(n->next[0].load_private())) {
        if (n->key.load_private() == key) return n;
      }
    }
    return nullptr;
  };
  Node* victim = level0_links(kMarked);
  ASSERT_NE(victim, nullptr);
  victim->next[0].store_private(
      ds::with_mark(victim->next[0].load_private()));
  std::vector<std::pair<K, std::string>> expected;
  for (K k = 0; k < kKeys; ++k) {
    if (k % 4 != 0 && k != kMarked) expected.emplace_back(k, value);
  }
  {
    auto [kv, d] = counted_recover<Ordered>(sb);
    EXPECT_EQ(d.pwbs, 1u) << "the generation word";
    EXPECT_EQ(d.pfences, 1u);
    EXPECT_EQ(level0_links(kMarked), victim)
        << "recovery must leave level 0 as the crash left it";
    EXPECT_TRUE(ds::is_marked(victim->next[0].load_private()));
    EXPECT_EQ(kv.size(), expected.size());
    EXPECT_EQ(kv.get(kMarked), std::nullopt);
    EXPECT_EQ(kv.scan(0, 2 * kKeys), expected);
    EXPECT_TRUE(kv.put(kMarked, "revived")) << "a fresh insert";
  }
  {
    auto [kv, d] = counted_recover<Ordered>(sb);
    EXPECT_EQ(d.pwbs, 1u);
    EXPECT_EQ(d.pfences, 1u);
    EXPECT_EQ(kv.size(), expected.size() + 1);
    EXPECT_EQ(kv.get(kMarked), "revived");
  }

  using Hashed = Store<HashedWords, Automatic>;
  Hashed hashed(kShards, 64);
  const auto [kv, hd] = counted_recover<Hashed>(load(hashed));
  EXPECT_EQ(hd.pwbs, 1u) << "the generation word";
  EXPECT_EQ(hd.pfences, 1u);
  EXPECT_EQ(kv.size(), 7'500u);
}

// --- simulated power failure -----------------------------------------------

template <class StoreT>
class KvOrderedCrashTest : public PmemTest {
 protected:
  void SetUp() override {
    PmemTest::SetUp();
    recl::Ebr::instance().set_reclaim(false);  // no reuse across a crash
    pmem::Pool::instance().register_with_sim();
    pmem::set_backend(pmem::Backend::kSimCrash);
  }
  void TearDown() override {
    recl::Ebr::instance().set_reclaim(true);
    PmemTest::TearDown();
  }
};

using OrderedCrashConfigs = ::testing::Types<
    OrderedStore<HashedWords, Automatic>,
    OrderedStore<HashedWords, NVTraverse>, OrderedStore<HashedWords, Manual>,
    OrderedStore<AdjacentWords, Automatic>>;

TYPED_TEST_SUITE(KvOrderedCrashTest, OrderedCrashConfigs);

TYPED_TEST(KvOrderedCrashTest, ScanAfterCrashSeesEveryCommittedKeyInOrder) {
  constexpr K kRange = 192;
  TypeParam kv(4, 64, KeyRange{0, kRange});
  auto* sb = kv.superblock();

  std::mt19937_64 rng(42);
  std::map<K, std::string> oracle;
  for (std::uint64_t i = 0; i < 800; ++i) {
    const K k = static_cast<K>(rng() % kRange);
    if (rng() % 3 != 0) {
      std::string v = value_for(k, i);
      kv.put(k, v);
      oracle[k] = std::move(v);
    } else {
      kv.remove(k);
      oracle.erase(k);
    }
  }

  pmem::SimMemory::instance().crash();
  TypeParam recovered = TypeParam::recover(sb);
  EXPECT_EQ(recovered.generation(), 2u) << "recovery bumps the stamp";

  // Point reads agree with the oracle.
  for (K k = 0; k < kRange; ++k) {
    const auto got = recovered.get(k);
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      EXPECT_EQ(got, std::nullopt) << "key " << k << " was removed";
    } else {
      ASSERT_TRUE(got.has_value()) << "committed put of key " << k
                                   << " lost in the crash";
      EXPECT_EQ(*got, it->second) << "key " << k;
    }
  }
  // A full scan observes exactly the committed keys, ascending, with the
  // committed payloads — the acceptance criterion of the ordered store.
  const auto out = recovered.scan(0, static_cast<std::size_t>(kRange) + 1);
  ASSERT_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second) << "key " << k;
    ++it;
  }
  EXPECT_EQ(recovered.size(), oracle.size()) << "recovery rebuilds counters";
}

TYPED_TEST(KvOrderedCrashTest, ConcurrentOpsThenCrashThenScan) {
  constexpr K kRange = 128;
  constexpr int kThreads = 4;
  TypeParam kv(4, 64, KeyRange{0, kRange});
  auto* sb = kv.superblock();

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&kv, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 101 + 11);
      for (std::uint64_t i = 0; i < 800; ++i) {
        const K k = static_cast<K>(rng() % kRange);
        switch (rng() % 3) {
          case 0:
            kv.put(k, value_for(k, i));
            break;
          case 1:
            kv.remove(k);
            break;
          default:
            (void)kv.get(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();  // quiesce: all operations completed

  std::map<K, std::string> before;
  for (K k = 0; k < kRange; ++k) {
    if (auto v = kv.get(k)) before[k] = *v;
  }
  pmem::SimMemory::instance().crash();
  TypeParam recovered = TypeParam::recover(sb);
  const auto out = recovered.scan(0, static_cast<std::size_t>(kRange) + 1);
  ASSERT_EQ(out.size(), before.size());
  auto it = before.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second) << k;
    ++it;
  }
}

// --- real restart + cross-layout rejection ----------------------------------

class KvOrderedFileTest : public PmemTest {
 protected:
  static std::string temp_path() {
    return "/tmp/flit_kv_ordered_test_" + std::to_string(::getpid()) +
           ".pmem";
  }
};

TEST_F(KvOrderedFileTest, ReopenRecoversScansAndPartitionBounds) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 32 << 20;
  constexpr K kRange = 600;
  std::map<K, std::string> oracle;

  {
    Ordered kv = Ordered::open(path, kCapacity, 4, 64, KeyRange{0, kRange});
    EXPECT_EQ(kv.generation(), 1u);
    for (K k = 0; k < kRange; k += 2) {
      std::string v = value_for(k, 1);
      kv.put(k, v);
      oracle[k] = std::move(v);
    }
    for (K k = 0; k < kRange; k += 6) {
      kv.remove(k);
      oracle.erase(k);
    }
    kv.close();
  }

  {
    // The file's shard count and partition bounds win over the arguments.
    Ordered kv = Ordered::open(path, kCapacity, 9, 32, KeyRange{0, 7});
    EXPECT_EQ(kv.generation(), 2u);
    EXPECT_EQ(kv.nshards(), 4u);
    EXPECT_EQ(kv.key_range().lo, 0);
    EXPECT_EQ(kv.key_range().hi, kRange);
    EXPECT_EQ(kv.size(), oracle.size()) << "counters rebuilt on recovery";
    const auto out = kv.scan(0, static_cast<std::size_t>(kRange));
    ASSERT_EQ(out.size(), oracle.size());
    auto it = oracle.begin();
    for (const auto& [k, v] : out) {
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second) << k;
      ++it;
    }
    kv.close();
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvOrderedFileTest, CrossLayoutOpenIsRejectedBothWays) {
  // The superblock layout tag must reject a hashed open of an ordered
  // file (and the reverse) with IncompatibleStore — not misread skiplist
  // towers as bucket head arrays or vice versa.
  using Hashed = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 8 << 20;

  {
    Ordered kv = Ordered::open(path, kCapacity, 2, 32, KeyRange{0, 100});
    kv.put(1, "layout canary");
    kv.close();
  }

  EXPECT_THROW((void)Hashed::open(path, kCapacity, 2, 32),
               IncompatibleStore);
  // The rejecting open touches no pool but its own region's: allocation
  // still lands in the test pool.
  void* p = pmem::Pool::instance().alloc(64);
  EXPECT_TRUE(pmem::Pool::instance().contains(p));

  // The matching layout still opens (the failed open consumed nothing).
  {
    Ordered kv = Ordered::open(path, kCapacity, 2, 32, KeyRange{0, 100});
    EXPECT_EQ(kv.generation(), 2u);
    EXPECT_EQ(kv.get(1), "layout canary");
    kv.close();
  }

  // And the reverse direction: a hashed file refused by the ordered store.
  pmem::FileRegion::destroy(path);
  {
    Hashed kv = Hashed::open(path, kCapacity, 2, 32);
    kv.put(1, "x");
    kv.close();
  }
  EXPECT_THROW((void)Ordered::open(path, kCapacity, 2, 32, KeyRange{0, 100}),
               IncompatibleStore);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvOrderedFileTest, DirtyShutdownSweepCoversSkiplistTowers) {
  // Same dirty-shutdown protocol as the hashed store (bump mark rewound,
  // clean flag cleared): the recovery sweep must walk skiplist towers and
  // live records so post-recovery allocations cannot clobber them. Each
  // put allocates its record just before its node, so node extents alone
  // would cover those records; session 2 therefore ends with a 4 KiB
  // overwrite, whose record comes straight from the bump with no node
  // after it — only the live-record bound covers it.
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 32 << 20;
  constexpr K kRange = 400;
  std::map<K, std::string> oracle;

  std::size_t clean_bump = 0;
  {
    Ordered kv = Ordered::open(path, kCapacity, 4, 64, KeyRange{0, kRange});
    kv.put(0, "seed");
    oracle[0] = "seed";
    kv.close();
  }
  {
    pmem::FileRegion r = pmem::FileRegion::open(path, kCapacity);
    clean_bump = r.bump();
  }
  {
    Ordered kv = Ordered::open(path, kCapacity, 4, 64, KeyRange{0, kRange});
    for (K k = 1; k < kRange; ++k) {
      std::string v = value_for(k, 2);
      kv.put(k, v);
      oracle[k] = std::move(v);
    }
    const std::string large(4096, 'L');
    kv.put(kRange / 2, large);
    oracle[kRange / 2] = large;
    kv.close();
  }
  {
    pmem::FileRegion r = pmem::FileRegion::open(path, kCapacity);
    ASSERT_GT(r.bump(), clean_bump);
    r.set_bump(clean_bump);  // the image a dirty shutdown leaves behind
    r.set_root(Ordered::kCleanShutdownSlot, nullptr);
    r.sync();
  }
  {
    Ordered kv = Ordered::open(path, kCapacity, 4, 64, KeyRange{0, kRange});
    for (K k = 1'000; k < 1'400; ++k) {  // force fresh allocations
      kv.put(k, value_for(k, 3));
    }
    for (const auto& [k, v] : oracle) {
      const auto got = kv.get(k);
      ASSERT_TRUE(got.has_value()) << "key " << k << " lost to stale bump";
      ASSERT_EQ(*got, v) << "key " << k;
    }
    kv.close();
  }
  pmem::FileRegion::destroy(path);
}

}  // namespace
}  // namespace flit::kv
