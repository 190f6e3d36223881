// Functional tests for the sharded KV store (src/kv/): API semantics,
// variable-length value records, shard routing, and concurrent mixed use.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using KvStore = Store<HashedWords, Automatic>;

class KvStoreTest : public PmemTest {};

/// Self-describing churn payload: 8-byte key + 8-byte salt header, then
/// filler whose char and length derive from both — a reader can verify
/// any committed generation byte for byte (and detect torn or
/// cross-wired records) without knowing which generation it caught.
std::string churn_value(std::int64_t k, std::uint64_t salt) {
  const std::size_t len = 16 + static_cast<std::size_t>(
                                   (static_cast<std::uint64_t>(k) * 131 +
                                    salt * 257) %
                                   200);
  std::string v(len, static_cast<char>('a' + (k + static_cast<std::int64_t>(
                                                      salt)) %
                                                 26));
  for (std::size_t i = 0; i < 8; ++i) {
    v[i] = static_cast<char>((static_cast<std::uint64_t>(k) >> (8 * i)) &
                             0xFF);
    v[8 + i] = static_cast<char>((salt >> (8 * i)) & 0xFF);
  }
  return v;
}

/// True iff `v` is churn_value(k, s) for some salt s.
bool churn_value_ok(std::int64_t k, const std::string& v) {
  if (v.size() < 16) return false;
  std::uint64_t rk = 0, salt = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    rk |= static_cast<std::uint64_t>(static_cast<unsigned char>(v[i]))
          << (8 * i);
    salt |= static_cast<std::uint64_t>(static_cast<unsigned char>(v[8 + i]))
            << (8 * i);
  }
  return rk == static_cast<std::uint64_t>(k) && v == churn_value(k, salt);
}

TEST_F(KvStoreTest, PutGetRemoveRoundTrip) {
  KvStore kv(4, 64);
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_TRUE(kv.put(1, "one"));
  EXPECT_EQ(kv.get(1), "one");
  EXPECT_TRUE(kv.contains(1));

  // Overwrite: not a fresh insert, new value visible afterwards.
  EXPECT_FALSE(kv.put(1, "uno"));
  EXPECT_EQ(kv.get(1), "uno");

  EXPECT_TRUE(kv.remove(1));
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_FALSE(kv.remove(1));
}

TEST_F(KvStoreTest, VariableLengthValuesRoundTrip) {
  KvStore kv(2, 64);
  // Lengths straddle the pool's 1024-byte size-class boundary (the value
  // slab allocates headers + payload from both paths).
  const std::size_t lens[] = {0, 1, 15, 16, 100, 1000, 1020, 1024, 1025,
                              4096, 65536};
  std::int64_t k = 0;
  for (const std::size_t len : lens) {
    const std::string v(len, static_cast<char>('a' + (k % 26)));
    EXPECT_TRUE(kv.put(k, v));
    const auto got = kv.get(k);
    ASSERT_TRUE(got.has_value()) << "len " << len;
    EXPECT_EQ(*got, v) << "len " << len;
    ++k;
  }
  EXPECT_EQ(kv.size(), std::size(lens));
}

TEST_F(KvStoreTest, OverwriteChangesValueLength) {
  KvStore kv(2, 64);
  kv.put(7, std::string(2000, 'x'));
  kv.put(7, "short");
  EXPECT_EQ(kv.get(7), "short");
  kv.put(7, std::string(3000, 'y'));
  EXPECT_EQ(kv.get(7)->size(), 3000u);
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, KeysSpreadAcrossAllShards) {
  KvStore kv(8, 64);
  for (std::int64_t k = 0; k < 4'000; ++k) {
    kv.put(k, "v");
  }
  EXPECT_EQ(kv.size(), 4'000u);
  for (std::size_t i = 0; i < kv.nshards(); ++i) {
    // Uniform routing: each shard holds 500 ± a wide tolerance.
    EXPECT_GT(kv.shard(i).size(), 300u) << "shard " << i;
    EXPECT_LT(kv.shard(i).size(), 700u) << "shard " << i;
  }
}

TEST_F(KvStoreTest, ShardRoutingIsStable) {
  KvStore a(8, 64);
  KvStore b(8, 64);
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(a.shard_index(k), b.shard_index(k));
  }
}

TEST_F(KvStoreTest, ReservedSentinelKeysAreRejected) {
  // INT64_MIN/MAX are the Harris lists' sentinel keys: put must refuse
  // them (a put would otherwise corrupt the shared tail sentinel), and
  // reads must treat them as absent rather than matching a sentinel.
  KvStore kv(2, 64);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(kv.put(kMin, "x"), std::invalid_argument);
  EXPECT_THROW(kv.put(kMax, "x"), std::invalid_argument);
  EXPECT_EQ(kv.get(kMin), std::nullopt);
  EXPECT_EQ(kv.get(kMax), std::nullopt);
  EXPECT_FALSE(kv.contains(kMax));
  EXPECT_FALSE(kv.remove(kMax));
  // Neighbouring keys are ordinary.
  EXPECT_TRUE(kv.put(kMax - 1, "edge"));
  EXPECT_EQ(kv.get(kMax - 1), "edge");
}

TEST_F(KvStoreTest, FreshStoreHasGenerationOne) {
  KvStore kv(2, 64);
  EXPECT_EQ(kv.generation(), 1u);
  EXPECT_EQ(kv.nshards(), 2u);
  ASSERT_NE(kv.superblock(), nullptr);
  EXPECT_EQ(kv.superblock()->magic, KvStore::kMagic);
}

TEST_F(KvStoreTest, PersistedLayoutIsPinned) {
  // Every file on disk carries these: a renamed layout string, a bumped
  // version or a moved root word makes every existing file fail to open
  // with IncompatibleStore.
  using Ordered = OrderedStore<HashedWords, Automatic>;
  EXPECT_EQ(KvStore::layout_tag(), 0x6d71a828u);  // FNV-1a of "hashed"
  EXPECT_EQ(Ordered::layout_tag(), 0xe663be3au);  // of "ordered-skiplist"
  EXPECT_EQ(KvStore::kVersion, 3u);
  EXPECT_EQ(Ordered::kVersion, 3u);
  using Roots = Ordered::Shard_::Roots;
  EXPECT_EQ(sizeof(Roots), 16u);
  EXPECT_EQ(offsetof(Roots, head), 0u);
  EXPECT_EQ(offsetof(Roots, tail), 8u);
}

TEST_F(KvStoreTest, RecoverRejectsCorruptSuperblock) {
  KvStore kv(2, 64);
  auto* sb = kv.superblock();
  const auto saved = sb->magic;
  sb->magic = 0xBAD;
  EXPECT_THROW((void)KvStore::recover(sb), std::runtime_error);
  sb->magic = saved;
}

TEST_F(KvStoreTest, ShardMoveResetsTheSourceCounter) {
  // Regression: the move constructor used to copy approx_size_ and leave
  // the moved-from shard's counter populated — a husk summed by anything
  // still holding it would double-count every key.
  Shard<HashedWords, Automatic, ds::HashTable> a(16);
  ASSERT_TRUE(a.put(1, "one"));
  ASSERT_TRUE(a.put(2, "two"));
  ASSERT_EQ(a.size(), 2u);
  Shard<HashedWords, Automatic, ds::HashTable> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u) << "moved-from counter must be zeroed";
  recl::Ebr::Guard g;  // find's caller pins the records it reads
  const Record* one = b.find(1);
  const Record* two = b.find(2);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(one->view(), "one");
  EXPECT_EQ(two->view(), "two");
}

TEST_F(KvStoreTest, OverwriteChurnNeverHidesAKey) {
  // The tentpole's acceptance criterion on the hashed backend: under
  // 100% overwrite churn on a fixed key set, a concurrent get must
  // observe the old or the new complete value — never absence, never a
  // torn mix. (Before the in-place value CAS, put was remove + insert
  // and this test's absence counter fired readily.)
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 64;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, churn_value(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> absences{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      std::uint64_t salt = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        EXPECT_FALSE(kv.put(k, churn_value(k, salt++)))
            << "an overwrite must never report a fresh insert";
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&kv, &absences, &torn, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < 30'000; ++i) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        const auto v = kv.get(k);
        if (!v) {
          absences.fetch_add(1);
        } else if (!churn_value_ok(k, *v)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(absences.load(), 0u)
      << "a key under pure overwrite churn transiently disappeared";
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

TEST_F(KvStoreTest, SizeIsExactUnderPureOverwriteChurn) {
  // Overwrites no longer touch the per-shard counters (no remove+insert
  // sub/add dance), so size() reads exactly N even mid-churn — not just
  // at quiescence.
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 128;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, "v0");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 97 + 13);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        kv.put(k, churn_value(k, rng()));
      }
    });
  }
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(kv.size(), static_cast<std::size_t>(kKeys))
        << "size() dipped during an in-flight overwrite";
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

// --- batched multi-op path ---------------------------------------------------

/// Batch lengths around the multi-ops' probe-pipeline chunk of 16 keys: a
/// batch of one, one chunk short, exact and one over, and three chunks.
constexpr std::size_t kBatchLens[] = {1, 15, 16, 17, 40};

/// A batch of `len` keys over a store holding the even keys below 100:
/// hits and misses alternate, every fourth key repeats an earlier one,
/// and (when len > 1) the middle one is a reserved sentinel.
std::vector<std::int64_t> mixed_batch(std::size_t len) {
  std::vector<std::int64_t> keys;
  for (std::size_t i = 0; i < len; ++i) {
    keys.push_back(i % 4 == 3 ? keys[i / 2]
                              : static_cast<std::int64_t>(i * 37 % 100));
  }
  if (len > 1) keys[len / 2] = std::numeric_limits<std::int64_t>::max();
  return keys;
}

TEST_F(KvStoreTest, MultiGetMatchesScalarLoop) {
  KvStore kv(4, 64);
  for (std::int64_t k = 0; k < 100; k += 2) {
    kv.put(k, churn_value(k, 7));  // even keys present, odd keys absent
  }
  // Mixed hits/misses plus duplicate keys in one batch.
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 100; ++k) keys.push_back(k);
  keys.push_back(4);   // duplicate hit
  keys.push_back(5);   // duplicate miss
  const auto got = kv.multi_get(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i], kv.get(keys[i])) << "key " << keys[i];
  }
  for (const std::size_t len : kBatchLens) {
    const std::vector<std::int64_t> batch = mixed_batch(len);
    const auto out = kv.multi_get(batch);
    ASSERT_EQ(out.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(out[i], kv.get(batch[i])) << "len " << len << " i " << i;
    }
  }
}

TEST_F(KvStoreTest, MultiGetVisitsEachIndexOnceInOrder) {
  // The visitor contract: fn(i, v) exactly once per key, i ascending,
  // each v the key's value — across every chunk boundary.
  KvStore kv(4, 64);
  for (std::int64_t k = 0; k < 100; k += 2) kv.put(k, churn_value(k, 3));
  for (const std::size_t len : kBatchLens) {
    const std::vector<std::int64_t> batch = mixed_batch(len);
    std::vector<std::size_t> order;
    std::vector<std::optional<std::string>> seen;
    kv.multi_get(batch, [&](std::size_t i, std::optional<std::string_view> v) {
      order.push_back(i);
      seen.emplace_back(v);
    });
    ASSERT_EQ(order.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(order[i], i) << "len " << len;
      EXPECT_EQ(seen[i], kv.get(batch[i])) << "len " << len << " i " << i;
    }
  }
}

TEST_F(KvStoreTest, MultiPutMatchesScalarSemantics) {
  // The batched path must be observationally identical to a scalar loop:
  // same fresh-insert flags, same final contents.
  KvStore batched(4, 64);
  KvStore scalar(4, 64);
  std::vector<std::pair<std::int64_t, std::string>> store;
  for (std::int64_t k = 0; k < 64; ++k) {
    store.emplace_back(k, churn_value(k, 1));
  }
  for (std::int64_t k = 0; k < 32; ++k) {
    batched.put(k, churn_value(k, 0));  // first half becomes overwrites
    scalar.put(k, churn_value(k, 0));
  }
  std::vector<std::pair<std::int64_t, std::string_view>> kvs;
  for (const auto& [k, v] : store) kvs.emplace_back(k, v);

  const auto fresh = batched.multi_put(kvs);
  ASSERT_EQ(fresh.size(), kvs.size());
  for (std::size_t i = 0; i < kvs.size(); ++i) {
    const bool scalar_fresh = scalar.put(kvs[i].first, kvs[i].second);
    EXPECT_EQ(static_cast<bool>(fresh[i]), scalar_fresh) << "key "
                                                         << kvs[i].first;
  }
  EXPECT_EQ(batched.size(), scalar.size());
  for (std::int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(batched.get(k), scalar.get(k)) << "key " << k;
  }

  // The mixed batches: with their reserved key the whole batch is
  // rejected before any element applies; without it (hits overwrite,
  // misses insert, duplicates overwrite again) it matches a scalar loop.
  for (const std::size_t len : kBatchLens) {
    KvStore b(4, 64);
    KvStore s(4, 64);
    for (std::int64_t k = 0; k < 100; k += 2) {
      b.put(k, churn_value(k, 0));
      s.put(k, churn_value(k, 0));
    }
    const std::vector<std::int64_t> keys = mixed_batch(len);
    std::vector<std::string> vals;
    for (std::size_t i = 0; i < len; ++i) {
      vals.push_back(churn_value(keys[i], i + 1));
    }
    std::vector<std::pair<std::int64_t, std::string_view>> batch;
    for (std::size_t i = 0; i < len; ++i) batch.emplace_back(keys[i], vals[i]);
    if (len > 1) {
      EXPECT_THROW((void)b.multi_put(batch), std::invalid_argument);
      EXPECT_EQ(b.size(), 50u) << "len " << len;
      batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(len / 2));
    }
    const auto flags = b.multi_put(batch);
    ASSERT_EQ(flags.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(static_cast<bool>(flags[i]),
                s.put(batch[i].first, batch[i].second))
          << "len " << len << " i " << i;
    }
    EXPECT_EQ(b.size(), s.size()) << "len " << len;
    for (std::int64_t k = 0; k < 100; ++k) {
      EXPECT_EQ(b.get(k), s.get(k)) << "len " << len << " key " << k;
    }
  }
}

TEST_F(KvStoreTest, MultiRemoveMatchesScalarLoop) {
  KvStore kv(4, 64);
  for (std::int64_t k = 0; k < 40; ++k) kv.put(k, "v");
  // Present, absent, duplicate (second occurrence sees it gone), and a
  // reserved sentinel (reports false, like remove()).
  const std::vector<std::int64_t> keys = {
      3, 100, 7, 3, std::numeric_limits<std::int64_t>::max()};
  const auto out = kv.multi_remove(keys);
  ASSERT_EQ(out.size(), keys.size());
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  EXPECT_TRUE(out[2]);
  EXPECT_FALSE(out[3]) << "duplicate remove in one batch: second loses";
  EXPECT_FALSE(out[4]);
  EXPECT_EQ(kv.get(3), std::nullopt);
  EXPECT_EQ(kv.get(7), std::nullopt);
  EXPECT_EQ(kv.size(), 38u);

  for (const std::size_t len : kBatchLens) {
    KvStore b(4, 64);
    KvStore s(4, 64);
    for (std::int64_t k = 0; k < 100; k += 2) {
      b.put(k, "v");
      s.put(k, "v");
    }
    const std::vector<std::int64_t> batch = mixed_batch(len);
    const auto removed = b.multi_remove(batch);
    ASSERT_EQ(removed.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(static_cast<bool>(removed[i]), s.remove(batch[i]))
          << "len " << len << " i " << i;
    }
    EXPECT_EQ(b.size(), s.size()) << "len " << len;
    for (std::int64_t k = 0; k < 100; ++k) {
      EXPECT_EQ(b.contains(k), s.contains(k)) << "len " << len << " key " << k;
    }
  }
}

TEST_F(KvStoreTest, MultiPutDuplicateKeysApplyInOrderLastWins) {
  // Documented duplicate semantics: every occurrence is applied in batch
  // order, so the last value wins and at most the first occurrence can be
  // a fresh insert.
  KvStore kv(4, 64);
  kv.put(5, "pre");
  const std::vector<std::pair<std::int64_t, std::string_view>> kvs = {
      {9, "v1"}, {5, "a"}, {9, "v2"}, {9, "v3"}};
  const auto fresh = kv.multi_put(kvs);
  EXPECT_TRUE(fresh[0]) << "first occurrence of 9 inserts";
  EXPECT_FALSE(fresh[1]) << "5 was prefilled";
  EXPECT_FALSE(fresh[2]) << "second occurrence overwrites";
  EXPECT_FALSE(fresh[3]);
  EXPECT_EQ(kv.get(9), "v3");
  EXPECT_EQ(kv.get(5), "a");
  EXPECT_EQ(kv.size(), 2u) << "duplicates count once";
}

TEST_F(KvStoreTest, MultiOpsHandleEmptyAndSingletonBatches) {
  KvStore kv(2, 64);
  EXPECT_TRUE(kv.multi_get(std::vector<std::int64_t>{}).empty());
  EXPECT_TRUE(kv.multi_put({}).empty());
  EXPECT_TRUE(kv.multi_remove(std::vector<std::int64_t>{}).empty());
  const std::vector<std::pair<std::int64_t, std::string_view>> one = {
      {1, "x"}};
  EXPECT_TRUE(kv.multi_put(one)[0]);
  const auto got = kv.multi_get(std::vector<std::int64_t>{1});
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(*got[0], "x");
  EXPECT_TRUE(kv.multi_remove(std::vector<std::int64_t>{1})[0]);
  EXPECT_EQ(kv.size(), 0u);
}

TEST_F(KvStoreTest, MultiPutReservedKeyThrowsBeforeAnySideEffect) {
  // Validation is all-or-nothing: a reserved sentinel anywhere in the
  // batch must reject the whole batch before any element is applied.
  KvStore kv(2, 64);
  const std::vector<std::pair<std::int64_t, std::string_view>> kvs = {
      {1, "a"}, {std::numeric_limits<std::int64_t>::min(), "boom"}, {2, "b"}};
  EXPECT_THROW((void)kv.multi_put(kvs), std::invalid_argument);
  EXPECT_EQ(kv.get(1), std::nullopt) << "no element may be applied";
  EXPECT_EQ(kv.get(2), std::nullopt);
  EXPECT_EQ(kv.size(), 0u);
  // Reserved keys in read/remove batches are simply absent, as scalar.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(kv.multi_get(std::vector<std::int64_t>{kMax})[0], std::nullopt);
}

TEST_F(KvStoreTest, MultiGetUnderConcurrentUpsertsNeverMissesACommittedKey) {
  // The batched churn analogue of OverwriteChurnNeverHidesAKey, and the
  // TSan target for the multi-op path (this suite carries the kv label):
  // while writers overwrite a fixed committed key set through both the
  // scalar and the batched put paths, a multi_get batch must never
  // observe absence or a torn value — the deferred-fence publish is a
  // plain atomic CAS to readers.
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 48;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, churn_value(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> absences{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      std::uint64_t salt = 1;
      std::vector<std::pair<std::int64_t, std::string>> vals;
      std::vector<std::pair<std::int64_t, std::string_view>> kvs;
      while (!stop.load(std::memory_order_relaxed)) {
        if (t == 0) {  // scalar overwrites
          const auto k = static_cast<std::int64_t>(rng() % kKeys);
          kv.put(k, churn_value(k, salt++));
        } else {  // batched overwrites
          vals.clear();
          kvs.clear();
          for (int i = 0; i < 8; ++i) {
            const auto k = static_cast<std::int64_t>(rng() % kKeys);
            vals.emplace_back(k, churn_value(k, salt++));
          }
          for (const auto& [k, v] : vals) kvs.emplace_back(k, v);
          kv.multi_put(kvs);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&kv, &absences, &torn, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      std::vector<std::int64_t> keys;
      for (int i = 0; i < 4'000; ++i) {
        keys.clear();
        for (int j = 0; j < 12; ++j) {
          keys.push_back(static_cast<std::int64_t>(rng() % kKeys));
        }
        const auto got = kv.multi_get(keys);
        for (std::size_t j = 0; j < keys.size(); ++j) {
          if (!got[j]) {
            absences.fetch_add(1);
          } else if (!churn_value_ok(keys[j], *got[j])) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(absences.load(), 0u)
      << "a committed key transiently vanished from a multi_get";
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

TEST_F(KvStoreTest, ConcurrentMixedOpsKeepValuesConsistent) {
  // Writers only ever store the deterministic pattern for a key; any read
  // must observe either absence or that exact pattern (never a torn or
  // cross-wired record).
  KvStore kv(4, 256);
  constexpr std::int64_t kRange = 512;
  constexpr int kThreads = 4;
  auto value_for = [](std::int64_t k) {
    return std::string(static_cast<std::size_t>(17 + 13 * (k % 97)),
                       static_cast<char>('A' + k % 23));
  };

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < 20'000; ++i) {
        const auto k = static_cast<std::int64_t>(rng() % kRange);
        switch (rng() % 4) {
          case 0:
            kv.put(k, value_for(k));
            break;
          case 1:
            kv.remove(k);
            break;
          default: {
            const auto v = kv.get(k);
            if (v && *v != value_for(k)) bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0u) << "reads must never observe torn values";

  // Post-quiescence: store agrees with a sequential sweep oracle.
  std::size_t present = 0;
  for (std::int64_t k = 0; k < kRange; ++k) {
    const auto v = kv.get(k);
    if (v) {
      EXPECT_EQ(*v, value_for(k)) << k;
      ++present;
    }
  }
  EXPECT_EQ(kv.size(), present);
}

// --- per-op fence budget -----------------------------------------------------

/// (pwbs, pfences) one call issues.
using Persists = std::pair<std::uint64_t, std::uint64_t>;

/// Issued pwbs and pfences of one call. The thread starts it with nothing
/// pending (every op below ends on an issued or skipped fence).
template <class F>
Persists persists_of(F&& op) {
  const pmem::StatsSnapshot before = pmem::stats_snapshot();
  op();
  const pmem::StatsSnapshot d = pmem::stats_snapshot() - before;
  return {d.pwbs, d.pfences};
}

/// Exact pwbs and pfences per op. pmem::pfence skips every fence with no
/// pwb of its thread to order: a read issues none, and a put pays its
/// record fence and its publish fence but not Algorithm 4's leading and
/// completion fences. An overwrite flushes its one-line record and the
/// value word it replaces. Fresh puts and removes are pinned on the
/// hashed layout only, as pfences: a skiplist node's cost follows its
/// random tower height, and a node can straddle a cache line.
template <class KV>
void expect_fence_budget(const char* config) {
  SCOPED_TRACE(config);
  KV kv(4, 64, KeyRange{0, 128});  // hashed stores ignore the range
  std::vector<std::pair<std::int64_t, std::string_view>> overwrites;
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 16; ++k) {
    kv.put(k, "v");
    overwrites.emplace_back(k, "w");
    keys.push_back(k);
  }
  pmem::pfence();

  const Persists none{0, 0};
  EXPECT_EQ(persists_of([&] { (void)kv.get(1); }), none) << "get hit";
  EXPECT_EQ(persists_of([&] { (void)kv.get(100); }), none) << "get miss";
  EXPECT_EQ(persists_of([&] { (void)kv.contains(1); }), none) << "contains";
  EXPECT_EQ(persists_of([&] { (void)kv.multi_get(keys); }), none)
      << "multi_get";
  EXPECT_EQ(persists_of([&] { kv.put(1, "x"); }), Persists(2, 2))
      << "overwrite put";
  if constexpr (!KV::kOrdered) {
    EXPECT_EQ(persists_of([&] { kv.put(100, "x"); }).second, 3u)
        << "fresh put";
    EXPECT_EQ(persists_of([&] { kv.remove(100); }).second, 3u)
        << "remove hit";
  }
  EXPECT_EQ(persists_of([&] { kv.multi_put(overwrites); }), Persists(32, 2))
      << "multi_put";
}

TEST_F(KvStoreTest, PerOpFenceBudgetIsExact) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  expect_fence_budget<Store<HashedWords, Automatic>>("HashedWords/Automatic");
  expect_fence_budget<Store<HashedWords, NVTraverse>>("HashedWords/NVTraverse");
  expect_fence_budget<Store<LapWords, Automatic>>("LapWords/Automatic");
  expect_fence_budget<Store<LapWords, NVTraverse>>("LapWords/NVTraverse");
  expect_fence_budget<OrderedStore<HashedWords, Automatic>>(
      "ordered HashedWords/Automatic");
  expect_fence_budget<OrderedStore<HashedWords, NVTraverse>>(
      "ordered HashedWords/NVTraverse");
  expect_fence_budget<OrderedStore<LapWords, Automatic>>(
      "ordered LapWords/Automatic");
  expect_fence_budget<OrderedStore<LapWords, NVTraverse>>(
      "ordered LapWords/NVTraverse");
}

// --- pmem footprint ----------------------------------------------------------

/// Pool bytes one allocation of `n` bytes takes.
constexpr std::size_t block_bytes(std::size_t n) {
  return (n + pmem::Pool::kGranularity - 1) / pmem::Pool::kGranularity *
         pmem::Pool::kGranularity;
}

/// Pool growth of a hashed store, empty and then with one 100 B value per
/// bucket. A bucket is one head word; the 2 B per bucket (or key) cover
/// chunk rounding: each root block rounds up to a cache line, and the
/// first small allocation on a fresh pool carves a whole 64 KiB chunk.
template <class Words>
void expect_footprint(const char* config, std::size_t pool_bytes) {
  SCOPED_TRACE(config);
  using KV = Store<Words, Automatic>;
  using Link = typename KV::Shard_::Set::Link;
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kBuckets = 16'384;
  constexpr std::size_t kKeys = kShards * kBuckets;
  constexpr std::size_t kSlack = 2;
  const std::string value(100, 'v');

  pmem::Pool::instance().reinit(pool_bytes);
  const std::size_t bump0 = pmem::Pool::instance().bump_used();
  KV kv(kShards, kBuckets);
  const std::size_t empty = pmem::Pool::instance().bump_used() - bump0;
  EXPECT_LE(empty, kKeys * (sizeof(Link) + kSlack))
      << "empty table: " << static_cast<double>(empty) / kKeys
      << " B per bucket";

  for (std::int64_t k = 0; k < static_cast<std::int64_t>(kKeys); ++k) {
    kv.put(k, value);
  }
  const std::size_t loaded = pmem::Pool::instance().bump_used() - bump0;
  const std::size_t per_key =
      block_bytes(sizeof(typename KV::Shard_::Node)) +
      block_bytes(Record::bytes(value.size())) + sizeof(Link) + kSlack;
  EXPECT_LE(loaded, kKeys * per_key)
      << "loaded: " << static_cast<double>(loaded) / kKeys << " B per key";
  EXPECT_EQ(kv.size(), kKeys);
}

TEST_F(KvStoreTest, HashedFootprintIsOneHeadWordPerBucket) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  expect_footprint<HashedWords>("HashedWords", kPoolBytes);
  expect_footprint<LapWords>("LapWords", kPoolBytes);
  // The adjacent counter doubles every word, the head words included.
  expect_footprint<AdjacentWords>("AdjacentWords", kPoolBytes);
}

}  // namespace
}  // namespace flit::kv
