// Recovery tests for the sharded KV store — durability proven two ways:
//
//   1. Simulated power failure (kSimCrash): no completed put/remove is
//      lost across SimMemory::crash(); Store::recover rebuilds every
//      shard from the superblock and bumps the generation stamp durably.
//      A VolatileWords negative control shows the harness has teeth.
//
//   2. Real restart (FileRegion): a store closed and reopened from its
//      backing file recovers all shards, every committed record, and the
//      session-counting generation stamp.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <fcntl.h>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using K = std::int64_t;

/// Deterministic variable-length payload: exercises the record slab on
/// both sides of the pool's 1024-byte size-class boundary.
std::string value_for(K k, std::uint64_t salt) {
  const std::size_t len =
      1 + static_cast<std::size_t>((static_cast<std::uint64_t>(k) * 131 +
                                    salt * 257) %
                                   2048);
  return std::string(len, static_cast<char>('a' + (k + salt) % 26));
}

// --- simulated power failure -----------------------------------------------

template <class StoreT>
class KvCrashTest : public PmemTest {
 protected:
  void SetUp() override {
    PmemTest::SetUp();
    recl::Ebr::instance().set_reclaim(false);  // no reuse across a crash
    pmem::Pool::instance().register_with_sim();
    pmem::set_backend(pmem::Backend::kSimCrash);
  }
  void TearDown() override {
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    recl::Ebr::instance().set_reclaim(true);
    PmemTest::TearDown();
  }
};

// The sweep covers every persistent word implementation (including
// link-and-persist, whose bit-1 dirty flag must coexist with the value
// word's bit-0 claim mark) and both backend layouts — the ordered store
// recovers through SkipList::recover's index rebuild, which the
// value-claim protocol must not confuse.
using CrashConfigs = ::testing::Types<
    Store<HashedWords, Automatic>, Store<HashedWords, NVTraverse>,
    Store<HashedWords, Manual>, Store<AdjacentWords, Automatic>,
    Store<PerLineWords, Automatic>, Store<LapWords, Automatic>,
    Store<LapWords, NVTraverse>, OrderedStore<HashedWords, Manual>,
    OrderedStore<LapWords, Automatic>>;

TYPED_TEST_SUITE(KvCrashTest, CrashConfigs);

TYPED_TEST(KvCrashTest, CompletedPutsSurviveSimulatedCrash) {
  constexpr K kRange = 96;
  TypeParam kv(4, 64);
  auto* sb = kv.superblock();

  std::mt19937_64 rng(42);
  std::map<K, std::string> oracle;
  for (std::uint64_t i = 0; i < 600; ++i) {
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
  EXPECT_EQ(recovered.size(), oracle.size());
}

TYPED_TEST(KvCrashTest, GenerationStampSurvivesRepeatedCrashes) {
  constexpr K kRange = 48;
  TypeParam owner(2, 32);
  auto* sb = owner.superblock();
  TypeParam* cur = &owner;
  std::optional<TypeParam> holder;

  std::mt19937_64 rng(7);
  std::map<K, std::string> oracle;
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 150; ++i) {
      const K k = static_cast<K>(rng() % kRange);
      if (rng() % 2 == 0) {
        std::string v = value_for(k, round * 1000 + i);
        cur->put(k, v);
        oracle[k] = std::move(v);
      } else {
        cur->remove(k);
        oracle.erase(k);
      }
    }
    pmem::SimMemory::instance().crash();
    holder.emplace(TypeParam::recover(sb));
    cur = &*holder;
    ASSERT_EQ(cur->generation(), round + 2) << "round " << round;
    for (const auto& [k, v] : oracle) {
      const auto got = cur->get(k);
      ASSERT_TRUE(got.has_value()) << "round " << round << " key " << k;
      ASSERT_EQ(*got, v) << "round " << round << " key " << k;
    }
    ASSERT_EQ(cur->size(), oracle.size()) << "round " << round;
  }
}

TYPED_TEST(KvCrashTest, ConcurrentOpsThenCrash) {
  constexpr K kRange = 128;
  constexpr int kThreads = 4;
  TypeParam kv(4, 64);
  auto* sb = kv.superblock();

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&kv, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 101 + 11);
      for (std::uint64_t i = 0; i < 1'000; ++i) {
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
  for (K k = 0; k < kRange; ++k) {
    const auto got = recovered.get(k);
    const auto it = before.find(k);
    if (it == before.end()) {
      EXPECT_EQ(got, std::nullopt) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(*got, it->second) << k;
    }
  }
}

TYPED_TEST(KvCrashTest, CrashDuringOverwriteRecoversOldOrNewValue) {
  // Instruction-granularity durability of the in-place overwrite: capture
  // the persistent image at *every* pfence boundary inside a single
  // put-over-existing-key, reboot into each, and require the key to
  // recover with the old or the new complete value — never absent (the
  // closed remove+insert gap), never torn, never with collateral damage
  // to a neighboring key. Values straddle multiple cache lines so a
  // value-CAS published before the record's persist_range would show up
  // as a torn read here.
  struct Ctx {
    std::uint64_t fence_count = 0;
    std::uint64_t target = 0;
    bool armed = false;
    std::vector<std::byte> image;
    static void hook(void* p) {
      auto* c = static_cast<Ctx*>(p);
      if (!c->armed) return;
      if (++c->fence_count == c->target) {
        c->image = pmem::SimMemory::instance().clone_shadow(0);
      }
    }
  };

  const std::string vold(120, 'o');   // > one cache line
  const std::string vnew(3000, 'n');  // multi-line record
  const std::string vside(40, 's');
  constexpr K kKey = 7, kSide = 8;

  // Returns the number of fences one overwrite executes; when `target`
  // lands on one of them, reboots into the captured image and checks it.
  const auto run = [&](std::uint64_t target) -> std::uint64_t {
    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(flit::test::PmemTest::kPoolBytes);
    pmem::Pool::instance().register_with_sim();

    TypeParam kv(2, 32);
    auto* sb = kv.superblock();
    kv.put(kKey, vold);
    kv.put(kSide, vside);

    Ctx ctx;
    ctx.target = target;
    pmem::SimMemory::instance().set_pfence_hook(&Ctx::hook, &ctx);
    ctx.armed = true;
    EXPECT_FALSE(kv.put(kKey, vnew));  // the in-flight overwrite
    ctx.armed = false;
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);

    if (!ctx.image.empty()) {
      const std::vector<std::byte> final_state =
          pmem::SimMemory::instance().clone_volatile(0);
      pmem::SimMemory::instance().overwrite_volatile(ctx.image, 0);
      {
        TypeParam recovered = TypeParam::recover(sb);
        const auto got = recovered.get(kKey);
        EXPECT_TRUE(got.has_value())
            << "key absent after a crash at overwrite fence #" << target
            << " — the remove+insert visibility gap is back";
        if (got.has_value()) {
          EXPECT_TRUE(*got == vold || *got == vnew)
              << "torn record at fence #" << target << " (got "
              << got->size() << " bytes of '" << (*got)[0] << "')";
        }
        EXPECT_EQ(recovered.get(kSide), vside) << "fence #" << target;
        EXPECT_EQ(recovered.size(), 2u) << "fence #" << target;
      }
      pmem::SimMemory::instance().overwrite_volatile(final_state, 0);
    }
    return ctx.fence_count;
  };

  const std::uint64_t total = run(~std::uint64_t{0});
  ASSERT_GT(total, 0u) << "an overwrite must fence at least once";
  for (std::uint64_t t = 1; t <= total; ++t) {
    run(t);
    if (::testing::Test::HasFailure()) return;  // first bad fence is enough
  }
}

TYPED_TEST(KvCrashTest, CrashDuringRecoveryRecovers) {
  // Recovery writes the image it recovers (the generation stamp, and the
  // ordered shards' volatile index levels in place), so a crash in the
  // middle of it must leave an image that recovers too. Capture the
  // persistent image at the pfences of one Store::recover — at most
  // kImages of them, evenly spread — and recover each again: every
  // committed key byte-exact, removed keys absent, size() exact, and an
  // ordered scan equal to the oracle.
  constexpr K kRange = 96;
  constexpr std::uint64_t kImages = 8;
  TypeParam kv(4, 64, KeyRange{0, kRange});
  auto* sb = kv.superblock();

  std::mt19937_64 rng(99);
  std::map<K, std::string> oracle;
  for (std::uint64_t i = 0; i < 600; ++i) {
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
  const std::vector<std::byte> crashed =
      pmem::SimMemory::instance().clone_volatile(0);

  struct Ctx {
    std::uint64_t fences = 0;
    std::uint64_t target = 0;
    std::vector<std::byte> image;
    static void hook(void* p) {
      auto* c = static_cast<Ctx*>(p);
      if (++c->fences == c->target) {
        c->image = pmem::SimMemory::instance().clone_shadow(0);
      }
    }
  };
  // Recover the crash image with the hook armed at fence #target; returns
  // the recovery's fence count and, in ctx.image, the image captured there.
  const auto recover_crashed = [&](Ctx& ctx) {
    pmem::SimMemory::instance().overwrite_volatile(crashed, 0);
    pmem::SimMemory::instance().persist_all();
    pmem::SimMemory::instance().set_pfence_hook(&Ctx::hook, &ctx);
    { TypeParam r = TypeParam::recover(sb); }
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    return ctx.fences;
  };

  Ctx count;
  const std::uint64_t total = recover_crashed(count);
  ASSERT_GT(total, 0u) << "recovery fences its generation bump";
  const std::uint64_t step = (total + kImages - 1) / kImages;
  for (std::uint64_t target = step; target <= total; target += step) {
    Ctx ctx;
    ctx.target = target;
    recover_crashed(ctx);
    ASSERT_FALSE(ctx.image.empty()) << "fence #" << target;
    pmem::SimMemory::instance().overwrite_volatile(ctx.image, 0);
    TypeParam recovered = TypeParam::recover(sb);
    for (K k = 0; k < kRange; ++k) {
      const auto got = recovered.get(k);
      const auto it = oracle.find(k);
      if (it == oracle.end()) {
        EXPECT_EQ(got, std::nullopt)
            << "removed key " << k << " back after fence #" << target;
      } else {
        ASSERT_TRUE(got.has_value())
            << "key " << k << " lost in a crash at fence #" << target;
        EXPECT_EQ(*got, it->second) << "key " << k << ", fence #" << target;
      }
    }
    EXPECT_EQ(recovered.size(), oracle.size()) << "fence #" << target;
    if constexpr (TypeParam::kOrdered) {
      const auto out = recovered.scan(0, static_cast<std::size_t>(kRange));
      const std::vector<std::pair<K, std::string>> want(oracle.begin(),
                                                         oracle.end());
      EXPECT_EQ(out, want) << "scan after a crash at fence #" << target;
    }
    if (::testing::Test::HasFailure()) return;  // first bad fence is enough
  }
}

TYPED_TEST(KvCrashTest, MultiPutCrashRecoversEachElementAtomically) {
  // The coalesced-fence contract of the batched write path: a multi_put
  // persists ALL of its records under one pfence before publishing any
  // element, publishes with deferred-fence CASes, and retires superseded
  // records only after the final covering fence. Capture the persistent
  // image at every pfence boundary inside one mixed batch (overwrites,
  // fresh inserts, an in-batch duplicate) and reboot into each: every
  // element must recover atomically — an overwritten key with its old or
  // a new complete value, a fresh key fully present or fully absent —
  // and never torn, with no collateral damage to a key outside the
  // batch. Multi-line values make a publish-before-record-persist bug
  // show up as a torn read here.
  struct Ctx {
    std::uint64_t fence_count = 0;
    std::uint64_t target = 0;
    bool armed = false;
    std::vector<std::byte> image;
    static void hook(void* p) {
      auto* c = static_cast<Ctx*>(p);
      if (!c->armed) return;
      if (++c->fence_count == c->target) {
        c->image = pmem::SimMemory::instance().clone_shadow(0);
      }
    }
  };

  const std::string vold(150, 'o');    // multi-line old value
  const std::string vnew(900, 'n');    // multi-line new value
  const std::string vdup1(300, '1');   // duplicate key, first occurrence
  const std::string vdup2(500, '2');   // duplicate key, last (wins)
  const std::string vins(700, 'i');    // fresh insert
  const std::string vside(40, 's');    // outside the batch
  constexpr K kOver1 = 3, kOver2 = 11, kDup = 21, kIns1 = 33, kIns2 = 41,
              kSide = 55;

  const auto run = [&](std::uint64_t target) -> std::uint64_t {
    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(flit::test::PmemTest::kPoolBytes);
    pmem::Pool::instance().register_with_sim();

    TypeParam kv(2, 32);
    auto* sb = kv.superblock();
    kv.put(kOver1, vold);
    kv.put(kOver2, vold);
    kv.put(kDup, vold);
    kv.put(kSide, vside);

    const std::vector<std::pair<K, std::string_view>> batch = {
        {kOver1, vnew}, {kIns1, vins}, {kDup, vdup1},
        {kOver2, vnew}, {kDup, vdup2}, {kIns2, vins}};

    Ctx ctx;
    ctx.target = target;
    pmem::SimMemory::instance().set_pfence_hook(&Ctx::hook, &ctx);
    ctx.armed = true;
    const auto fresh = kv.multi_put(batch);
    ctx.armed = false;
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    EXPECT_TRUE(fresh[1] && fresh[5]) << "the fresh keys insert";
    EXPECT_FALSE(fresh[0] || fresh[3] || fresh[4]) << "overwrites + dup";

    if (!ctx.image.empty()) {
      const std::vector<std::byte> final_state =
          pmem::SimMemory::instance().clone_volatile(0);
      pmem::SimMemory::instance().overwrite_volatile(ctx.image, 0);
      {
        TypeParam recovered = TypeParam::recover(sb);
        const auto check_overwrite = [&](K k) {
          const auto got = recovered.get(k);
          ASSERT_TRUE(got.has_value())
              << "prefilled key " << k << " absent at fence #" << target;
          EXPECT_TRUE(*got == vold || *got == vnew)
              << "torn record for key " << k << " at fence #" << target
              << " (got " << got->size() << " bytes)";
        };
        check_overwrite(kOver1);
        check_overwrite(kOver2);
        // The duplicate key may surface any committed generation: the
        // prefill or either in-batch occurrence (an intermediate fence —
        // e.g. a fresh insert's node persist — can publish the first
        // occurrence's pending CAS), but never a torn mix.
        {
          const auto got = recovered.get(kDup);
          EXPECT_TRUE(got.has_value()) << "fence #" << target;
          if (got.has_value()) {
            EXPECT_TRUE(*got == vold || *got == vdup1 || *got == vdup2)
                << "torn duplicate-key record at fence #" << target;
          }
        }
        for (const K k : {kIns1, kIns2}) {
          const auto got = recovered.get(k);
          if (got.has_value()) {
            EXPECT_EQ(*got, vins)
                << "torn fresh insert " << k << " at fence #" << target;
          }
        }
        EXPECT_EQ(recovered.get(kSide), vside)
            << "collateral damage at fence #" << target;
      }
      pmem::SimMemory::instance().overwrite_volatile(final_state, 0);
    }
    return ctx.fence_count;
  };

  const std::uint64_t total = run(~std::uint64_t{0});
  ASSERT_GT(total, 1u) << "a mixed batch fences more than once";
  for (std::uint64_t t = 1; t <= total; ++t) {
    run(t);
    if (::testing::Test::HasFailure()) return;  // first bad fence is enough
  }
}

// --- negative control -------------------------------------------------------

class KvCrashNegativeTest : public KvCrashTest<int> {};

TEST_F(KvCrashNegativeTest, NonPersistentStoreLosesPuts) {
  using VStore = Store<VolatileWords, Automatic>;
  VStore kv(2, 32);
  auto* sb = kv.superblock();
  // Checkpoint the empty store so the sentinels/superblock survive; the
  // point under test is the *puts*.
  pmem::SimMemory::instance().persist_all();
  for (K k = 0; k < 32; ++k) kv.put(k, "must vanish");
  pmem::SimMemory::instance().crash();
  VStore recovered = VStore::recover(sb);
  EXPECT_EQ(recovered.size(), 0u)
      << "non-persistent words must lose everything (otherwise this "
         "harness is vacuous)";
}

// --- real restart via the file-backed region --------------------------------

class KvFileRecoveryTest : public PmemTest {
 protected:
  static std::string temp_path() {
    return "/tmp/flit_kv_recovery_test_" + std::to_string(::getpid()) +
           ".pmem";
  }
};

TEST_F(KvFileRecoveryTest, ReopenRecoversAllShardsAndGenerationStamp) {
  using KvStore = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 32 << 20;
  std::map<K, std::string> oracle;

  // Session 1: create, load, overwrite, remove, close.
  {
    KvStore kv = KvStore::open(path, kCapacity, 4, 128);
    EXPECT_TRUE(kv.file_backed());
    EXPECT_EQ(kv.generation(), 1u);
    EXPECT_EQ(kv.nshards(), 4u);
    for (K k = 0; k < 400; ++k) {
      std::string v = value_for(k, 1);
      kv.put(k, v);
      oracle[k] = std::move(v);
    }
    for (K k = 0; k < 400; k += 7) {  // overwrites
      std::string v = value_for(k, 2);
      kv.put(k, v);
      oracle[k] = std::move(v);
    }
    for (K k = 3; k < 400; k += 11) {  // removes
      kv.remove(k);
      oracle.erase(k);
    }
    kv.close();
  }

  // Session 2: reopen (shard-count argument must lose to the file's),
  // verify every committed record, write a second generation of keys.
  {
    KvStore kv = KvStore::open(path, kCapacity, 9, 32);
    EXPECT_TRUE(kv.file_backed());
    EXPECT_EQ(kv.generation(), 2u) << "one recovery after creation";
    EXPECT_EQ(kv.nshards(), 4u) << "recovered shard count wins";
    for (const auto& [k, v] : oracle) {
      const auto got = kv.get(k);
      ASSERT_TRUE(got.has_value()) << "key " << k << " lost across restart";
      EXPECT_EQ(*got, v) << "key " << k;
    }
    EXPECT_EQ(kv.size(), oracle.size());
    for (K k = 1'000; k < 1'200; ++k) {
      std::string v = value_for(k, 3);
      kv.put(k, v);
      oracle[k] = std::move(v);
    }
    kv.close();
  }

  // Session 3: both generations of data and a twice-bumped stamp.
  {
    KvStore kv = KvStore::open(path, kCapacity, 4, 128);
    EXPECT_EQ(kv.generation(), 3u);
    for (const auto& [k, v] : oracle) {
      const auto got = kv.get(k);
      ASSERT_TRUE(got.has_value()) << "key " << k;
      EXPECT_EQ(*got, v) << "key " << k;
    }
    EXPECT_EQ(kv.size(), oracle.size());
    kv.close();
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvFileRecoveryTest, RejectsAFileFromADifferentWordsConfiguration) {
  // Words configurations change the persisted node layout (adjacent
  // counters pad every word), so recovery must reject a cross-
  // configuration open instead of misreading node bytes. The durability
  // *method* only changes call-site pflags, so switching it stays legal.
  using Written = Store<HashedWords, Automatic>;
  using WrongWords = Store<AdjacentWords, Automatic>;
  using OtherMethod = Store<HashedWords, NVTraverse>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 8 << 20;

  {
    Written kv = Written::open(path, kCapacity, 2, 32);
    kv.put(1, "layout canary");
    kv.close();
  }

  EXPECT_THROW((void)WrongWords::open(path, kCapacity, 2, 32),
               std::runtime_error);
  // The rejecting open touches no pool but its own region's: allocation
  // still lands in the test pool.
  void* p = pmem::Pool::instance().alloc(64);
  EXPECT_TRUE(pmem::Pool::instance().contains(p));

  {
    OtherMethod kv = OtherMethod::open(path, kCapacity, 2, 32);
    EXPECT_EQ(kv.generation(), 2u)
        << "the failed open must not have consumed a recovery";
    EXPECT_EQ(kv.get(1), "layout canary");
    kv.close();
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvFileRecoveryTest, CorruptRootOffsetThrowsInsteadOfCrashing) {
  // A torn or bit-rotted header whose root offset points past the file
  // must produce the clean validation throw, not a wild dereference.
  using KvStore = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  constexpr std::size_t kCapacity = 8 << 20;
  {
    KvStore kv = KvStore::open(path, kCapacity, 2, 32);
    kv.put(1, "x");
    kv.close();
  }

  // Scribble an out-of-region offset into the header's roots[0].
  {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::uint64_t bad = kCapacity + 12'345;
    const auto at =
        static_cast<off_t>(offsetof(pmem::FileRegion::Header, roots));
    ASSERT_EQ(::pwrite(fd, &bad, sizeof(bad), at),
              static_cast<ssize_t>(sizeof(bad)));
    ::close(fd);
  }
  EXPECT_THROW((void)KvStore::open(path, kCapacity, 2, 32),
               std::runtime_error);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvFileRecoveryTest, FailedFreshOpenLeavesTheAllocatorUsable) {
  // Building 16 shards x 65536 buckets (8 MiB of bucket head words)
  // cannot fit in a 1 MiB region; the resulting bad_alloc unwinds open()
  // after the region's pool carved chunks for the buckets. The unwind
  // frees them into that pool before the pool and region die together,
  // and the default pool keeps serving.
  using KvStore = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  EXPECT_THROW((void)KvStore::open(path, 1 << 20, 16, 65'536),
               std::bad_alloc);
  void* p = pmem::Pool::instance().alloc(64);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(pmem::Pool::instance().contains(p));
  pmem::FileRegion::destroy(path);
}

TEST_F(KvFileRecoveryTest, TwoFileBackedStoresInOneProcessKeepTheirOwnRecords) {
  // Each file-backed store allocates from its own region's pool, so two
  // of them can be open in one process: a record written to one never
  // lands in the other's file. Both layouts, interleaved puts, overwrites
  // and removes, then both reopened in the opposite order.
  using Hashed = Store<HashedWords, Automatic>;
  using Ordered = OrderedStore<HashedWords, Automatic>;
  const std::string hpath = temp_path() + ".hashed";
  const std::string opath = temp_path() + ".ordered";
  pmem::FileRegion::destroy(hpath);
  pmem::FileRegion::destroy(opath);
  constexpr std::size_t kCapacity = 16 << 20;
  constexpr K kKeys = 200;
  std::map<K, std::string> horacle, ooracle;
  {
    Hashed h = Hashed::open(hpath, kCapacity, 4, 64);
    Ordered o = Ordered::open(opath, kCapacity, 4, 64, KeyRange{0, kKeys});
    for (K k = 0; k < kKeys; ++k) {
      h.put(k, value_for(k, 1));
      horacle[k] = value_for(k, 1);
      o.put(k, value_for(k, 2));
      ooracle[k] = value_for(k, 2);
      if (k % 3 == 0) {  // overwrites, on both
        o.put(k / 2, value_for(k, 3));
        ooracle[k / 2] = value_for(k, 3);
        h.put(k / 2, value_for(k, 4));
        horacle[k / 2] = value_for(k, 4);
      }
      if (k % 5 == 4) {  // removes, on both
        EXPECT_TRUE(h.remove(k - 2));
        horacle.erase(k - 2);
        EXPECT_TRUE(o.remove(k - 1));
        ooracle.erase(k - 1);
      }
    }
    h.close();
    o.close();
  }
  {
    Ordered o = Ordered::open(opath, kCapacity, 4, 64, KeyRange{0, kKeys});
    Hashed h = Hashed::open(hpath, kCapacity, 4, 64);
    EXPECT_EQ(o.generation(), 2u);
    EXPECT_EQ(h.generation(), 2u);
    EXPECT_EQ(o.size(), ooracle.size());
    EXPECT_EQ(h.size(), horacle.size());
    for (K k = 0; k < kKeys; ++k) {
      const auto hit = horacle.find(k);
      const auto oit = ooracle.find(k);
      EXPECT_EQ(h.get(k), hit == horacle.end()
                              ? std::nullopt
                              : std::optional<std::string>(hit->second))
          << "hashed key " << k;
      EXPECT_EQ(o.get(k), oit == ooracle.end()
                              ? std::nullopt
                              : std::optional<std::string>(oit->second))
          << "ordered key " << k;
    }
    const std::vector<std::pair<K, std::string>> want(ooracle.begin(),
                                                       ooracle.end());
    EXPECT_EQ(o.scan(0, static_cast<std::size_t>(kKeys)), want);
    o.close();
    h.close();
  }
  pmem::FileRegion::destroy(hpath);
  pmem::FileRegion::destroy(opath);
}

TEST_F(KvFileRecoveryTest, PoolBackedStoreNeedsNoReinitAfterAFileBackedClose) {
  // close() destroys the file-backed store's own pool and leaves the
  // default pool alone, so a pool-backed store built afterwards, with no
  // Pool::reinit in between, allocates from live memory.
  using KvStore = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  {
    KvStore kv = KvStore::open(path, 8 << 20, 2, 32);
    kv.put(1, value_for(1, 1));
    kv.close();
  }
  KvStore kv(2, 32);
  EXPECT_TRUE(pmem::Pool::instance().contains(kv.superblock()));
  for (K k = 0; k < 100; ++k) kv.put(k, value_for(k, 5));
  kv.put(7, "overwritten");
  EXPECT_TRUE(kv.remove(8));
  EXPECT_EQ(kv.get(7), "overwritten");
  EXPECT_EQ(kv.get(8), std::nullopt);
  EXPECT_EQ(kv.get(9), value_for(9, 5));
  EXPECT_EQ(kv.size(), 99u);
  pmem::FileRegion::destroy(path);
}

/// CPUs in the calling thread's affinity mask: the most threads one
/// recovery may run.
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
  return static_cast<unsigned>(CPU_COUNT(&set));
}

TEST_F(KvFileRecoveryTest, DirtyShutdownDoesNotClobberCommittedRecords) {
  // The region header's bump mark is written only at checkpoint()/close()
  // (allocator metadata is not crash-consistent). A process that dies
  // without close() leaves the mark stale while durably committed records
  // sit above it; open()'s recovery sweep must rebuild the high-water
  // mark so fresh allocations cannot overwrite them. The shards' walks
  // run on up to min(shards, CPUs) threads, each raising its own mark:
  // one shard (the opening thread alone), four, and more shards than
  // CPUs (a capped pool) must all resume above every committed record.
  using KvStore = Store<HashedWords, Automatic>;
  const std::string path = temp_path();
  constexpr std::size_t kCapacity = 32 << 20;
  const unsigned cpus = affinity_cpus();
  const std::uint32_t many = std::min(64u, cpus + 1);
  for (const std::uint32_t nshards : {4u, 1u, many}) {
    SCOPED_TRACE(std::to_string(nshards) + " shard(s)");
    pmem::FileRegion::destroy(path);
    std::map<K, std::string> oracle;

    // Session 1: establish a cleanly persisted bump mark.
    {
      KvStore kv = KvStore::open(path, kCapacity, nshards, 64);
      for (K k = 0; k < 50; ++k) {
        std::string v = value_for(k, 1);
        kv.put(k, v);
        oracle[k] = std::move(v);
      }
      kv.close();
    }
    std::size_t clean_bump = 0;
    {
      pmem::FileRegion r = pmem::FileRegion::open(path, kCapacity);
      clean_bump = r.bump();
    }

    // Session 2: commit far more data (well past the stale mark), close
    // cleanly — then rewind the header's bump to session 1's value. The
    // file now holds exactly the image a dirty shutdown mid-session-2
    // would have left on fsdax: all records durable, allocator mark
    // stale.
    {
      KvStore kv = KvStore::open(path, kCapacity, nshards, 64);
      for (K k = 1'000; k < 1'600; ++k) {
        std::string v = value_for(k, 2);
        kv.put(k, v);
        oracle[k] = std::move(v);
      }
      kv.close();
    }
    {
      pmem::FileRegion r = pmem::FileRegion::open(path, kCapacity);
      ASSERT_GT(r.bump(), clean_bump) << "session 2 must have allocated";
      r.set_bump(clean_bump);
      // A dirty shutdown also never reaches close()'s clean-flag write;
      // clear it so open() takes the sweep path instead of trusting the
      // (now stale) mark.
      r.set_root(KvStore::kCleanShutdownSlot, nullptr);
      r.sync();
    }

    // Session 3: recover, then allocate heavily; every committed record
    // must survive both the recovery and the new allocations. In the
    // checked build the helper-spawn site, armed never to fire, counts
    // the helpers the recovery started.
    {
      core::Failpoints& fp = core::Failpoints::instance();
      fp.arm("kv.recover.thread", {core::FailTrigger::kProbability, 0, 0.0});
      KvStore kv = KvStore::open(path, kCapacity, nshards, 64);
      if constexpr (core::kChecked) {
        EXPECT_EQ(fp.evaluations("kv.recover.thread") + 1,
                  std::min(nshards, cpus))
            << "helpers + the opening thread";
      }
      fp.disarm("kv.recover.thread");
      EXPECT_EQ(kv.nshards(), nshards);
      EXPECT_EQ(kv.size(), oracle.size());
      for (const auto& [k, v] : oracle) {
        const auto got = kv.get(k);
        ASSERT_TRUE(got.has_value()) << "key " << k << " lost to stale bump";
        ASSERT_EQ(*got, v) << "key " << k;
      }
      for (K k = 10'000; k < 11'000; ++k) {  // force fresh chunk allocations
        std::string v = value_for(k, 3);
        kv.put(k, v);
        oracle[k] = std::move(v);
      }
      for (const auto& [k, v] : oracle) {
        const auto got = kv.get(k);
        ASSERT_TRUE(got.has_value())
            << "key " << k << " clobbered by post-recovery allocation";
        ASSERT_EQ(*got, v) << "key " << k;
      }
      kv.close();
    }

    // Session 4 (checked build): no helper can be started, so the opening
    // thread walks every shard.
    if constexpr (core::kChecked) {
      core::Failpoints& fp = core::Failpoints::instance();
      fp.arm("kv.recover.thread", {core::FailTrigger::kEveryNth, 1});
      KvStore kv = KvStore::open(path, kCapacity, nshards, 64);
      EXPECT_EQ(fp.hits("kv.recover.thread"),
                std::min(nshards, cpus) > 1 ? 1u : 0u);
      fp.disarm("kv.recover.thread");
      EXPECT_EQ(kv.size(), oracle.size());
      for (const auto& [k, v] : oracle) {
        ASSERT_EQ(kv.get(k), v) << "key " << k;
      }
      kv.close();
    }
  }
  pmem::FileRegion::destroy(path);
}

}  // namespace
}  // namespace flit::kv
