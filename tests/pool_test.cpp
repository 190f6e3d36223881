// Unit + stress tests for the persistent pool allocator.
#include "pmem/pool.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstring>
#include <random>
#include <thread>
#include <unordered_set>
#include <vector>

#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

class PoolTest : public flit::test::PmemTest {};

TEST_F(PoolTest, AllocationsAreInsideTheRegion) {
  Pool& p = Pool::instance();
  for (std::size_t sz : {1u, 8u, 16u, 24u, 64u, 100u, 1024u}) {
    void* q = p.alloc(sz);
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(p.contains(q));
    std::memset(q, 0xAB, sz);  // must be writable
  }
}

TEST_F(PoolTest, AllocationsAreAligned) {
  Pool& p = Pool::instance();
  for (int i = 0; i < 100; ++i) {
    void* q = p.alloc(static_cast<std::size_t>(1 + i % 60));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % Pool::kGranularity, 0u);
  }
}

TEST_F(PoolTest, DistinctLiveAllocationsDoNotOverlap) {
  Pool& p = Pool::instance();
  std::vector<std::pair<std::uintptr_t, std::size_t>> blocks;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 500; ++i) {
    const std::size_t sz = 8 + rng() % 120;
    auto a = reinterpret_cast<std::uintptr_t>(p.alloc(sz));
    for (const auto& [b, bsz] : blocks) {
      EXPECT_TRUE(a + sz <= b || b + bsz <= a)
          << "overlap between allocations";
    }
    blocks.emplace_back(a, sz);
  }
}

TEST_F(PoolTest, FreedBlockIsReused) {
  Pool& p = Pool::instance();
  void* a = p.alloc(48);
  p.dealloc(a, 48);
  void* b = p.alloc(48);
  EXPECT_EQ(a, b) << "same-thread same-class free list should recycle";
}

TEST_F(PoolTest, LargeAllocationsBypassSizeClasses) {
  Pool& p = Pool::instance();
  void* a = p.alloc(4096);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(p.contains(a));
  std::memset(a, 0x11, 4096);
  p.dealloc(a, 4096);  // no-op, must not crash
}

TEST_F(PoolTest, PnewPdeleteRoundTrip) {
  struct Obj {
    std::uint64_t a, b;
  };
  Obj* o = pnew<Obj>(Obj{1, 2});
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->a, 1u);
  EXPECT_EQ(o->b, 2u);
  EXPECT_TRUE(Pool::instance().contains(o));
  pdelete(o);
}

TEST_F(PoolTest, ExhaustionThrowsBadAlloc) {
  Pool::instance().reinit(1 << 20);  // 1 MiB
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          (void)Pool::instance().alloc(Pool::kChunkSize);
        }
      },
      std::bad_alloc);
  Pool::instance().reinit(kPoolBytes);
}

TEST_F(PoolTest, ResetRecyclesTheRegion) {
  Pool& p = Pool::instance();
  (void)p.alloc(64);
  const std::size_t used = p.bump_used();
  EXPECT_GT(used, 0u);
  p.reset();
  EXPECT_EQ(p.bump_used(), 0u);
  void* q = p.alloc(64);
  EXPECT_TRUE(p.contains(q));
}

TEST_F(PoolTest, ConcurrentAllocationsAreDisjoint) {
  Pool& p = Pool::instance();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uintptr_t>> ptrs(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&p, &ptrs, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t sz = 16 + rng() % 64;
        auto* q = static_cast<std::uint64_t*>(p.alloc(sz));
        *q = static_cast<std::uint64_t>(t) << 32 | static_cast<unsigned>(i);
        ptrs[t].push_back(reinterpret_cast<std::uintptr_t>(q));
      }
    });
  }
  for (auto& th : ts) th.join();
  std::unordered_set<std::uintptr_t> seen;
  for (const auto& v : ptrs) {
    for (std::uintptr_t q : v) {
      EXPECT_TRUE(seen.insert(q).second) << "duplicate allocation";
    }
  }
  // Values written by each thread must be intact (no overlap smashing).
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto* q = reinterpret_cast<std::uint64_t*>(ptrs[t][i]);
      EXPECT_EQ(*q, static_cast<std::uint64_t>(t) << 32 |
                        static_cast<unsigned>(i));
    }
  }
}

TEST_F(PoolTest, RegionPoolResumesAtTheChunkRoundedMarkAndResetsInside) {
  // A file-backed store builds a pool over its region and resumes it at
  // the recovered mark; reset() must rewind inside that region, never
  // into another mapping, and the pool must leave the caller's mapping
  // alone when it dies.
  constexpr std::size_t kCap = 4 << 20;
  void* region = ::mmap(nullptr, kCap, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  {
    Pool p(region, kCap);
    EXPECT_EQ(p.base(), region);
    EXPECT_EQ(p.capacity(), kCap);
    EXPECT_EQ(p.bump_used(), 0u) << "a fresh region pool allocates nothing";

    // The resumed mark rounds up to a chunk, so no block a previous
    // session's arenas handed out is served again.
    p.resume(Pool::kChunkSize - 100);
    EXPECT_EQ(p.bump_used(), Pool::kChunkSize);
    auto* a = static_cast<std::byte*>(p.alloc(64));
    EXPECT_GE(a, static_cast<std::byte*>(region) + Pool::kChunkSize);
    EXPECT_TRUE(p.contains(a));
    std::memset(a, 0x5A, 64);

    p.reset();
    EXPECT_EQ(p.bump_used(), 0u);
    auto* b = static_cast<std::byte*>(p.alloc(64));
    EXPECT_TRUE(p.contains(b)) << "reset must keep serving the region";
    EXPECT_LT(b, static_cast<std::byte*>(region) + Pool::kChunkSize)
        << "reset rewinds to the start of the region";
  }
  {
    // At the brim the round-up would overshoot the region; the mark is
    // clamped, and a clamped pool refuses allocation instead of carving
    // past the end.
    Pool p(region, kCap);
    p.resume(kCap - 10);
    EXPECT_EQ(p.bump_used(), kCap);
    EXPECT_THROW((void)p.alloc(64), std::bad_alloc);
    EXPECT_EQ(p.bump_used(), kCap) << "a refused carve moves no mark";
  }
  // Destroying the pools did not unmap what they do not own.
  std::memset(region, 0x11, kCap);  // still mapped and writable
  ::munmap(region, kCap);
}

TEST_F(PoolTest, TwoLivePoolsServeDisjointRegionsAndTakeBackTheirOwn) {
  // Two file-backed stores in one process each allocate from their own
  // region, and a block freed (directly or through EBR) goes back to the
  // pool it came from.
  constexpr std::size_t kCap = 4 << 20;
  void* ra = ::mmap(nullptr, kCap, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  void* rb = ::mmap(nullptr, kCap, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(ra, MAP_FAILED);
  ASSERT_NE(rb, MAP_FAILED);
  {
    Pool a(ra, kCap);
    Pool b(rb, kCap);
    void* pa = a.alloc(48);
    void* pb = b.alloc(48);
    EXPECT_TRUE(a.contains(pa) && !b.contains(pa));
    EXPECT_TRUE(b.contains(pb) && !a.contains(pb));

    a.dealloc(pa, 48);
    b.dealloc(pb, 48);
    EXPECT_EQ(a.alloc(48), pa) << "a's free list recycles a's block";
    EXPECT_EQ(b.alloc(48), pb) << "b's free list recycles b's block";

    // A pool drops a block outside its region instead of serving it.
    b.dealloc(pa, 48);
    EXPECT_NE(b.alloc(48), pa);

    // EBR retirements carry their pool to the deleter.
    struct Obj {
      std::uint64_t x;
    };
    Obj* oa = a.make<Obj>(Obj{1});
    Obj* ob = b.make<Obj>(Obj{2});
    a.retire(oa);
    b.retire(ob);
    recl::Ebr::instance().drain_all();
    EXPECT_EQ(a.make<Obj>(Obj{3}), oa);
    EXPECT_EQ(b.make<Obj>(Obj{4}), ob);
    EXPECT_EQ(Pool::instance().bump_used(), 0u)
        << "the default pool served none of it";
  }
  ::munmap(ra, kCap);
  ::munmap(rb, kCap);
}

TEST_F(PoolTest, ANewThreadCarriesOnWithItsSlotsArena) {
  // Arenas live in the pool, one per EBR thread slot: a block freed by a
  // thread that then exits is handed out again by the next thread to take
  // its slot, which also carves on from the chunk the first thread left.
  Pool& p = Pool::instance();
  std::size_t slot1 = 0, slot2 = 0;
  void* freed = nullptr;
  std::thread([&] {
    slot1 = recl::Ebr::thread_slot();
    freed = p.alloc(48);
    (void)p.alloc(48);
    p.dealloc(freed, 48);
  }).join();
  const std::size_t used = p.bump_used();
  void* again = nullptr;
  std::thread([&] {
    slot2 = recl::Ebr::thread_slot();
    again = p.alloc(48);
    (void)p.alloc(256);
  }).join();
  ASSERT_EQ(slot1, slot2) << "the second thread takes the freed slot";
  EXPECT_EQ(again, freed);
  EXPECT_EQ(p.bump_used(), used) << "no fresh chunk for the second thread";
}

TEST_F(PoolTest, LargeBlocksRoundTripAcrossTheSizeClassBoundary) {
  // The KV value slab allocates records on both sides of the largest size
  // class (64 * 16 = 1024 bytes): classed blocks recycle through the
  // per-thread free lists, larger blocks are bump-only. Both paths must
  // hand back writable, non-overlapping memory across repeated cycles.
  Pool& p = Pool::instance();
  ASSERT_EQ(Pool::kNumSizeClasses * Pool::kGranularity, 1024u);

  void* classed = p.alloc(1024);
  p.dealloc(classed, 1024);
  EXPECT_EQ(p.alloc(1024), classed)
      << "1024 bytes is the last classed size and must recycle";

  for (const std::size_t sz : {1025u, 1040u, 4096u, 65536u}) {
    void* prev = nullptr;
    for (int i = 0; i < 8; ++i) {
      auto* q = static_cast<std::byte*>(p.alloc(sz));
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(p.contains(q));
      EXPECT_NE(q, prev) << "bump-only blocks are never recycled";
      std::memset(q, static_cast<int>(i), sz);  // fully writable
      EXPECT_EQ(q[sz - 1], static_cast<std::byte>(i));
      p.dealloc(q, sz);  // no-op by contract, must stay safe
      prev = q;
    }
  }
}

TEST_F(PoolTest, RegisterWithSimMakesPoolCrashable) {
  Pool& p = Pool::instance();
  p.register_with_sim();
  auto* word = static_cast<std::uint64_t*>(p.alloc(sizeof(std::uint64_t)));
  *word = 0;
  SimMemory::instance().persist_all();

  BackendScope scope(Backend::kSimCrash);
  *word = 41;
  pwb(word);
  pfence();
  *word = 42;  // not flushed
  SimMemory::instance().crash();
  EXPECT_EQ(*word, 41u);
}

}  // namespace
}  // namespace flit::pmem
