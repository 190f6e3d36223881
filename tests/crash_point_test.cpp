// Crash-point injection: durable linearizability at *instruction*
// granularity, not just operation granularity.
//
// The crash_durability tests quiesce before pulling the plug, so every
// operation has completed. Here we capture the persistent-memory image
// that a power failure would leave at individual pfence boundaries *inside*
// operations, and verify each image is explainable (Definition 1 /
// Theorem 3.1): the recovered set must equal the completed-ops oracle,
// except that the single in-flight operation may or may not have taken
// effect.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <vector>

#include "ds/harris_list.hpp"
#include "ds/hash_table.hpp"
#include "ds/natarajan_bst.hpp"
#include "ds/skiplist.hpp"
#include "support/test_common.hpp"

namespace flit::ds {
namespace {

using flit::test::PmemTest;
using K = std::int64_t;

struct PendingOp {
  bool is_insert = false;
  K key = 0;
};

struct CaptureCtx {
  std::uint64_t fence_count = 0;
  std::uint64_t target = 0;
  bool armed = false;
  std::vector<std::byte> image;       // shadow at the target fence
  std::set<K> oracle_at_capture;      // completed ops' state
  std::optional<PendingOp> pending_at_capture;

  // Live state maintained by the test around each op.
  const std::set<K>* oracle = nullptr;
  const std::optional<PendingOp>* pending = nullptr;

  static void hook(void* p) {
    auto* c = static_cast<CaptureCtx*>(p);
    if (!c->armed) return;
    if (++c->fence_count != c->target) return;
    c->image = pmem::SimMemory::instance().clone_shadow(0);
    c->oracle_at_capture = *c->oracle;
    c->pending_at_capture = *c->pending;
  }
};

template <class Set>
std::set<K> sweep(const Set& s, K range) {
  std::set<K> out;
  for (K k = 0; k < range; ++k) {
    if (s.contains(k)) out.insert(k);
  }
  return out;
}

template <class Set>
struct Adapter;
template <class W, class M>
struct Adapter<HarrisList<K, K, W, M>> {
  using Set = HarrisList<K, K, W, M>;
  using Handle = std::pair<typename Set::Node*, typename Set::Node*>;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return {s.head(), s.tail()}; }
  static Set recover(Handle h) { return Set::recover(h.first, h.second); }
};
template <class W, class M>
struct Adapter<SkipList<K, K, W, M>> {
  using Set = SkipList<K, K, W, M>;
  using Handle = typename Set::Roots*;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return s.roots(); }
  static Set recover(Handle h) { return Set::recover(h); }
};
template <class W, class M>
struct Adapter<NatarajanBst<K, K, W, M>> {
  using Set = NatarajanBst<K, K, W, M>;
  using Handle = std::pair<typename Set::Node*, typename Set::Node*>;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return {s.root(), s.sentinel()}; }
  static Set recover(Handle h) { return Set::recover(h.first, h.second); }
};
template <class W, class M>
struct Adapter<HashTable<K, K, W, M>> {
  using Set = HashTable<K, K, W, M>;
  using Handle = typename Set::Roots*;
  static Set make() { return Set(32); }
  static Handle save(const Set& s) { return s.roots(); }
  static Set recover(Handle h) { return Set::recover(h); }
};

template <class SetT>
class CrashPointTest : public PmemTest {
 protected:
  static constexpr std::size_t kSmallPool = std::size_t{8} << 20;

  void SetUp() override {
    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(kSmallPool);
    recl::Ebr::instance().set_reclaim(false);
    pmem::Pool::instance().register_with_sim();
    pmem::set_backend(pmem::Backend::kSimCrash);
  }
  void TearDown() override {
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    recl::Ebr::instance().set_reclaim(true);
    PmemTest::TearDown();
  }

  /// One deterministic run capturing the image at fence #target; returns
  /// false if the run has fewer fences than target.
  bool run_and_check(std::uint64_t target, std::uint64_t* fences_out) {
    using A = Adapter<SetT>;
    constexpr K kRange = 32;
    constexpr int kOps = 120;

    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(kSmallPool);
    pmem::Pool::instance().register_with_sim();

    std::set<K> oracle;
    std::optional<PendingOp> pending;
    CaptureCtx ctx;
    ctx.target = target;
    ctx.oracle = &oracle;
    ctx.pending = &pending;

    auto set = A::make();
    auto handle = A::save(set);

    pmem::SimMemory::instance().set_pfence_hook(&CaptureCtx::hook, &ctx);
    ctx.armed = true;
    std::mt19937_64 rng(12345);
    for (int i = 0; i < kOps; ++i) {
      const K k = static_cast<K>(rng() % kRange);
      const bool ins = rng() % 2 == 0;
      pending = PendingOp{ins, k};
      if (ins) {
        set.insert(k, k);
        oracle.insert(k);
      } else {
        set.remove(k);
        oracle.erase(k);
      }
      pending.reset();
    }
    ctx.armed = false;
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    *fences_out = ctx.fence_count;
    if (ctx.image.empty()) return false;  // target beyond the run

    // Reboot into the captured image and verify it is explainable.
    const std::vector<std::byte> final_state =
        pmem::SimMemory::instance().clone_volatile(0);
    pmem::SimMemory::instance().overwrite_volatile(ctx.image, 0);

    {
      auto recovered = A::recover(handle);
      const std::set<K> got = sweep(recovered, kRange);

      std::set<K> without = ctx.oracle_at_capture;
      std::set<K> with = ctx.oracle_at_capture;
      if (ctx.pending_at_capture) {
        if (ctx.pending_at_capture->is_insert) {
          with.insert(ctx.pending_at_capture->key);
        } else {
          with.erase(ctx.pending_at_capture->key);
        }
      }
      EXPECT_TRUE(got == without || got == with)
          << "crash at pfence #" << target
          << " left an unexplainable state (pending "
          << (ctx.pending_at_capture
                  ? (ctx.pending_at_capture->is_insert ? "insert " : "remove ")
                  : "none ")
          << (ctx.pending_at_capture ? ctx.pending_at_capture->key : -1)
          << ", got " << got.size() << " keys, completed-oracle "
          << without.size() << ")";
    }
    pmem::SimMemory::instance().overwrite_volatile(final_state, 0);
    return true;
  }

  void run_sweep() {
    std::uint64_t total_fences = 0;
    ASSERT_FALSE(run_and_check(~std::uint64_t{0}, &total_fences));
    ASSERT_GT(total_fences, 20u);
    // Probe ~32 crash points spread over the whole run, plus the first few
    // fences individually (early boundaries catch initialization bugs).
    std::vector<std::uint64_t> targets = {1, 2, 3, 4, 5};
    for (int i = 1; i <= 27; ++i) {
      targets.push_back(total_fences * static_cast<std::uint64_t>(i) / 28);
    }
    for (const std::uint64_t t : targets) {
      if (t == 0 || t > total_fences) continue;
      std::uint64_t unused = 0;
      run_and_check(t, &unused);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
};

using CrashPointConfigs = ::testing::Types<
    HarrisList<K, K, HashedWords, Automatic>,
    HarrisList<K, K, HashedWords, Manual>,
    HarrisList<K, K, AdjacentWords, NVTraverse>,
    HarrisList<K, K, LapWords, Automatic>,
    NatarajanBst<K, K, HashedWords, Automatic>,
    NatarajanBst<K, K, HashedWords, NVTraverse>,
    NatarajanBst<K, K, PlainWords, Manual>,
    SkipList<K, K, HashedWords, Automatic>,
    SkipList<K, K, HashedWords, Manual>,
    HashTable<K, K, HashedWords, Automatic>,
    HashTable<K, K, AdjacentWords, Manual>>;

TYPED_TEST_SUITE(CrashPointTest, CrashPointConfigs);

TYPED_TEST(CrashPointTest, EveryProbedCrashPointIsExplainable) {
  this->run_sweep();
}

}  // namespace
}  // namespace flit::ds
