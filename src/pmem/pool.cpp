#include "pmem/pool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>

#include "check/lincheck.hpp"
#include "core/failpoint.hpp"
#include "pmem/cacheline.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/sim_memory.hpp"

namespace flit::pmem {

namespace {

std::atomic<std::uint64_t> g_pool_epoch{0};
std::atomic<std::size_t> g_bump{0};
std::mutex g_init_mu;

}  // namespace

Pool& Pool::instance() {
  static Pool p;
  return p;
}

Pool::~Pool() {
  if (base_ != nullptr && owns_mapping_) ::munmap(base_, capacity_);
}

Pool::ThreadArena& Pool::tls_arena() {
  static thread_local ThreadArena a;
  return a;
}

void Pool::map_anonymous(std::size_t capacity) {
  capacity = round_up_to_line(capacity);
  void* mem = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  base_ = mem;
  capacity_ = capacity;
  owns_mapping_ = true;
}

void Pool::reinit(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(g_init_mu);
  if (base_ != nullptr) {
    if (owns_mapping_) ::munmap(base_, capacity_);
    base_ = nullptr;
    capacity_ = 0;
  }
  map_anonymous(capacity);
  g_bump.store(0, std::memory_order_relaxed);
  // Invalidate every thread's arena lazily.
  g_pool_epoch.fetch_add(1, std::memory_order_acq_rel);
  // The new mapping may land over addresses of the discarded pool's
  // retired records; stale registry entries would alias fresh nodes.
  check::lc_pool_reset();
}

void Pool::reset() {
  std::lock_guard<std::mutex> lk(g_init_mu);
  g_bump.store(0, std::memory_order_relaxed);
  g_pool_epoch.fetch_add(1, std::memory_order_acq_rel);
  check::lc_pool_reset();  // every address is about to be recycled
}

void Pool::ensure_init() {
  if (base_ != nullptr) return;
  std::lock_guard<std::mutex> lk(g_init_mu);
  if (base_ == nullptr) map_anonymous(kDefaultCapacity);
}

std::byte* Pool::bump_chunk(std::size_t bytes) {
  // CAS loop rather than fetch_add: a failed carve must leave the mark
  // untouched. A blind fetch_add would inflate g_bump past capacity_ on
  // every refused allocation, and Store::close() persists bump_used() as
  // the region's allocator mark — an exhausted store would then record a
  // "corrupt" mark and refuse to reopen.
  std::size_t off = g_bump.load(std::memory_order_relaxed);
  for (;;) {
    if (off + bytes > capacity_) throw std::bad_alloc();
    if (g_bump.compare_exchange_weak(off, off + bytes,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
      break;
    }
  }
  return static_cast<std::byte*>(base_) + off;
}

void* Pool::alloc(std::size_t size) {
  // Failpoint: simulated slab exhaustion, before any allocator state
  // changes — an injected failure must be indistinguishable from a full
  // pool (bad_alloc, nothing leaked, nothing carved).
  if (core::fp_inject("pool.alloc") != 0) throw std::bad_alloc();
  ensure_init();
  assert(size > 0);
  const std::size_t rounded =
      (size + kGranularity - 1) & ~(kGranularity - 1);

  ThreadArena& a = tls_arena();
  const std::uint64_t epoch = g_pool_epoch.load(std::memory_order_acquire);
  if (a.epoch != epoch) {
    a.cur = a.end = nullptr;
    std::memset(a.free_lists, 0, sizeof(a.free_lists));
    a.epoch = epoch;
  }

  void* out;
  if (rounded > kNumSizeClasses * kGranularity) {
    // Large allocations bypass the arena.
    out = bump_chunk(round_up_to_line(rounded));
  } else if (FreeNode* n = a.free_lists[size_class(rounded)]) {
    // Fast path 1: per-thread size-class free list.
    a.free_lists[size_class(rounded)] = n->next;
    out = n;
  } else {
    // Fast path 2: carve from the thread's chunk.
    if (a.cur + rounded > a.end) {
      a.cur = bump_chunk(kChunkSize);
      a.end = a.cur + kChunkSize;
    }
    out = a.cur;
    a.cur += rounded;
  }
  // A fresh block starts un-persisted: constructor stores that follow
  // (placement-new, Record::create) dirty it before it can be published,
  // and recycled blocks still hold the freed object's stale words. Marking
  // here covers every allocation site with one hook.
  pc_store(out, rounded);
  // Any retired/freed record this block overlaps is being legitimately
  // recycled — the lifetime analyzer must forget it.
  check::lc_alloc(out, rounded);
  return out;
}

void Pool::dealloc(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  const std::size_t rounded =
      (size + kGranularity - 1) & ~(kGranularity - 1);
  if (rounded > kNumSizeClasses * kGranularity) {
    return;  // large blocks are not recycled (bump-only), like an arena
  }
  ThreadArena& a = tls_arena();
  const std::uint64_t epoch = g_pool_epoch.load(std::memory_order_acquire);
  if (a.epoch != epoch) {
    // The arena's chunk and cached free lists belong to a discarded pool
    // generation; reset them. The block itself is judged by address below,
    // not dropped outright: after adopt() the prior generation's blocks
    // ARE the current pool, and losing their frees would strand space — a
    // store reopened at the brim relies on delete-then-reuse working on
    // the very first free.
    a.cur = a.end = nullptr;
    std::memset(a.free_lists, 0, sizeof(a.free_lists));
    a.epoch = epoch;
  }
  // Drop blocks outside the current pool: they came from a generation
  // whose mapping is gone (reinit/adopt munmap'd it), so recycling the
  // address would hand out unmapped — or worse, re-mapped — memory.
  // (Frees racing a generation switch don't otherwise occur: fixtures and
  // Store::close() drain the EBR limbo before the pool is swapped.)
  const auto* blk = static_cast<const std::byte*>(p);
  const auto* lo = static_cast<const std::byte*>(base_);
  if (lo == nullptr || blk < lo || blk + rounded > lo + capacity_) return;
  const std::size_t cls = size_class(rounded);
  auto* n = static_cast<FreeNode*>(p);
  n->next = a.free_lists[cls];
  a.free_lists[cls] = n;
}

void Pool::adopt(void* base, std::size_t capacity,
                 std::size_t initial_bump) {
  std::lock_guard<std::mutex> lk(g_init_mu);
  if (base_ != nullptr && owns_mapping_) ::munmap(base_, capacity_);
  base_ = base;
  capacity_ = capacity;
  owns_mapping_ = false;
  // Round the recovered mark up to the chunk size so resumed allocation
  // never overlaps blocks handed out by a previous session's arenas.
  // Clamp to capacity: on a region closed at the brim the round-up can
  // overshoot, and the overshoot must not be persisted back at close as
  // an (apparently corrupt) out-of-range mark. Nothing lives past
  // capacity, so the clamp cannot alias prior allocations.
  const std::size_t resumed = std::min(
      (initial_bump + kChunkSize - 1) & ~(kChunkSize - 1), capacity);
  g_bump.store(resumed, std::memory_order_relaxed);
  g_pool_epoch.fetch_add(1, std::memory_order_acq_rel);
  check::lc_pool_reset();
}

std::size_t Pool::bump_used() const noexcept {
  return g_bump.load(std::memory_order_relaxed);
}

void Pool::register_with_sim() {
  ensure_init();
  SimMemory::instance().register_region(base_, capacity_);
}

}  // namespace flit::pmem
