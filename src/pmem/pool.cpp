#include "pmem/pool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>

#include "check/lincheck.hpp"
#include "core/failpoint.hpp"
#include "pmem/cacheline.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/sim_memory.hpp"

namespace flit::pmem {

Pool& Pool::instance() {
  static Pool p;
  return p;
}

Pool::~Pool() {
  if (base_ != nullptr && owns_mapping_) ::munmap(base_, capacity_);
  // The region's addresses may be mapped again (a reopened file maps at
  // the same base); stale registry entries would alias fresh nodes.
  check::lc_pool_reset();
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

void Pool::clear() noexcept {
  bump_.store(0, std::memory_order_relaxed);
  for (Arena& a : arenas_) a = Arena{};
  check::lc_pool_reset();  // every address is about to be recycled
}

void Pool::resume(std::size_t mark) noexcept {
  const std::size_t up = (mark + kChunkSize - 1) & ~(kChunkSize - 1);
  bump_.store(std::min(up, capacity_), std::memory_order_relaxed);
}

void Pool::reinit(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(init_mu_);
  if (base_ != nullptr && owns_mapping_) ::munmap(base_, capacity_);
  base_ = nullptr;  // until the new mapping succeeds
  capacity_ = 0;
  map_anonymous(capacity);
  clear();
}

void Pool::reset() {
  std::lock_guard<std::mutex> lk(init_mu_);
  clear();
}

void Pool::ensure_init() {
  if (base_ != nullptr) return;
  std::lock_guard<std::mutex> lk(init_mu_);
  if (base_ == nullptr) map_anonymous(kDefaultCapacity);
}

std::byte* Pool::bump_chunk(std::size_t bytes) {
  // CAS loop rather than fetch_add: a failed carve must leave the mark
  // untouched. A blind fetch_add would inflate bump_ past capacity_ on
  // every refused allocation, and Store::close() persists bump_used() as
  // the region's allocator mark — an exhausted store would then record a
  // "corrupt" mark and refuse to reopen.
  std::size_t off = bump_.load(std::memory_order_relaxed);
  for (;;) {
    if (off + bytes > capacity_) throw std::bad_alloc();
    if (bump_.compare_exchange_weak(off, off + bytes,
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

  void* out;
  if (rounded > kNumSizeClasses * kGranularity) {
    // Large allocations bypass the arena.
    out = bump_chunk(round_up_to_line(rounded));
  } else {
    Arena& a = arenas_[recl::Ebr::thread_slot()];
    if (FreeNode* n = a.free_lists[size_class(rounded)]) {
      // Fast path 1: the slot's size-class free list.
      a.free_lists[size_class(rounded)] = n->next;
      out = n;
    } else {
      // Fast path 2: carve from the slot's chunk.
      if (a.cur + rounded > a.end) {
        a.cur = bump_chunk(kChunkSize);
        a.end = a.cur + kChunkSize;
      }
      out = a.cur;
      a.cur += rounded;
    }
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
  // Drop blocks outside the region: a late free of a block whose mapping
  // reinit() replaced must not hand out unmapped — or worse, re-mapped —
  // memory. (Fixtures and Store::close() drain the EBR limbo first, so
  // such frees do not otherwise occur.)
  const auto* blk = static_cast<const std::byte*>(p);
  const auto* lo = static_cast<const std::byte*>(base_);
  if (lo == nullptr || blk < lo || blk + rounded > lo + capacity_) return;
  Arena& a = arenas_[recl::Ebr::thread_slot()];
  const std::size_t cls = size_class(rounded);
  auto* n = static_cast<FreeNode*>(p);
  n->next = a.free_lists[cls];
  a.free_lists[cls] = n;
}

void Pool::register_with_sim() {
  ensure_init();
  SimMemory::instance().register_region(base_, capacity_);
}

}  // namespace flit::pmem
