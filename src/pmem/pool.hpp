// pool.hpp — persistent-region allocator (the libvmmalloc stand-in).
//
// The paper places all dynamically allocated objects in NVRAM via PMDK's
// libvmmalloc (§6.1): malloc semantics, persistent placement. A Pool plays
// the same role over one region that the backends treat as persistent
// memory, and it owns all of that region's allocator state:
//
//   * one pool per region. Pool::instance() is the process's default pool
//     over its own anonymous mapping (MAP_NORESERVE — virtual reservation,
//     pages commit on first touch); the benchmarks, the examples, the
//     pool-backed stores and the simulated-crash suites share it. A
//     file-backed kv::Store builds its own pool over its FileRegion, and
//     the two live and die together;
//   * the pool's bump mark hands out 64 KiB chunks;
//   * each thread carves allocations from its own chunk (no contention on
//     the fast path) and keeps per-size-class free lists for reuse. The
//     arenas live inside the pool, one per EBR thread slot
//     (recl::Ebr::thread_slot), so a thread that takes over an exited
//     thread's slot carries on with the chunk and free lists it left, and
//     a stop-the-world reset/reinit clears every arena in place;
//   * the whole region can be registered with SimMemory so crash tests see
//     every node as persistent memory.
//
// A block goes back to the pool it came from: the structures that allocate
// hold the pool they were built with, and their EBR retirements carry it.
//
// Like libvmmalloc, the allocator's own metadata is *not* crash-consistent:
// recovery code must only traverse the user's persistent structure, never
// allocate (which is all the paper's recovery model requires).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>

#include "recl/ebr.hpp"

namespace flit::pmem {

class Pool {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 30;
  static constexpr std::size_t kChunkSize = std::size_t{64} << 10;
  static constexpr std::size_t kGranularity = 16;  // min size & alignment
  static constexpr std::size_t kNumSizeClasses = 64;  // 16..1024 bytes

  /// The process's default pool. With no region it maps one of
  /// kDefaultCapacity on its first alloc.
  static Pool& instance();

  /// A pool over caller-owned memory [base, base + capacity), e.g. a
  /// FileRegion's usable bytes. Maps and allocates nothing; it serves
  /// from offset 0 unless resume() moves the mark. The memory must
  /// outlive the pool, which never unmaps it.
  Pool(void* base, std::size_t capacity) noexcept
      : base_(base), capacity_(capacity), owns_mapping_(false) {}
  /// Every block still in use, and every EBR retirement that names this
  /// pool, must be gone first.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Resume a region's allocator at `mark` (a recovered high-water mark),
  /// rounded up to the chunk size so no block a previous session's arenas
  /// handed out is served again, and clamped to the capacity: on a region
  /// closed at the brim the round-up can overshoot, and the overshoot must
  /// not be persisted back at close as an (apparently corrupt) out-of-range
  /// mark. Nothing lives past capacity, so the clamp cannot alias prior
  /// allocations. Call once, before the first alloc.
  void resume(std::size_t mark) noexcept;

  /// (Re)create the region as a fresh anonymous mapping of `capacity`
  /// bytes, discarding all previous allocations. Stop-the-world only.
  void reinit(std::size_t capacity);

  /// Drop all allocations but keep the mapping (fast between bench phases).
  /// Stop-the-world only.
  void reset();

  /// Allocate `size` bytes, 16-byte aligned, from the region.
  /// Throws std::bad_alloc when the region is exhausted. A thread's first
  /// alloc or dealloc claims its EBR slot (see recl::Ebr::thread_slot).
  void* alloc(std::size_t size);

  /// Return a block obtained from this pool's alloc(). `size` must match.
  void dealloc(void* p, std::size_t size) noexcept;

  /// Allocate and construct a T in the region.
  template <class T, class... Args>
  T* make(Args&&... args) {
    return ::new (alloc(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Destroy and free a T allocated with make().
  template <class T>
  void destroy(T* p) noexcept {
    if (p == nullptr) return;
    p->~T();
    dealloc(p, sizeof(T));
  }

  /// Hand a T allocated with make() to EBR: it is destroyed and freed
  /// back to this pool once no reader can reach it.
  template <class T>
  void retire(T* p) {
    recl::Ebr::instance().retire(p, [](void* q, void* pool) {
      static_cast<Pool*>(pool)->destroy(static_cast<T*>(q));
    }, this);
  }

  /// Register the full region as persistent memory with SimMemory.
  void register_with_sim();

  void* base() const noexcept { return base_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Bytes handed out via bump allocation (upper bound on live bytes).
  std::size_t bump_used() const noexcept {
    return bump_.load(std::memory_order_relaxed);
  }
  bool contains(const void* p) const noexcept {
    auto a = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return a >= b && a < b + capacity_;
  }

 private:
  Pool() = default;

  struct FreeNode {
    FreeNode* next;
  };

  /// One thread slot's chunk and free lists. Cache-line aligned: packed
  /// back to back, one thread's cur/end would share a line with the
  /// neighbouring slot's free-list heads.
  struct alignas(64) Arena {
    std::byte* cur = nullptr;
    std::byte* end = nullptr;
    FreeNode* free_lists[kNumSizeClasses] = {};
  };

  void ensure_init();
  /// Map a fresh anonymous region of `capacity` bytes (rounded up to a
  /// line) as the pool's own; the caller holds the init lock.
  void map_anonymous(std::size_t capacity);
  /// Rewind the mark and empty every arena: the region's addresses are
  /// about to be recycled. Stop-the-world; the caller holds the init lock.
  void clear() noexcept;
  std::byte* bump_chunk(std::size_t bytes);

  static constexpr std::size_t size_class(std::size_t size) noexcept {
    // class i holds blocks of (i+1)*16 bytes; size<=1024 is classed.
    return (size + kGranularity - 1) / kGranularity - 1;
  }

  void* base_ = nullptr;
  std::size_t capacity_ = 0;
  bool owns_mapping_ = true;
  std::atomic<std::size_t> bump_{0};
  std::mutex init_mu_;
  Arena arenas_[recl::Ebr::kMaxThreads];
};

/// Allocate and construct a T in the default pool.
template <class T, class... Args>
T* pnew(Args&&... args) {
  return Pool::instance().make<T>(std::forward<Args>(args)...);
}

/// Destroy and free a T allocated with pnew.
template <class T>
void pdelete(T* p) noexcept {
  Pool::instance().destroy(p);
}

}  // namespace flit::pmem
