// pool.hpp — persistent-region allocator (the libvmmalloc stand-in).
//
// The paper places all dynamically allocated objects in NVRAM via PMDK's
// libvmmalloc (§6.1): malloc semantics, persistent placement. This pool
// plays the same role over an mmap'd region that the backends treat as
// persistent memory:
//
//   * one contiguous anonymous mapping (MAP_NORESERVE — virtual reservation,
//     pages commit on first touch);
//   * a global bump pointer hands out 64 KiB chunks;
//   * each thread carves allocations from its own chunk (no contention on
//     the fast path) and keeps per-size-class free lists for reuse;
//   * the whole region can be registered with SimMemory so crash tests see
//     every node as persistent memory.
//
// Like libvmmalloc, the allocator's own metadata is *not* crash-consistent:
// recovery code must only traverse the user's persistent structure, never
// allocate (which is all the paper's recovery model requires).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace flit::pmem {

class Pool {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 30;
  static constexpr std::size_t kChunkSize = std::size_t{64} << 10;
  static constexpr std::size_t kGranularity = 16;  // min size & alignment
  static constexpr std::size_t kNumSizeClasses = 64;  // 16..1024 bytes

  static Pool& instance();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// (Re)create the region with the given capacity, discarding all previous
  /// allocations. Stop-the-world only. A pool with no region maps one of
  /// kDefaultCapacity on its first alloc.
  void reinit(std::size_t capacity);

  /// Drop all allocations but keep the mapping (fast between bench phases).
  /// Stop-the-world only.
  void reset();

  /// Serve allocations from an externally owned region (e.g. a
  /// FileRegion) instead of the pool's own anonymous mapping, resuming the
  /// bump allocator at `initial_bump` (a recovered high-water mark). The
  /// pool never unmaps adopted memory. Stop-the-world only.
  void adopt(void* base, std::size_t capacity, std::size_t initial_bump);

  /// Allocate `size` bytes, 16-byte aligned, from the persistent region.
  /// Throws std::bad_alloc when the region is exhausted.
  void* alloc(std::size_t size);

  /// Return a block obtained from alloc(). `size` must match.
  void dealloc(void* p, std::size_t size) noexcept;

  /// Register the full region as persistent memory with SimMemory.
  void register_with_sim();

  void* base() const noexcept { return base_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Bytes handed out via bump allocation (upper bound on live bytes).
  std::size_t bump_used() const noexcept;
  bool contains(const void* p) const noexcept {
    auto a = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return a >= b && a < b + capacity_;
  }

 private:
  Pool() = default;
  ~Pool();

  struct FreeNode {
    FreeNode* next;
  };

  struct ThreadArena {
    std::uint64_t epoch = ~std::uint64_t{0};
    std::byte* cur = nullptr;
    std::byte* end = nullptr;
    FreeNode* free_lists[kNumSizeClasses] = {};
  };

  static ThreadArena& tls_arena();
  void ensure_init();
  /// Map a fresh anonymous region of `capacity` bytes (rounded up to a
  /// line) as the pool's own; the caller holds the init lock.
  void map_anonymous(std::size_t capacity);
  std::byte* bump_chunk(std::size_t bytes);

  static constexpr std::size_t size_class(std::size_t size) noexcept {
    // class i holds blocks of (i+1)*16 bytes; size<=1024 is classed.
    return (size + kGranularity - 1) / kGranularity - 1;
  }

  void* base_ = nullptr;
  std::size_t capacity_ = 0;
  bool owns_mapping_ = true;
};

/// Allocate and construct a T in the persistent region.
template <class T, class... Args>
T* pnew(Args&&... args) {
  void* mem = Pool::instance().alloc(sizeof(T));
  return ::new (mem) T(std::forward<Args>(args)...);
}

/// Destroy and free a T allocated with pnew.
template <class T>
void pdelete(T* p) noexcept {
  if (p == nullptr) return;
  p->~T();
  Pool::instance().dealloc(p, sizeof(T));
}

}  // namespace flit::pmem
