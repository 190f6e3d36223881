// sim_memory.hpp — software model of volatile caches over persistent memory.
//
// This is the substrate that makes the paper's correctness claims *testable*.
// It implements exactly the §2.1 model of the paper:
//
//   * All loads and stores act on volatile memory (the real DRAM region).
//   * pwb(l) "flushes" the value currently in location l: the containing
//     cache line's bytes are snapshotted into the issuing thread's pending
//     set.
//   * pfence() makes every line the issuing thread flushed reach persistent
//     memory: pending snapshots are published to the shadow image. Like
//     real (coherent) cache lines, publication never moves a line
//     backwards: snapshots carry a per-line order and a stale snapshot
//     cannot overwrite a newer one already published by another thread.
//   * crash() models a power failure: the volatile view is overwritten with
//     the shadow image — every store that was not covered by a pwb+pfence
//     pair is lost — and all pending (flushed-but-not-fenced) state is
//     discarded.
//
// Threading contract: on_pwb/on_pfence are called concurrently by worker
// threads (pending sets are thread-local; shadow publication takes striped
// per-line locks). crash(), persist_all(), register_region() and
// clear_regions() require the caller to be the only thread issuing
// persistence instructions (stop-the-world), which is how the durability
// tests use them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pmem/cacheline.hpp"

namespace flit::pmem {

class SimMemory {
 public:
  static SimMemory& instance();

  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

  /// Track [base, base+len) as persistent memory. The region's current
  /// content is taken as the initial persisted image. `base` must be
  /// cache-line aligned; `len` is rounded up to whole lines, and the
  /// caller must own every byte of the rounded range — the simulator
  /// snapshots and (on crash()) rewrites whole cache lines.
  void register_region(void* base, std::size_t len);

  /// Drop all tracked regions and pending state (test teardown).
  void clear_regions();

  /// True if `p` lies inside a tracked region.
  bool contains(const void* p) const noexcept;

  /// Feed a store of [p, p+len) to PersistCheck (no-op unless built with
  /// FLIT_CHECKED and `p` lies in a tracked region). The simulator
  /// itself needs no store hook — stores hit the volatile region directly —
  /// but the checker tracks them, and this is its entry point for callers
  /// that only know the simulator.
  void on_store(const void* p, std::size_t len) noexcept;

  /// Model a pwb on the line containing `addr` (no-op outside regions).
  void on_pwb(const void* addr);

  /// Model a pfence by the calling thread: publish its pending lines.
  void on_pfence();

  /// Model a full-system crash: revert every tracked region to its
  /// persisted image and discard all threads' pending flushes.
  /// Caller must guarantee stop-the-world.
  void crash();

  /// Mark the current volatile content of every region as persisted
  /// (used after test setup to start from a fully-persisted structure).
  void persist_all();

  /// Number of crashes simulated so far.
  std::uint64_t crash_count() const noexcept {
    return crash_epoch_.load(std::memory_order_acquire);
  }

  // --- introspection for tests -------------------------------------------

  /// Copy of the *persisted* (shadow) bytes of the line containing `addr`.
  /// Returns empty vector if `addr` is not tracked.
  std::vector<std::byte> persisted_line(const void* addr) const;

  // --- crash-point injection (single-threaded test harness) ----------------
  // A "crash point" is the persistent-memory image that a power failure at
  // a given instant would leave behind. Tests capture candidate images
  // mid-operation (after chosen pfences) and later verify each image is
  // explainable — i.e. the structure is durably linearizable at *every*
  // instruction boundary, not just between operations.

  /// Clone the persisted (shadow) image of region `idx`.
  std::vector<std::byte> clone_shadow(std::size_t idx = 0) const;

  /// Clone the current *volatile* content of region `idx`.
  std::vector<std::byte> clone_volatile(std::size_t idx = 0) const;

  /// Overwrite the volatile content of region `idx` with `image`
  /// (simulates rebooting into a captured crash image, or restoring the
  /// pre-restore volatile state). Stop-the-world only.
  void overwrite_volatile(const std::vector<std::byte>& image,
                          std::size_t idx = 0);

  /// Install a hook invoked after every pfence publish by any thread
  /// (nullptr to remove). The hook runs on the fencing thread; keep it
  /// cheap and reentrancy-free. Testing use only.
  using PfenceHook = void (*)(void* ctx);
  void set_pfence_hook(PfenceHook hook, void* ctx) noexcept;

  /// True if the calling thread has flushed-but-not-yet-fenced data for the
  /// line containing `addr`.
  bool line_pending_here(const void* addr) const;

 private:
  SimMemory() = default;

  struct Region {
    std::uintptr_t base = 0;
    std::size_t len = 0;  // whole cache lines
    std::unique_ptr<std::byte[]> shadow;
    // Per-line snapshot order, both guarded by the line's stripe lock:
    // snap_seq numbers each pwb snapshot of the line; line_seq records the
    // newest snapshot published to the shadow, so stale snapshots are
    // dropped instead of rolling the shadow line backwards.
    std::unique_ptr<std::uint64_t[]> snap_seq;
    std::unique_ptr<std::uint64_t[]> line_seq;
  };

  struct PendingLine {
    std::uintptr_t line = 0;
    std::uint64_t seq = 0;  // this line's snapshot order (see on_pwb)
    std::array<std::byte, kCacheLineSize> data{};
  };

  // Per-thread pending set. `epoch` lazily invalidates the buffer after a
  // crash without the crashing thread having to touch other threads' state.
  struct ThreadPending {
    std::uint64_t epoch = 0;
    std::vector<PendingLine> lines;
  };

  static ThreadPending& tls_pending();

  const Region* find_region(std::uintptr_t addr) const noexcept;
  void publish_line(const Region& r, const PendingLine& pl);

  // Region list is append-only under mu_; readers index entries
  // [0, region_count_) lock-free via the acquire-loaded count (regions are
  // never removed except clear_regions, which is stop-the-world). A
  // fixed-capacity array so registration never moves or re-links storage
  // concurrent readers are traversing.
  static constexpr std::size_t kMaxRegions = 64;
  mutable std::mutex mu_;
  std::array<Region, kMaxRegions> regions_;
  std::atomic<std::size_t> region_count_{0};

  std::atomic<std::uint64_t> crash_epoch_{0};

  std::atomic<PfenceHook> pfence_hook_{nullptr};
  std::atomic<void*> pfence_hook_ctx_{nullptr};

  static constexpr std::size_t kLockStripes = 512;
  std::array<std::atomic_flag, kLockStripes> line_locks_{};
};

}  // namespace flit::pmem
