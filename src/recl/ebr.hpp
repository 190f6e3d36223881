// ebr.hpp — epoch-based memory reclamation for the lock-free structures.
//
// The paper's data structures (Harris list, Natarajan BST, skiplist, hash
// table) unlink nodes that concurrent traversals may still be reading, so
// they need a safe-memory-reclamation substrate. We implement classic
// 3-epoch EBR:
//
//   * a global epoch counter;
//   * each thread announces the epoch it read when it enters an operation
//     (Guard) and announces "idle" when it leaves;
//   * retired nodes go into the retiring thread's limbo bucket for the
//     current epoch; a bucket is recycled when the global epoch has moved
//     two steps past it (no active guard can still reach its nodes);
//   * the epoch advances when every active thread has announced the
//     current epoch.
//
// Crash tests disable reclamation (`set_reclaim(false)`) so that a
// simulated power failure never races with node reuse; the paper's own
// evaluation likewise sidesteps persistent allocator recovery (libvmmalloc
// is not crash-consistent).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace flit::recl {

class Ebr {
 public:
  static constexpr std::size_t kMaxThreads = 256;
  /// Try to advance the epoch / recycle limbo every this many retires.
  static constexpr std::size_t kScanThreshold = 64;
  /// The announcement value of a thread holding no guard (what
  /// current_announce() returns when idle).
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

  static Ebr& instance();

  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

  /// RAII epoch pin. Every data-structure operation must hold one for its
  /// whole duration. Re-entrant (nested guards are counted). A thread's
  /// first guard (or retire) claims one of kMaxThreads slots, held until
  /// the thread exits; with every slot taken it throws std::runtime_error.
  class Guard {
   public:
    Guard() { Ebr::instance().enter(); }
    ~Guard() { Ebr::instance().leave(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
  };

  /// Retire a node for deferred deletion via `deleter(p, ctx)`; `ctx`
  /// names what the node goes back to, e.g. the pmem::Pool it came from
  /// (see Pool::retire).
  void retire(void* p, void (*deleter)(void* p, void* ctx),
              void* ctx = nullptr);

  /// Globally enable/disable reclamation. When disabled, retire() leaks —
  /// used by crash tests. Switch only while quiescent.
  void set_reclaim(bool enabled) noexcept {
    reclaim_.store(enabled, std::memory_order_relaxed);
  }
  bool reclaim_enabled() const noexcept {
    return reclaim_.load(std::memory_order_relaxed);
  }

  /// Free every limbo node unconditionally. Caller must guarantee no
  /// concurrent operations (test/bench teardown between phases). Only the
  /// calling thread's buckets and those of exited threads are freed: a
  /// live thread's buckets wait for its next scan or its exit.
  void drain_all();

  /// The calling thread's slot in [0, kMaxThreads), claimed by its first
  /// guard, retire or call here and held until the thread exits (see
  /// Guard). Pools index their thread arenas by it, so a thread that takes
  /// a slot over carries on with the arena its last holder left.
  static std::size_t thread_slot() {
    if (t_slot_ < 0) instance().tls();
    return static_cast<std::size_t>(t_slot_);
  }

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  /// The calling thread's current epoch announcement (kIdleEpoch when it
  /// holds no guard). Used by the LinCheck lifetime analyzer to judge
  /// dereferences of retired nodes.
  std::uint64_t current_announce() noexcept;
  /// Nodes currently awaiting reclamation across all threads (approximate).
  std::size_t limbo_size() const noexcept {
    return limbo_count_.load(std::memory_order_relaxed);
  }

 private:
  Ebr() = default;

  static constexpr std::uint64_t kIdle = kIdleEpoch;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> announce{kIdle};
    std::atomic<bool> used{false};
  };

  struct Retired {
    void* p;
    void (*deleter)(void*, void*);
    void* ctx;
  };

  struct Bucket {
    std::uint64_t epoch = 0;  // epoch in which these nodes were retired
    std::vector<Retired> nodes;
  };

  struct ThreadState {
    int guard_depth = 0;
    std::size_t since_scan = 0;
    Bucket buckets[3];
    Ebr* owner = nullptr;
    ~ThreadState();  // hands buckets to the orphan list, frees the slot
  };

  /// The calling thread's slot index; -1 until tls() claims one.
  static constinit inline thread_local int t_slot_ = -1;

  ThreadState& tls();
  int acquire_slot();
  void enter();
  void leave();
  void scan(ThreadState& ts);
  void free_bucket(Bucket& b, bool quiescent = false);
  void adopt_orphans(std::uint64_t safe_epoch);

  std::atomic<std::uint64_t> global_epoch_{2};
  std::atomic<bool> reclaim_{true};
  std::atomic<std::size_t> limbo_count_{0};
  Slot slots_[kMaxThreads];

  std::mutex orphan_mu_;
  std::vector<Bucket> orphans_;
};

}  // namespace flit::recl
