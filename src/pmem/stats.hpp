// stats.hpp — per-thread persistence-instruction statistics.
//
// Figure 9 of the paper reports the number of pwb instructions executed per
// operation for each FliT implementation. To regenerate it we count every
// pwb and pfence issued through the backend. Counters are plain (non-atomic)
// thread-local integers — a single predictable increment on the hot path —
// and are aggregated on demand under a registry mutex.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace flit::pmem {

/// Snapshot of persistence-instruction counts (one thread or an aggregate).
struct StatsSnapshot {
  std::uint64_t pwbs = 0;     ///< pwb (cache-line write-back) instructions.
  std::uint64_t pfences = 0;  ///< issued pfence (persist fence) instructions.
  /// pwbs issued on lines with no unpersisted store (checked builds
  /// only; stays 0 otherwise).
  std::uint64_t redundant_pwbs = 0;
  /// pfence calls skipped because the thread had issued no pwb since its
  /// previous fence (nothing to order; see pmem::pfence). Not included in
  /// `pfences`. Counted in every build.
  std::uint64_t empty_pfences = 0;

  StatsSnapshot& operator+=(const StatsSnapshot& o) noexcept {
    pwbs += o.pwbs;
    pfences += o.pfences;
    redundant_pwbs += o.redundant_pwbs;
    empty_pfences += o.empty_pfences;
    return *this;
  }
  friend StatsSnapshot operator-(StatsSnapshot a,
                                 const StatsSnapshot& b) noexcept {
    a.pwbs -= b.pwbs;
    a.pfences -= b.pfences;
    a.redundant_pwbs -= b.redundant_pwbs;
    a.empty_pfences -= b.empty_pfences;
    return a;
  }
};

namespace detail {

/// One thread's counter block. Cache-line aligned: the blocks are
/// heap-allocated one per thread, and consecutive registrations would
/// otherwise land adjacent — two threads bumping hot counters on one
/// shared line, the same false-sharing collapse the paper measures in §6
/// when flit counters are packed into a single cache line.
struct alignas(64) ThreadStats {
  std::uint64_t pwbs = 0;
  std::uint64_t pfences = 0;
  std::uint64_t redundant_pwbs = 0;
  std::uint64_t empty_pfences = 0;
};

/// Registry of every thread's counter block. Thread-local blocks are
/// heap-allocated and intentionally leaked (never freed) so aggregation can
/// safely read blocks of exited threads; the count is bounded by the number
/// of distinct threads over the process lifetime.
class StatsRegistry {
 public:
  static StatsRegistry& instance() {
    // Immortal (heap-allocated, never destroyed): threads may still issue
    // counted instructions during static destruction, and the blocks must
    // stay reachable so leak checkers classify them as intentional.
    static StatsRegistry* r = new StatsRegistry();
    return *r;
  }

  ThreadStats* register_thread() {
    auto* ts = new ThreadStats();
    std::lock_guard<std::mutex> lk(mu_);
    blocks_.push_back(ts);
    return ts;
  }

  StatsSnapshot aggregate() const {
    StatsSnapshot s;
    std::lock_guard<std::mutex> lk(mu_);
    for (const ThreadStats* ts : blocks_) {
      s.pwbs += ts->pwbs;
      s.pfences += ts->pfences;
      s.redundant_pwbs += ts->redundant_pwbs;
      s.empty_pfences += ts->empty_pfences;
    }
    return s;
  }

  /// Zero every thread's counters. Only call while no other thread is
  /// issuing persistence instructions (e.g. between benchmark phases).
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    for (ThreadStats* ts : blocks_) {
      ts->pwbs = 0;
      ts->pfences = 0;
      ts->redundant_pwbs = 0;
      ts->empty_pfences = 0;
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<ThreadStats*> blocks_;
};

inline ThreadStats& tls_stats() {
  static thread_local ThreadStats* ts =
      StatsRegistry::instance().register_thread();
  return *ts;
}

}  // namespace detail

/// Record one pwb / one issued pfence / one skipped (empty) pfence call
/// (called by the backend on every instruction).
inline void count_pwb() noexcept { ++detail::tls_stats().pwbs; }
inline void count_pfence() noexcept { ++detail::tls_stats().pfences; }
inline void count_empty_pfence() noexcept {
  ++detail::tls_stats().empty_pfences;
}

/// Record a pwb that hit an all-clean line (called by PersistCheck).
inline void count_redundant_pwb() noexcept {
  ++detail::tls_stats().redundant_pwbs;
}

/// Aggregate counts across all threads that ever issued an instruction.
inline StatsSnapshot stats_snapshot() {
  return detail::StatsRegistry::instance().aggregate();
}

/// Reset all counters to zero (quiescent callers only).
inline void stats_reset() { detail::StatsRegistry::instance().reset(); }

}  // namespace flit::pmem
