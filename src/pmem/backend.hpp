// backend.hpp — the pwb / pfence persistence primitives.
//
// The paper is written against two architecture-agnostic instructions
// (§2): `pwb` (persistent write-back of one cache line, non-blocking) and
// `pfence` (orders and completes the calling thread's preceding pwbs).
// On Intel these map to clwb (or clflushopt/clflush) and sfence.
//
// This library dispatches the two primitives to one of four runtime
// backends, so the same data-structure binaries serve benchmarking on real
// hardware, deterministic latency modelling on DRAM-only machines, and
// crash-correctness testing:
//
//   kNoOp       — both primitives do nothing (cost ablation).
//   kHardware   — clwb/clflushopt/clflush + sfence, chosen by CPUID.
//   kSimLatency — DRAM-only model: each primitive busy-waits a configurable
//                 delay calibrated to published Optane DC figures, so the
//                 *relative* cost structure of the paper's machine is
//                 reproduced on machines without NVRAM.
//   kSimCrash   — full volatile/persistent model (see sim_memory.hpp) that
//                 supports simulated power failures.
//
// The dispatch is a relaxed atomic load plus a predictable switch; its cost
// is identical across all compared series, so relative benchmark results
// are unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "core/failpoint.hpp"
#include "pmem/cacheline.hpp"
#include "pmem/cpu_features.hpp"
#include "pmem/sim_memory.hpp"
#include "pmem/stats.hpp"

namespace flit::pmem {

enum class Backend : int {
  kNoOp = 0,
  kHardware = 1,
  kSimLatency = 2,
  kSimCrash = 3,
};

const char* to_string(Backend b) noexcept;

namespace detail {

// Definitions live in backend.cpp.
extern std::atomic<int> g_backend;
extern std::atomic<std::uint32_t> g_pwb_delay_ns;
extern std::atomic<std::uint32_t> g_pfence_delay_ns;

void hw_flush_line(const void* p) noexcept;  // clwb/clflushopt/clflush
void hw_sfence() noexcept;

/// True while the calling thread has a pwb that no pfence of its own has
/// ordered yet: pwb() sets it, an issued pfence() clears it. Deliberately
/// separate from the resettable counters in stats.hpp, so stats_reset()
/// between a pwb and its fence cannot make that fence look empty.
inline thread_local bool t_unfenced = false;

/// Busy-wait approximately `ns` nanoseconds (0 returns immediately).
inline void spin_ns(std::uint32_t ns) noexcept {
  if (ns == 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace detail

/// Select the global backend. Not thread-safe with respect to in-flight
/// persistence instructions; switch only while quiescent.
void set_backend(Backend b) noexcept;

inline Backend backend() noexcept {
  return static_cast<Backend>(
      detail::g_backend.load(std::memory_order_relaxed));
}

/// Configure the kSimLatency delays. Defaults (pwb 90ns, pfence 60ns) are
/// in the ballpark of published Optane DC write-back + fence costs.
void set_sim_latency(std::uint32_t pwb_ns, std::uint32_t pfence_ns) noexcept;

/// pwb: persistent write-back of the cache line containing `addr`.
/// Non-blocking; a subsequent pfence() completes it.
inline void pwb(const void* addr) noexcept {
  // Seeded bug: a skipped pwb never happened — not modelled by the
  // simulator, not seen by the checker, not counted.
  if (core::fp_inject("bug.skip_pwb") != 0) return;
  detail::t_unfenced = true;
  count_pwb();
  switch (backend()) {
    case Backend::kNoOp:
      return;
    case Backend::kHardware:
      detail::hw_flush_line(addr);
      return;
    case Backend::kSimLatency:
      std::atomic_signal_fence(std::memory_order_seq_cst);
      detail::spin_ns(detail::g_pwb_delay_ns.load(std::memory_order_relaxed));
      return;
    case Backend::kSimCrash:
      SimMemory::instance().on_pwb(addr);
      return;
  }
}

/// pfence: all pwbs previously executed by this thread reach persistent
/// memory before any of the thread's subsequent stores/pwbs.
///
/// Fence elision: a pfence orders only the calling thread's earlier pwbs,
/// and the thread's previous pfence already ordered every one of those.
/// So when the thread has issued no pwb since its last fence, this call
/// returns before the backend switch — on every backend, kSimCrash
/// included (no SimMemory publish, no PersistCheck hook, no pfence hook)
/// — and counts itself in `empty_pfences` instead of `pfences`.
inline void pfence() noexcept {
  if (!detail::t_unfenced) {
    count_empty_pfence();
    return;
  }
  detail::t_unfenced = false;
  count_pfence();
  switch (backend()) {
    case Backend::kNoOp:
      return;
    case Backend::kHardware:
      detail::hw_sfence();
      return;
    case Backend::kSimLatency:
      std::atomic_thread_fence(std::memory_order_seq_cst);
      detail::spin_ns(
          detail::g_pfence_delay_ns.load(std::memory_order_relaxed));
      return;
    case Backend::kSimCrash:
      std::atomic_thread_fence(std::memory_order_seq_cst);
      SimMemory::instance().on_pfence();
      return;
  }
}

/// Flush an arbitrary byte range without fencing: one pwb per spanned
/// cache line. The caller owes the pfence — the batched KV write path
/// uses this to flush a whole batch of value records and then pay a
/// single fence for all of them (see kv::Store::multi_put).
inline void pwb_range(const void* p, std::size_t len) noexcept {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::size_t n = lines_spanned(addr, len);
  std::uintptr_t line = line_base(addr);
  for (std::size_t i = 0; i < n; ++i, line += kCacheLineSize) {
    pwb(reinterpret_cast<const void*>(line));
  }
}

/// Flush and fence an arbitrary byte range (initialization helper): one pwb
/// per spanned cache line followed by a single pfence.
inline void persist_range(const void* p, std::size_t len) noexcept {
  pwb_range(p, len);
  pfence();
}

/// RAII backend switch for tests: restores the previous backend on scope
/// exit.
class BackendScope {
 public:
  explicit BackendScope(Backend b) noexcept : prev_(backend()) {
    set_backend(b);
  }
  ~BackendScope() { set_backend(prev_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  Backend prev_;
};

}  // namespace flit::pmem
