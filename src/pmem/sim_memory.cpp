#include "pmem/sim_memory.hpp"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "pmem/persist_check.hpp"

namespace flit::pmem {

SimMemory& SimMemory::instance() {
  static SimMemory s;
  return s;
}

SimMemory::ThreadPending& SimMemory::tls_pending() {
  static thread_local ThreadPending tp;
  return tp;
}

void SimMemory::register_region(void* base, std::size_t len) {
  const auto b = reinterpret_cast<std::uintptr_t>(base);
  assert(line_base(b) == b && "region base must be cache-line aligned");
  len = round_up_to_line(len);

  Region r;
  r.base = b;
  r.len = len;
  r.shadow = std::make_unique<std::byte[]>(len);
  r.snap_seq = std::make_unique<std::uint64_t[]>(len / kCacheLineSize);
  r.line_seq = std::make_unique<std::uint64_t[]>(len / kCacheLineSize);
  std::memcpy(r.shadow.get(), base, len);

  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = region_count_.load(std::memory_order_relaxed);
  if (n == kMaxRegions) {
    // Loud failure even under NDEBUG: silently dropping a region would
    // make every pwb/pfence on it a no-op and crash() skip it — tests
    // would "pass" while simulating nothing.
    throw std::length_error("SimMemory: too many registered regions");
  }
  regions_[n] = std::move(r);
  region_count_.store(n + 1, std::memory_order_release);
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_register_region(base, len);
#endif
}

void SimMemory::clear_regions() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = region_count_.load(std::memory_order_relaxed);
  region_count_.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) regions_[i] = Region{};
  // Invalidate every thread's pending buffer lazily.
  crash_epoch_.fetch_add(1, std::memory_order_acq_rel);
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_clear_regions();
#endif
}

void SimMemory::on_store(const void* p, std::size_t len) noexcept {
  pc_store(p, len);
}

const SimMemory::Region* SimMemory::find_region(
    std::uintptr_t addr) const noexcept {
  // regions_ is append-only; entries [0, region_count_) are immutable once
  // published, so lock-free reads are safe.
  const std::size_t n = region_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Region& r = regions_[i];
    if (addr >= r.base && addr < r.base + r.len) return &r;
  }
  return nullptr;
}

bool SimMemory::contains(const void* p) const noexcept {
  return find_region(reinterpret_cast<std::uintptr_t>(p)) != nullptr;
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define FLIT_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define FLIT_NO_SANITIZE_THREAD
#endif

/// Copy one live cache line into a pending-snapshot buffer, the way the
/// hardware's write-back engine would: word by word, each word whole.
/// This used to be a plain memcpy, which had a real fidelity bug — the
/// byte-wise copy could tear a racing thread's in-flight 8-byte atomic
/// store and "persist" a half-written pointer, a state a coherent line
/// write-back can never produce. Aligned volatile 8-byte loads fix that:
/// one load instruction per word on every supported target, so each
/// captured word is entirely-old or entirely-new (the stripe lock orders
/// snapshots of a line, not the data they carry). TSan instrumentation
/// is disabled because the copy unavoidably conflicts with plain stores
/// it can never synchronize with: a flushed line also carries bytes of
/// *neighboring* objects another thread is still privately initializing
/// (pool allocations pack objects within a line). Capturing such a word
/// pre- or post-store is benign — the object is unreachable until its
/// publication CAS orders it — exactly like a real line flush racing
/// adjacent initialization. (volatile rather than std::atomic_ref
/// because GCC instruments atomic builtins even in no_sanitize
/// functions, which would re-flag the benign conflict.)
FLIT_NO_SANITIZE_THREAD
void snapshot_line(std::uintptr_t line, std::byte* dst) {
  auto* src = reinterpret_cast<const volatile std::uint64_t*>(line);
  for (std::size_t w = 0; w < kCacheLineSize / sizeof(std::uint64_t); ++w) {
    const std::uint64_t word = src[w];
    std::memcpy(dst + w * sizeof(std::uint64_t), &word, sizeof(word));
  }
}

}  // namespace

void SimMemory::on_pwb(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const Region* r = find_region(a);
  if (r == nullptr) return;  // not persistent memory; pwb has no effect

  ThreadPending& tp = tls_pending();
  const std::uint64_t epoch = crash_epoch_.load(std::memory_order_acquire);
  if (tp.epoch != epoch) {  // stale pendings from before a crash/reset
    tp.lines.clear();
    tp.epoch = epoch;
  }

  PendingLine pl;
  pl.line = line_base(a);
  // Snapshot under the line's stripe lock with a per-line sequence number:
  // snapshots of one line are serialized, so a higher seq is a no-older
  // memory state. publish_line() uses that order to drop stale snapshots —
  // otherwise thread A's pfence could publish a pre-B snapshot of a shared
  // line and roll back thread B's already-fenced write (real cache lines
  // are coherent; a write-back can never revert one).
  const std::size_t idx = line_index(r->base, pl.line);
  std::atomic_flag& lock = line_locks_[idx % kLockStripes];
  while (lock.test_and_set(std::memory_order_acquire)) {
  }
  pl.seq = ++r->snap_seq[idx];
  snapshot_line(pl.line, pl.data.data());
  lock.clear(std::memory_order_release);
  tp.lines.push_back(pl);
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_pwb(addr);
#endif
}

void SimMemory::publish_line(const Region& r, const PendingLine& pl) {
  const std::size_t idx = line_index(r.base, pl.line);
  std::atomic_flag& lock = line_locks_[idx % kLockStripes];
  while (lock.test_and_set(std::memory_order_acquire)) {
    // spin; critical section is a 64-byte copy
  }
  if (pl.seq > r.line_seq[idx]) {
    r.line_seq[idx] = pl.seq;
    std::memcpy(r.shadow.get() + idx * kCacheLineSize, pl.data.data(),
                kCacheLineSize);
  }
  lock.clear(std::memory_order_release);
}

void SimMemory::on_pfence() {
  ThreadPending& tp = tls_pending();
  const std::uint64_t epoch = crash_epoch_.load(std::memory_order_acquire);
  if (tp.epoch != epoch) {
    tp.lines.clear();
    tp.epoch = epoch;
    return;  // PersistCheck's own epoch guard drops its stale pendings too
  }
  for (const PendingLine& pl : tp.lines) {
    if (const Region* r = find_region(pl.line)) publish_line(*r, pl);
  }
  tp.lines.clear();
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_pfence();
#endif
  if (PfenceHook hook = pfence_hook_.load(std::memory_order_acquire)) {
    hook(pfence_hook_ctx_.load(std::memory_order_acquire));
  }
}

std::vector<std::byte> SimMemory::clone_shadow(std::size_t idx) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (idx >= region_count_.load(std::memory_order_acquire)) return {};
  const Region& r = regions_[idx];
  return std::vector<std::byte>(r.shadow.get(), r.shadow.get() + r.len);
}

std::vector<std::byte> SimMemory::clone_volatile(std::size_t idx) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (idx >= region_count_.load(std::memory_order_acquire)) return {};
  const Region& r = regions_[idx];
  const auto* p = reinterpret_cast<const std::byte*>(r.base);
  return std::vector<std::byte>(p, p + r.len);
}

void SimMemory::overwrite_volatile(const std::vector<std::byte>& image,
                                   std::size_t idx) {
  std::lock_guard<std::mutex> lk(mu_);
  if (idx >= region_count_.load(std::memory_order_acquire)) return;
  Region& r = regions_[idx];
  const std::size_t n = image.size() < r.len ? image.size() : r.len;
  std::memcpy(reinterpret_cast<void*>(r.base), image.data(), n);
  crash_epoch_.fetch_add(1, std::memory_order_acq_rel);  // drop pendings
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_mark_all_clean();
#endif
}

void SimMemory::set_pfence_hook(PfenceHook hook, void* ctx) noexcept {
  pfence_hook_ctx_.store(ctx, std::memory_order_release);
  pfence_hook_.store(hook, std::memory_order_release);
}

void SimMemory::crash() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = region_count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    Region& r = regions_[i];
    std::memcpy(reinterpret_cast<void*>(r.base), r.shadow.get(), r.len);
  }
  crash_epoch_.fetch_add(1, std::memory_order_acq_rel);
#if defined(FLIT_CHECKED)
  // Post-crash the volatile view *is* the persisted image: all Clean.
  PersistCheck::instance().on_mark_all_clean();
#endif
}

void SimMemory::persist_all() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = region_count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    Region& r = regions_[i];
    std::memcpy(r.shadow.get(), reinterpret_cast<const void*>(r.base), r.len);
  }
  crash_epoch_.fetch_add(1, std::memory_order_acq_rel);
#if defined(FLIT_CHECKED)
  PersistCheck::instance().on_mark_all_clean();
#endif
}

std::vector<std::byte> SimMemory::persisted_line(const void* addr) const {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const Region* r = find_region(a);
  if (r == nullptr) return {};
  const std::size_t idx = line_index(r->base, line_base(a));
  std::vector<std::byte> out(kCacheLineSize);
  std::memcpy(out.data(), r->shadow.get() + idx * kCacheLineSize,
              kCacheLineSize);
  return out;
}

bool SimMemory::line_pending_here(const void* addr) const {
  const ThreadPending& tp = tls_pending();
  if (tp.epoch != crash_epoch_.load(std::memory_order_acquire)) return false;
  const std::uintptr_t lb = line_base(reinterpret_cast<std::uintptr_t>(addr));
  for (const PendingLine& pl : tp.lines) {
    if (pl.line == lb) return true;
  }
  return false;
}

}  // namespace flit::pmem
