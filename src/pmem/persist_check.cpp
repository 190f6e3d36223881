#include "pmem/persist_check.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmem/cacheline.hpp"
#include "pmem/stats.hpp"

namespace flit::pmem {

const char* to_string(PersistViolation v) noexcept {
  switch (v) {
    case PersistViolation::kPublishUnpersisted:
      return "persist-before-publish violation";
    case PersistViolation::kMissingFlushLeak:
      return "missing-flush leak";
    case PersistViolation::kPrematureRetire:
      return "premature retirement";
    case PersistViolation::kDeferredDangling:
      return "deferred tag left dangling";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kWordBytes = 8;
constexpr std::size_t kWordsPerLine = kCacheLineSize / kWordBytes;

// Word state packing: bits [0,2) state, bits [2,32) store sequence. The
// sequence wraps at 2^30 stores to one word, far past any test run; a
// wrap could only ever suppress a diagnostic, never invent one.
constexpr std::uint32_t kClean = 0;
constexpr std::uint32_t kDirty = 1;
constexpr std::uint32_t kPending = 2;
constexpr std::uint32_t kStateMask = 0x3;

constexpr std::uint32_t state_of(std::uint32_t w) noexcept {
  return w & kStateMask;
}
constexpr std::uint32_t seq_of(std::uint32_t w) noexcept {
  return w >> 2;
}
constexpr std::uint32_t pack(std::uint32_t seq, std::uint32_t st) noexcept {
  return (seq << 2) | st;
}

struct PendingWord {
  std::uintptr_t addr = 0;  // word-aligned
  std::uint32_t seq = 0;
};

struct DeferredPub {
  std::uintptr_t addr = 0;  // word-aligned
  std::uint32_t seq = 0;
  const char* site = nullptr;
};

// Per-thread flushed-but-unfenced words, in-flight deferred publications
// and the word (and sequence) of the last cas_deferred's own store;
// `epoch` lazily invalidates them after a crash/reset, the same scheme
// SimMemory::ThreadPending uses.
struct Tls {
  std::uint64_t epoch = 0;
  std::vector<PendingWord> pending;
  std::vector<DeferredPub> deferred;
  PendingWord published;
};

Tls& tls() {
  static thread_local Tls t;
  return t;
}

}  // namespace

struct PersistCheck::Impl {
  struct Region {
    std::uintptr_t base = 0;
    std::size_t words = 0;
    std::unique_ptr<std::atomic<std::uint32_t>[]> state;
  };

  static constexpr std::size_t kMaxRegions = 64;

  mutable std::mutex mu;
  Region regions[kMaxRegions];
  std::atomic<std::size_t> region_count{0};
  std::atomic<std::uint64_t> epoch{0};

  std::atomic<std::uint64_t> counts[kPersistViolationKinds] = {};
  std::once_flag atexit_once;

  // First few diagnostics, kept for the exit report and for tests that
  // assert the reporting site.
  static constexpr std::size_t kMaxDiags = 32;
  mutable std::mutex diag_mu;
  std::vector<std::string> diags;
  const char* first_site = "";

  std::atomic<std::uint32_t>* find_word(std::uintptr_t addr,
                                        const Region** reg = nullptr) {
    const std::size_t n = region_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      Region& r = regions[i];
      if (addr >= r.base && addr < r.base + r.words * kWordBytes) {
        if (reg != nullptr) *reg = &r;
        return &r.state[(addr - r.base) / kWordBytes];
      }
    }
    return nullptr;
  }

  Tls& valid_tls() {
    Tls& t = tls();
    const std::uint64_t e = epoch.load(std::memory_order_acquire);
    if (t.epoch != e) {
      t.pending.clear();
      t.deferred.clear();
      t.published = {};
      t.epoch = e;
    }
    return t;
  }

  void report(PersistViolation v, const char* site, std::uintptr_t addr) {
    counts[static_cast<int>(v)].fetch_add(1, std::memory_order_acq_rel);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "PersistCheck: %s at %s (word %p)",
                  flit::pmem::to_string(v), site,
                  reinterpret_cast<void*>(addr));
    std::fprintf(stderr, "%s\n", buf);
    std::lock_guard<std::mutex> lk(diag_mu);
    if (diags.empty()) first_site = site;
    if (diags.size() < kMaxDiags) diags.emplace_back(buf);
  }

  void mark_store(std::uintptr_t a, std::size_t len) {
    if (len == 0) return;
    const std::uintptr_t first = a & ~(kWordBytes - 1);
    const std::uintptr_t last = (a + len - 1) & ~(kWordBytes - 1);
    for (std::uintptr_t w = first; w <= last; w += kWordBytes) {
      std::atomic<std::uint32_t>* st = find_word(w);
      if (st != nullptr) mark_word(*st);
    }
  }

  /// One word's store: Dirty with a bumped sequence number, returned.
  static std::uint32_t mark_word(std::atomic<std::uint32_t>& st) {
    std::uint32_t cur = st.load(std::memory_order_relaxed);
    std::uint32_t next;
    do {
      next = pack(seq_of(cur) + 1, kDirty);
    } while (!st.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed));
    return seq_of(next);
  }

  /// True if every word of [a, a+len) is Clean; else sets *bad_word.
  bool range_clean(std::uintptr_t a, std::size_t len,
                   std::uintptr_t* bad_word) {
    if (len == 0) return true;
    const std::uintptr_t first = a & ~(kWordBytes - 1);
    const std::uintptr_t last = (a + len - 1) & ~(kWordBytes - 1);
    for (std::uintptr_t w = first; w <= last; w += kWordBytes) {
      std::atomic<std::uint32_t>* st = find_word(w);
      if (st == nullptr) continue;
      if (state_of(st->load(std::memory_order_acquire)) != kClean) {
        *bad_word = w;
        return false;
      }
    }
    return true;
  }

  /// Force [a, a+len) Clean after reporting a violation on it, so one bug
  /// produces one diagnostic instead of a cascade at every later check.
  void force_clean(std::uintptr_t a, std::size_t len) {
    if (len == 0) return;
    const std::uintptr_t first = a & ~(kWordBytes - 1);
    const std::uintptr_t last = (a + len - 1) & ~(kWordBytes - 1);
    for (std::uintptr_t w = first; w <= last; w += kWordBytes) {
      std::atomic<std::uint32_t>* st = find_word(w);
      if (st == nullptr) continue;
      std::uint32_t cur = st->load(std::memory_order_relaxed);
      while (!st->compare_exchange_weak(cur, pack(seq_of(cur), kClean),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      }
    }
  }
};

PersistCheck::Impl& PersistCheck::impl() {
  // Immortal, like StatsRegistry: threads may still run hooks during
  // static destruction, and the atexit report reads the counters.
  static Impl* i = new Impl();
  return *i;
}

PersistCheck& PersistCheck::instance() {
  static PersistCheck* p = new PersistCheck();
  return *p;
}

void PersistCheck::on_register_region(const void* base, std::size_t len) {
  Impl& im = impl();
  std::call_once(im.atexit_once, [] {
    std::atexit([] {
      PersistCheck& pc = PersistCheck::instance();
      const std::uint64_t total = pc.total_violations();
      if (total == 0) return;
      Impl& im2 = pc.impl();
      std::fprintf(stderr,
                   "PersistCheck: %llu unacknowledged violation(s) at "
                   "exit:\n",
                   static_cast<unsigned long long>(total));
      {
        std::lock_guard<std::mutex> lk(im2.diag_mu);
        for (const std::string& d : im2.diags) {
          std::fprintf(stderr, "  %s\n", d.c_str());
        }
      }
      std::_Exit(1);
    });
  });

  len = round_up_to_line(len);
  Impl::Region r;
  r.base = reinterpret_cast<std::uintptr_t>(base);
  r.words = len / kWordBytes;
  r.state = std::make_unique<std::atomic<std::uint32_t>[]>(r.words);
  for (std::size_t i = 0; i < r.words; ++i) {
    r.state[i].store(0, std::memory_order_relaxed);
  }

  std::lock_guard<std::mutex> lk(im.mu);
  const std::size_t n = im.region_count.load(std::memory_order_relaxed);
  if (n == Impl::kMaxRegions) {
    throw std::length_error("PersistCheck: too many registered regions");
  }
  im.regions[n] = std::move(r);
  im.region_count.store(n + 1, std::memory_order_release);
}

void PersistCheck::on_clear_regions() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  const std::size_t n = im.region_count.load(std::memory_order_relaxed);
  im.region_count.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) im.regions[i] = Impl::Region{};
  im.epoch.fetch_add(1, std::memory_order_acq_rel);
}

void PersistCheck::on_mark_all_clean() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  const std::size_t n = im.region_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    Impl::Region& r = im.regions[i];
    for (std::size_t w = 0; w < r.words; ++w) {
      r.state[w].store(0, std::memory_order_relaxed);
    }
  }
  im.epoch.fetch_add(1, std::memory_order_acq_rel);
}

void PersistCheck::on_store(const void* p, std::size_t len) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  im.mark_store(reinterpret_cast<std::uintptr_t>(p), len);
}

void PersistCheck::on_deferred_store(const void* addr) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  const auto a = reinterpret_cast<std::uintptr_t>(addr) & ~(kWordBytes - 1);
  std::atomic<std::uint32_t>* st = im.find_word(a);
  if (st == nullptr) return;
  im.valid_tls().published = {a, Impl::mark_word(*st)};
}

void PersistCheck::on_pwb(const void* addr) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  const std::uintptr_t line =
      line_base(reinterpret_cast<std::uintptr_t>(addr));
  if (im.find_word(line) == nullptr) return;

  Tls& t = im.valid_tls();
  bool any_tracked = false;
  for (std::size_t i = 0; i < kWordsPerLine; ++i) {
    const std::uintptr_t w = line + i * kWordBytes;
    std::atomic<std::uint32_t>* st = im.find_word(w);
    if (st == nullptr) continue;
    std::uint32_t cur = st->load(std::memory_order_acquire);
    for (;;) {
      if (state_of(cur) == kClean) break;
      if (state_of(cur) == kPending) {
        // Another thread flushed it first (or a reader's flush-if-tagged
        // re-flushed it): our snapshot carries the same store, so our
        // fence may also publish it.
        t.pending.push_back({w, seq_of(cur)});
        any_tracked = true;
        break;
      }
      // Dirty -> FlushedPending, same sequence.
      if (st->compare_exchange_weak(cur, pack(seq_of(cur), kPending),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        t.pending.push_back({w, seq_of(cur)});
        any_tracked = true;
        break;
      }
    }
  }
  if (!any_tracked) count_redundant_pwb();
}

void PersistCheck::on_pfence() noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  Tls& t = im.valid_tls();
  for (const PendingWord& pw : t.pending) {
    std::atomic<std::uint32_t>* st = im.find_word(pw.addr);
    if (st == nullptr) continue;
    std::uint32_t cur = st->load(std::memory_order_acquire);
    // Publish only if no newer store superseded the flushed snapshot —
    // the state-level twin of SimMemory::publish_line's seq check.
    while (seq_of(cur) == pw.seq && state_of(cur) == kPending) {
      if (st->compare_exchange_weak(cur, pack(pw.seq, kClean),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        break;
      }
    }
  }
  t.pending.clear();
}

void PersistCheck::on_publish(const void* p, std::size_t len,
                              const char* site) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t bad = 0;
  if (!im.range_clean(a, len, &bad)) {
    im.report(PersistViolation::kPublishUnpersisted, site, bad);
    im.force_clean(a, len);
  }
}

void PersistCheck::on_retire(const void* p, std::size_t len,
                             const char* site) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  Tls& t = im.valid_tls();
  for (const DeferredPub& d : t.deferred) {
    std::atomic<std::uint32_t>* st = im.find_word(d.addr);
    if (st == nullptr) continue;
    const std::uint32_t cur = st->load(std::memory_order_acquire);
    if (seq_of(cur) == d.seq && state_of(cur) != kClean) {
      // The publication that superseded this record is not durable yet:
      // a crash now could recover the OLD link over recycled storage.
      im.report(PersistViolation::kPrematureRetire, site, d.addr);
      return;
    }
  }
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t bad = 0;
  if (!im.range_clean(a, len, &bad)) {
    im.report(PersistViolation::kMissingFlushLeak, site, bad);
    im.force_clean(a, len);
  }
}

void PersistCheck::on_deferred_publish(const void* addr,
                                       const char* site) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  const auto a = reinterpret_cast<std::uintptr_t>(addr) & ~(kWordBytes - 1);
  Tls& t = im.valid_tls();
  // The publication's own store, not the word's latest: another thread
  // may have stored to the word since the CAS (a volatile cleanup CAS,
  // or a p-CAS between its store and its fence), and this publisher's
  // fence does not answer for that store.
  if (t.published.addr != a) return;  // not in a registered region
  t.deferred.push_back({a, t.published.seq, site});
}

void PersistCheck::on_complete_deferred(const void* addr) noexcept {
  Impl& im = impl();
  if (im.region_count.load(std::memory_order_acquire) == 0) return;
  const auto a = reinterpret_cast<std::uintptr_t>(addr) & ~(kWordBytes - 1);
  Tls& t = im.valid_tls();
  for (std::size_t i = t.deferred.size(); i-- > 0;) {
    if (t.deferred[i].addr != a) continue;
    const DeferredPub d = t.deferred[i];
    t.deferred.erase(t.deferred.begin() +
                     static_cast<std::ptrdiff_t>(i));
    std::atomic<std::uint32_t>* st = im.find_word(a);
    if (st != nullptr) {
      const std::uint32_t cur = st->load(std::memory_order_acquire);
      // seq moved => a newer store owns the word's durability (its writer
      // untags/clears after its own fence); unchanged and not Clean =>
      // this completion drops the tag before the covering fence landed.
      if (seq_of(cur) == d.seq && state_of(cur) != kClean) {
        im.report(PersistViolation::kDeferredDangling, d.site, a);
      }
    }
    return;
  }
}

bool PersistCheck::armed() const noexcept {
  return const_cast<PersistCheck*>(this)->impl().region_count.load(
             std::memory_order_acquire) != 0;
}

std::uint64_t PersistCheck::violations(PersistViolation v) const noexcept {
  return const_cast<PersistCheck*>(this)
      ->impl()
      .counts[static_cast<int>(v)]
      .load(std::memory_order_acquire);
}

std::uint64_t PersistCheck::total_violations() const noexcept {
  std::uint64_t t = 0;
  for (int i = 0; i < kPersistViolationKinds; ++i) {
    t += violations(static_cast<PersistViolation>(i));
  }
  return t;
}

void PersistCheck::reset_violations() noexcept {
  Impl& im = impl();
  for (auto& c : im.counts) c.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lk(im.diag_mu);
  im.diags.clear();
  im.first_site = "";
}

const char* PersistCheck::first_violation_site() const noexcept {
  Impl& im = const_cast<PersistCheck*>(this)->impl();
  std::lock_guard<std::mutex> lk(im.diag_mu);
  return im.first_site;
}

}  // namespace flit::pmem
