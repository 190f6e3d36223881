#include "recl/ebr.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "check/lincheck.hpp"
#include "core/checked.hpp"

namespace flit::recl {

Ebr& Ebr::instance() {
  static Ebr e;
  return e;
}

Ebr::ThreadState::~ThreadState() {
  if (owner == nullptr) return;
  // Hand any unreclaimed nodes to the orphan list; they are freed by a
  // future scan once the epoch has safely advanced.
  {
    std::lock_guard<std::mutex> lk(owner->orphan_mu_);
    for (Bucket& b : buckets) {
      if (!b.nodes.empty()) owner->orphans_.push_back(std::move(b));
    }
  }
  // Releasing the slot hands this thread's arena in every pool to the
  // next thread that claims it (the release pairs with acquire_slot).
  owner->slots_[t_slot_].announce.store(kIdle, std::memory_order_release);
  owner->slots_[t_slot_].used.store(false, std::memory_order_release);
}

Ebr::ThreadState& Ebr::tls() {
  static thread_local ThreadState ts;
  if (ts.owner == nullptr) {
    t_slot_ = acquire_slot();  // throws first: a slotless thread stays unowned
    ts.owner = this;
  }
  return ts;
}

int Ebr::acquire_slot() {
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (!slots_[i].used.load(std::memory_order_acquire) &&
        slots_[i].used.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      return static_cast<int>(i);
    }
  }
  throw std::runtime_error(
      "recl::Ebr: every one of the " + std::to_string(kMaxThreads) +
      " thread slots is taken");
}

void Ebr::enter() {
  ThreadState& ts = tls();
  if (ts.guard_depth++ > 0) return;
  Slot& s = slots_[t_slot_];
  // Announce-then-verify so the announcement is never behind the epoch we
  // operate in.
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    s.announce.store(e, std::memory_order_seq_cst);
    const std::uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
    if (e2 == e) break;
    e = e2;
  }
}

void Ebr::leave() {
  ThreadState& ts = tls();
  assert(ts.guard_depth > 0);
  if (--ts.guard_depth == 0) {
    slots_[t_slot_].announce.store(kIdle, std::memory_order_release);
  }
}

std::uint64_t Ebr::current_announce() noexcept {
  ThreadState& ts = tls();
  if (ts.guard_depth == 0) return kIdleEpoch;
  return slots_[t_slot_].announce.load(std::memory_order_relaxed);
}

void Ebr::retire(void* p, void (*deleter)(void*, void*), void* ctx) {
  if (!reclaim_.load(std::memory_order_relaxed)) return;  // crash-test leak
  ThreadState& ts = tls();
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  check::lc_retire(p, e, "recl::Ebr::retire");
  Bucket& b = ts.buckets[e % 3];
  if (b.epoch != e) {
    // Entering epoch e recycles this bucket: its content was retired in
    // epoch e-3 (or earlier drained), i.e. at least two epochs ago.
    free_bucket(b);
    b.epoch = e;
  }
  b.nodes.push_back({p, deleter, ctx});
  limbo_count_.fetch_add(1, std::memory_order_relaxed);
  if (++ts.since_scan >= kScanThreshold) {
    ts.since_scan = 0;
    scan(ts);
  }
}

void Ebr::scan(ThreadState& ts) {
  (void)ts;
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    if (!slots_[i].used.load(std::memory_order_acquire)) continue;
    const std::uint64_t a = slots_[i].announce.load(std::memory_order_seq_cst);
    if (a != kIdle && a != e) return;  // somebody still in an older epoch
  }
  std::uint64_t expected = e;
  if (global_epoch_.compare_exchange_strong(expected, e + 1,
                                            std::memory_order_seq_cst)) {
    adopt_orphans(/*safe_epoch=*/e - 1);
  }
}

void Ebr::free_bucket(Bucket& b, bool quiescent) {
  if (b.nodes.empty()) return;
  limbo_count_.fetch_sub(b.nodes.size(), std::memory_order_relaxed);
  if constexpr (core::kChecked) {
    const std::uint64_t now = global_epoch_.load(std::memory_order_acquire);
    for (const Retired& r : b.nodes) check::lc_free(r.p, now, quiescent);
  }
  for (const Retired& r : b.nodes) r.deleter(r.p, r.ctx);
  b.nodes.clear();
}

void Ebr::adopt_orphans(std::uint64_t safe_epoch) {
  std::lock_guard<std::mutex> lk(orphan_mu_);
  for (std::size_t i = 0; i < orphans_.size();) {
    if (orphans_[i].epoch <= safe_epoch) {
      free_bucket(orphans_[i]);
      orphans_[i] = std::move(orphans_.back());
      orphans_.pop_back();
    } else {
      ++i;
    }
  }
}

void Ebr::drain_all() {
  // Caller guarantees quiescence: free this thread's buckets and all
  // orphans. Other threads' buckets are handed over when those threads
  // exit; tests drain after joining their workers.
  ThreadState& ts = tls();
  for (Bucket& b : ts.buckets) free_bucket(b, /*quiescent=*/true);
  std::lock_guard<std::mutex> lk(orphan_mu_);
  for (Bucket& b : orphans_) free_bucket(b, /*quiescent=*/true);
  orphans_.clear();
}

}  // namespace flit::recl
