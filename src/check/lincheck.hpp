// lincheck.hpp — the LinCheck runtime: a low-overhead history recorder,
// the EBR lifetime analyzer, and the stale_read seeded bug's deferral
// queue, plus the `lc_*` hook helpers the kv/ds/pmem layers call.
//
// Wiring mirrors PersistCheck (pmem/persist_check.hpp): the hook helpers
// are inline and compile to nothing unless the FLIT_CHECKED CMake option
// defines FLIT_CHECKED, so default builds carry zero overhead — no tick
// traffic, no registry, not even the value hashing (it happens inside the
// disabled helper). The classes themselves are compiled unconditionally
// so tests can drive the checker on hand-built histories in any build.
//
// Recorder: every hooked operation takes an invocation tick before it
// starts and a response tick after it returns, both from one global
// atomic counter, and appends one Event to a per-thread append-only log
// (owner-thread writes only; a light lock is taken only so the quiescent
// snapshot() is well-defined). The recorded interval therefore contains
// the operation's true linearization point, which is the only property
// the checker needs.
//
// Lifetime: pmem allocations, EBR retirements and frees, and ds-layer
// node dereferences are cross-checked against the 3-epoch EBR grace
// rule. A legitimate reader that can still hold a pointer to a node
// retired at epoch E has announced at most E+1 (its guard would have
// blocked the epoch from advancing further), so:
//   * freeing a node before global epoch >= E+2 (outside a quiescent
//     drain) is an early reclamation;
//   * dereferencing a retired node from a thread with no guard, or one
//     announcing >= E+2, is a protocol violation — no correct traversal
//     can still reach that node;
//   * dereferencing a node after it was freed is a use-after-free.
// Like PersistCheck, unacknowledged lifetime violations make the process
// exit nonzero at exit, so a stress test can't silently pass over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "core/checked.hpp"
#include "recl/ebr.hpp"

namespace flit::check {

/// Sentinel returned by lc_begin() when recording is off.
inline constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

/// Global history recorder. Disarmed by default even in checked builds:
/// tests arm() around the workload they want checked and snapshot() after
/// joining their workers.
class Recorder {
 public:
  static Recorder& instance();

  void arm() noexcept;
  void disarm() noexcept;
  bool armed() const noexcept;

  /// The next tick to be handed out — use as a durable-mode cut: every
  /// op with inv < now() was invoked before this point.
  std::uint64_t now() const noexcept;

  /// Take an invocation tick (kNoTick when disarmed — end() then drops
  /// the event, so an op spanning arm()/disarm() is never half-recorded).
  std::uint64_t begin() noexcept;

  void end(std::uint64_t inv, Op op, std::int64_t key, std::uint64_t value,
           bool flag);
  void end_scan(std::uint64_t inv, std::int64_t start, std::size_t limit,
                std::vector<std::pair<std::int64_t, std::uint64_t>> out);

  /// Copy out everything recorded so far. Call at quiescence (workers
  /// joined); concurrent appends make the copy a valid prefix per thread.
  History snapshot() const;

  /// Drop all recorded events and restart ticks from 1.
  void reset();

 private:
  Recorder() = default;
};

enum class LifetimeViolation : int {
  kEarlyReclaim = 0,  ///< freed before the 2-epoch grace period elapsed
  kUseAfterFree,      ///< dereferenced after its storage was freed
  kUnprotectedDeref,  ///< retired node dereferenced with no guard held
  kStaleDeref,        ///< retired node dereferenced from a post-grace epoch
};
inline constexpr int kLifetimeViolationKinds = 4;

const char* to_string(LifetimeViolation v) noexcept;

/// EBR lifetime registry + violation accounting. All entry points are
/// thread-safe; counters follow the PersistCheck acknowledgement idiom
/// (tests assert zero and reset; unacknowledged violations fail the
/// process at exit).
class Lifetime {
 public:
  static Lifetime& instance();

  /// A pool allocation: forget any retired/freed record the new block
  /// overlaps (the address is being legitimately recycled).
  void on_alloc(const void* p, std::size_t len);

  /// A node entered the limbo list at `epoch` from `site`.
  void on_retire(const void* p, std::uint64_t epoch, const char* site);

  /// A limbo node is about to be freed while the global epoch is `now`.
  /// `quiescent` exempts drain_all()-style frees from the grace check.
  void on_free(const void* p, std::uint64_t now, bool quiescent);

  /// A traversal dereferences node `p` while announcing `announce`
  /// (recl::Ebr::kIdleEpoch when no guard is held).
  void on_deref(const void* p, std::uint64_t announce, const char* site);

  std::uint64_t violations(LifetimeViolation v) const noexcept;
  std::uint64_t total_violations() const noexcept;
  /// Site string of the first violation since the last reset ("" if none).
  const char* first_violation_site() const noexcept;
  /// Acknowledge all violations (does not clear the registry).
  void reset_violations() noexcept;

  /// Drop the whole registry — the pool was torn down or remapped, so
  /// stale entries would alias fresh file-backed regions.
  void clear();

 private:
  Lifetime() = default;
};

// --- seeded bugs -----------------------------------------------------------
// The kv layer plants its seeded bugs at `bug.*` failpoint sites (see
// core/failpoint.hpp); LinCheck must catch each with the right class and
// site. Only bug.stale_read needs state of its own:

/// Park a write's real application until the next write applies pending
/// work (or a test flushes it).
void unsafe_defer(std::function<void()> fn);
void unsafe_apply_pending();

// --- hook helpers ----------------------------------------------------------
// These are what the instrumented layers call. Each is a no-op (and the
// disabled branch folds away entirely) unless FLIT_CHECKED is defined.

inline std::uint64_t lc_begin() noexcept {
  if constexpr (core::kChecked) return Recorder::instance().begin();
  return kNoTick;
}

/// Completed write-ish op (put/insert/remove): `payload` is hashed to a
/// value id for puts; pass empty for remove.
inline void lc_end_write(std::uint64_t inv, Op op, std::int64_t key,
                         std::string_view payload, bool flag) {
  if constexpr (core::kChecked) {
    if (inv == kNoTick) return;
    const std::uint64_t v = payload.empty() ? 0 : value_id(payload);
    Recorder::instance().end(inv, op, key, v, flag);
  } else {
    (void)inv; (void)op; (void)key; (void)payload; (void)flag;
  }
}

/// Completed contains.
inline void lc_end_contains(std::uint64_t inv, std::int64_t key, bool hit) {
  if constexpr (core::kChecked) {
    if (inv == kNoTick) return;
    Recorder::instance().end(inv, Op::kContains, key, 0, hit);
  } else {
    (void)inv; (void)key; (void)hit;
  }
}

/// What one read op (a multi_get or a scan) observed: a (key, value id)
/// pair per element, id 0 for an absent key. The op takes each id while
/// its visitor sees the value, under the op's EBR guard where the bytes
/// are safe, and ends its events after its completion fence. Keeps
/// nothing outside checked builds or while the recorder is disarmed.
class ReadLog {
 public:
  explicit ReadLog(std::uint64_t inv) noexcept : inv_(inv) {}

  void add(std::int64_t key, std::optional<std::string_view> v) {
    if constexpr (core::kChecked) {
      if (inv_ != kNoTick) seen_.emplace_back(key, v ? value_id(*v) : 0);
    } else {
      (void)key; (void)v;
    }
  }

  /// One get event per element; the elements share the op's inv tick
  /// (each lookup could have linearized any time after the op began).
  void end_gets() {
    if constexpr (core::kChecked) {
      for (const auto& [key, id] : seen_) {
        Recorder::instance().end(inv_, Op::kGet, key, id, id != 0);
      }
    }
  }

  /// One scan event over every element, in visit order.
  void end_scan(std::int64_t start, std::size_t limit) {
    if constexpr (core::kChecked) {
      Recorder::instance().end_scan(inv_, start, limit, std::move(seen_));
    } else {
      (void)start; (void)limit;
    }
  }

 private:
  std::uint64_t inv_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> seen_;
};

inline void lc_alloc(const void* p, std::size_t len) {
  if constexpr (core::kChecked) {
    Lifetime::instance().on_alloc(p, len);
  } else {
    (void)p; (void)len;
  }
}

inline void lc_retire(const void* p, std::uint64_t epoch, const char* site) {
  if constexpr (core::kChecked) {
    Lifetime::instance().on_retire(p, epoch, site);
  } else {
    (void)p; (void)epoch; (void)site;
  }
}

inline void lc_free(const void* p, std::uint64_t now, bool quiescent) {
  if constexpr (core::kChecked) {
    Lifetime::instance().on_free(p, now, quiescent);
  } else {
    (void)p; (void)now; (void)quiescent;
  }
}

inline void lc_deref(const void* p, const char* site) {
  if constexpr (core::kChecked) {
    if (p == nullptr) return;
    Lifetime::instance().on_deref(
        p, recl::Ebr::instance().current_announce(), site);
  } else {
    (void)p; (void)site;
  }
}

inline void lc_pool_reset() {
  if constexpr (core::kChecked) Lifetime::instance().clear();
}

}  // namespace flit::check
