// persist_check.hpp — PersistCheck, a shadow-state persistency-ordering
// checker woven into the simulation backend.
//
// The crash-image sweeps in tests/ validate durability *samples*: they
// capture the persisted image at a handful of pfence boundaries and check
// each one recovers. PersistCheck instead observes every store, pwb and
// pfence that the kSimCrash backend models and validates the ordering
// invariants directly, so "no execution published an unpersisted word"
// becomes a checked property of the whole run, not of the sampled
// boundaries.
//
// Per 8-byte word of every registered region the checker tracks a state
// machine mirroring SimMemory's volatile/pending/shadow split:
//
//        store                pwb                  pfence
//   Clean ----> Dirty ----------> FlushedPending ----------> Clean
//                 ^  (snapshotted,  |                (published to the
//                 |   thread-local) |  store         persisted image)
//                 +-----------------+
//
// Each word also carries a store sequence number: a pwb records (word,
// seq) in the flushing thread's pending list, and the matching pfence
// only moves the word to Clean if no newer store intervened — exactly
// the stale-snapshot-drop rule SimMemory::publish_line applies to the
// data, applied here to the state.
//
// Annotated protocol sites then assert against that state:
//
//   1. persist-before-publish (kPublishUnpersisted): a publication site
//      (node link CAS, record install) covers a byte range that must be
//      entirely Clean — a crash after the publish CAS persists must
//      recover a fully persisted object.
//   2. missing-flush leak (kMissingFlushLeak): a record handed to EBR
//      retirement while any of its words never completed a pwb+pfence —
//      the record was reachable from the structure without ever being
//      made durable.
//   3. premature retirement (kPrematureRetire): a superseded record
//      retired while the retiring thread still has deferred publications
//      whose covering pfence has not landed (the exact hazard the
//      batched multi-op path defers retirement to avoid).
//   4. deferred tag left dangling (kDeferredDangling): a
//      cas_deferred-published word completed (untagged / dirty-bit
//      cleared) while its publish pwb was never covered by a pfence —
//      readers would stop flush-on-read before the value is durable.
//      The publication is judged by the store its own CAS made, not by
//      a store another thread made to the word before the publisher
//      enlisted it.
//
// A fifth, non-fatal output is the redundant-persistence lint: pwbs
// issued on lines whose words are all Clean are counted through
// pmem/stats.hpp (count_redundant_pwb), alongside the always-on
// empty-pfence counter, so fence-coalescing wins are explainable.
//
// Wiring: the hooks live in SimMemory::on_store/on_pwb/on_pfence (and
// the region/crash lifecycle) and in the persist<>/lap_word mutation,
// publication and retirement sites, through the pc_* helpers below. The
// helpers compile to nothing unless FLIT_CHECKED is defined (the
// `checked` CMake preset), and even then do nothing until a region
// is registered (i.e. outside kSimCrash crash tests). Violations are
// counted, attributed to their reporting site, and — unless a test
// consumes them via reset_violations() — fail the process at exit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace flit::pmem {

enum class PersistViolation : int {
  kPublishUnpersisted = 0,  ///< published range not fully persisted
  kMissingFlushLeak = 1,    ///< record retired without ever persisting
  kPrematureRetire = 2,     ///< retired before the batch's covering pfence
  kDeferredDangling = 3,    ///< deferred tag cleared with no covering pfence
};
inline constexpr int kPersistViolationKinds = 4;

const char* to_string(PersistViolation v) noexcept;

class PersistCheck {
 public:
  static PersistCheck& instance();

  PersistCheck(const PersistCheck&) = delete;
  PersistCheck& operator=(const PersistCheck&) = delete;

  // --- region lifecycle (driven by SimMemory) -----------------------------

  /// Mirror a SimMemory region registration: allocate per-word shadow
  /// state (all Clean) for [base, base+len). Stop-the-world, like
  /// SimMemory::register_region. Arms the checker.
  void on_register_region(const void* base, std::size_t len);

  /// Drop all region state (test teardown). Disarms the checker.
  void on_clear_regions();

  /// crash()/persist_all()/overwrite_volatile(): afterwards the volatile
  /// and persisted images agree (or the test replaced the volatile image
  /// wholesale), so every word resets to Clean and all threads' pending
  /// and deferred lists are invalidated.
  void on_mark_all_clean();

  // --- data-path hooks ----------------------------------------------------

  /// A store wrote [p, p+len): every overlapped word becomes Dirty with a
  /// bumped sequence number.
  void on_store(const void* p, std::size_t len) noexcept;

  /// on_store of the word a cas_deferred just wrote, which also keeps the
  /// store's sequence number for the calling thread's next
  /// on_deferred_publish.
  void on_deferred_store(const void* addr) noexcept;

  /// A pwb snapshotted the line containing addr: Dirty words become
  /// FlushedPending and (with Pending ones re-flushed by readers) join
  /// the calling thread's pending list. A pwb on an all-Clean line bumps
  /// the redundant-pwb lint counter.
  void on_pwb(const void* addr) noexcept;

  /// A pfence by the calling thread: pending (word, seq) entries whose
  /// word was not re-stored since the flush become Clean.
  void on_pfence() noexcept;

  // --- protocol assertions (annotation sites) -----------------------------

  /// About to make [p, p+len) reachable (node link / record install):
  /// report kPublishUnpersisted unless every word is Clean.
  void on_publish(const void* p, std::size_t len, const char* site) noexcept;

  /// Handing [p, p+len) to EBR retirement: report kPrematureRetire if the
  /// calling thread still has un-fenced deferred publications, else
  /// kMissingFlushLeak if any word of the range is not Clean.
  void on_retire(const void* p, std::size_t len, const char* site) noexcept;

  /// A cas_deferred publication succeeded on the word at `addr`: record
  /// (addr, seq of the calling thread's on_deferred_store of it) against
  /// the calling thread until its completion.
  void on_deferred_publish(const void* addr, const char* site) noexcept;

  /// complete_deferred about to clear the word's tag/dirty bit: report
  /// kDeferredDangling if the matching publication's pwb was never
  /// covered by a pfence (a newer store on the word transfers the
  /// durability obligation to its writer and clears the entry).
  void on_complete_deferred(const void* addr) noexcept;

  // --- reporting / test hooks ---------------------------------------------

  /// True once a region is registered (hooks are live).
  bool armed() const noexcept;

  std::uint64_t violations(PersistViolation v) const noexcept;
  std::uint64_t total_violations() const noexcept;

  /// Acknowledge (zero) all recorded violations — negative tests call
  /// this after asserting; anything left at process exit fails the run.
  void reset_violations() noexcept;

  /// Description of the first recorded violation ("" if none) — lets
  /// tests assert the diagnostic's class and site, not just a count.
  const char* first_violation_site() const noexcept;

 private:
  PersistCheck() = default;
  ~PersistCheck() = default;

  struct Impl;
  Impl& impl();
};

// --- annotation helpers ------------------------------------------------
// These are the only names the annotated sites use. They compile to
// nothing unless FLIT_CHECKED is defined, so the default build's hot
// paths are untouched.

#if defined(FLIT_CHECKED)
inline void pc_store(const void* p, std::size_t len) noexcept {
  PersistCheck::instance().on_store(p, len);
}
inline void pc_publish(const void* p, std::size_t len,
                       const char* site) noexcept {
  PersistCheck::instance().on_publish(p, len, site);
}
inline void pc_retire(const void* p, std::size_t len,
                      const char* site) noexcept {
  PersistCheck::instance().on_retire(p, len, site);
}
inline void pc_deferred_store(const void* addr) noexcept {
  PersistCheck::instance().on_deferred_store(addr);
}
inline void pc_deferred_publish(const void* addr, const char* site) noexcept {
  PersistCheck::instance().on_deferred_publish(addr, site);
}
inline void pc_complete_deferred(const void* addr) noexcept {
  PersistCheck::instance().on_complete_deferred(addr);
}
#else
inline void pc_store(const void*, std::size_t) noexcept {}
inline void pc_publish(const void*, std::size_t, const char*) noexcept {}
inline void pc_retire(const void*, std::size_t, const char*) noexcept {}
inline void pc_deferred_store(const void*) noexcept {}
inline void pc_deferred_publish(const void*, const char*) noexcept {}
inline void pc_complete_deferred(const void*) noexcept {}
#endif

}  // namespace flit::pmem
