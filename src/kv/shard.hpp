// shard.hpp — one shard of the durable key-value store: a FliT set
// structure mapping int64 keys to variable-length persistent value
// records, run straight on ds::HashTable or ds::SkipList.
//
// The paper's motivating use case is persistent in-memory indexes and KV
// stores (§1). The set structures in src/ds/ carry fixed-width trivially
// copyable values in their nodes; a KV store needs arbitrary byte-string
// values. A shard composes the two:
//
//   * values live in Records — variable-length blocks in the persistent
//     pool, fully written and published with a persist_range (one pwb per
//     cache line + pfence) *before* the structure ever points at them, so
//     a record reachable from a persisted link is always intact;
//   * the set structure stores Record* and provides durable
//     linearizability of the key→record mapping via the Words×Method
//     grid, exactly like the paper's evaluated structures;
//   * a superseded or removed record is retired through EBR by whichever
//     operation uniquely superseded it, so a concurrent reader holding
//     an Ebr::Guard never reads freed bytes.
//
// Overwrite semantics: put over an existing key is a single durable CAS
// on the node's value word (the structure's upsert), installing the new
// record in place of the old one. A concurrent get or scan observes the
// old or the new complete value — never absence, never a torn mix — and
// a crash recovers one of the two. Retirement stays unique because the
// value word's successful CASes form one linear chain: each record is
// superseded by exactly one upsert (whose put retires it) or claimed by
// exactly one removal (whose remove retires it) — see the value-claim
// protocol in ds/harris_list.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "check/lincheck.hpp"
#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "ds/batch.hpp"
#include "ds/tagged_ptr.hpp"
#include "kv/errors.hpp"
#include "pmem/cacheline.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace flit::kv {

/// A persistent variable-length value record. Header plus `len` payload
/// bytes, allocated as one block from the persistent pool.
struct Record {
  std::uint32_t len;

  char* data() noexcept { return reinterpret_cast<char*>(this + 1); }
  const char* data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  std::string_view view() const noexcept { return {data(), len}; }

  /// Prefetch the cache lines holding the record's first 128 bytes (its
  /// header and the start of its payload: all of a value up to 124 bytes)
  /// without reading them, since the length is not known until the header
  /// arrives (see Store::multi_get).
  void prefetch() const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(this);
    constexpr std::uintptr_t kLine = pmem::kCacheLineSize;
    for (const std::uintptr_t b : {a, a + kLine, a + 2 * kLine - 1}) {
      __builtin_prefetch(reinterpret_cast<const void*>(b));
    }
  }

  static std::size_t bytes(std::size_t payload) noexcept {
    return sizeof(Record) + payload;
  }

  /// Allocate a record in `pool` and, when `persistent`, make its bytes
  /// durable before the caller publishes a pointer to it. With
  /// `fence = false` the bytes are flushed (one pwb per line) but the
  /// pfence is left to the caller, who batches many records and fences
  /// ONCE before publishing any of them (see Store::multi_put) —
  /// persist-before-publish per record is preserved while the fence cost
  /// drops from O(batch) to O(1).
  template <bool persistent, bool fence = true>
  static Record* create(std::string_view value,
                        pmem::Pool& pool = pmem::Pool::instance()) {
    if (value.size() > kMaxValueBytes) {
      throw std::length_error("kv::Record: value too large");
    }
    auto* r = static_cast<Record*>(pool.alloc(bytes(value.size())));
    r->len = static_cast<std::uint32_t>(value.size());
    if (!value.empty()) std::memcpy(r->data(), value.data(), value.size());
    if constexpr (persistent) {
      if constexpr (fence) {
        pmem::persist_range(r, bytes(value.size()));
      } else {
        pmem::pwb_range(r, bytes(value.size()));
      }
    }
    return r;
  }

  /// Hand an unlinked record to EBR; freed back to `pool`, the pool it
  /// came from, once no reader can reach it. `persistent` matches the
  /// creating Shard::kPersistent: volatile configurations never flush
  /// records, so only persistent ones owe PersistCheck a fully-Clean range
  /// at retirement.
  template <bool persistent = true>
  static void retire(Record* r, pmem::Pool& pool = pmem::Pool::instance()) {
    if (core::fp_inject("bug.early_retire") != 0) {
      // Seeded bug: free the record immediately instead of through EBR
      // limbo — no grace period, so the lifetime analyzer must flag an
      // early reclamation here.
      const std::uint64_t e = recl::Ebr::instance().epoch();
      check::lc_retire(r, e, "kv::Record::retire[early_retire]");
      check::lc_free(r, e, /*quiescent=*/false);
      pool.dealloc(r, bytes(r->len));
      return;
    }
    if constexpr (persistent) {
      pmem::pc_retire(r, bytes(r->len), "kv::Record::retire");
    }
    recl::Ebr::instance().retire(r, [](void* p, void* to) {
      auto* rec = static_cast<Record*>(p);
      static_cast<pmem::Pool*>(to)->dealloc(rec, bytes(rec->len));
    }, &pool);
  }

  static constexpr std::size_t kMaxValueBytes = std::size_t{1} << 26;
};

/// One shard of the store: a FliT set structure — SetT is ds::HashTable
/// or ds::SkipList, instantiated over Record* values — over a
/// value-record slab. Both structures show the same face: upsert,
/// remove_get, find_batched, contains, release, and the recovery members
/// Roots, roots(), roots_extent(), node_bytes() and recover(); the
/// skiplist adds for_each_range, the hash table the probe pipeline's
/// prefetch_head and prefetch_first. Thread-safe for
/// put/find/remove/contains/scan; the recovery members run at
/// open/recover time, before the shard is shared (Store recovers
/// different shards on concurrent threads).
template <class Words, class Method,
          template <class, class, class, class> class SetT>
class Shard {
 public:
  using Key = std::int64_t;
  using Set = SetT<Key, Record*, Words, Method>;
  using Node = typename Set::Node;
  /// Persistent recovery root of a shard (stored in the Store superblock).
  using Roots = typename Set::Roots;

  static constexpr bool kOrdered = Set::kOrdered;
  static constexpr bool kPersistent = Words::persistent;

  /// Fresh shard whose nodes and records live in `pool`. `capacity_hint`
  /// is the hash table's bucket count; a skiplist needs no sizing.
  explicit Shard(std::size_t capacity_hint,
                 pmem::Pool& pool = pmem::Pool::instance())
      : set_([capacity_hint, &pool] {
          if constexpr (kOrdered) {
            return Set(pool);
          } else {
            return Set(capacity_hint, pool);
          }
        }()) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  Shard(Shard&& o) noexcept
      : set_(std::move(o.set_)),
        approx_size_(o.approx_size_.load(std::memory_order_relaxed)) {
    // The count moved with the set; a populated counter left behind
    // would double-count the keys if the moved-from husk were ever
    // summed (Store::size walks every shard it still holds).
    o.approx_size_.store(0, std::memory_order_relaxed);
  }

  /// Keys the underlying structures reserve for their sentinel nodes.
  /// put() rejects them; find/contains/remove treat them as always absent
  /// (they can never have been stored).
  static constexpr bool reserved_key(Key k) noexcept {
    return k == std::numeric_limits<Key>::min() ||
           k == std::numeric_limits<Key>::max();
  }

  /// Insert or overwrite. Returns true if k was absent (fresh insert).
  /// A put is a batch of one: the record is fully persisted (its own
  /// pfence) before publish() links it, and commit() then fences the
  /// publish — a fresh node's link CAS or an overwrite's in-place
  /// value-word CAS — before the superseded record is retired. The link
  /// is durably linearizable per Words×Method. An overwrite is atomic:
  /// concurrent reads observe the old or new value, never absence (see
  /// the file comment). Throws std::invalid_argument on a reserved
  /// sentinel key, std::length_error past Record::kMaxValueBytes, and
  /// std::bad_alloc on a full pool (the unpublished record is freed).
  bool put(Key k, std::string_view value) {
    if (reserved_key(k)) {
      throw std::invalid_argument("kv: INT64_MIN/INT64_MAX are reserved");
    }
    // Discarded outside checked builds: fp_inject() folds to 0 there, but
    // an instantiated stale_read body (its lambda and std::function)
    // would still shift the compiler's inlining choices elsewhere.
    if constexpr (core::kChecked) {
      if (core::fp_inject("bug.lost_update") != 0) {
        // Seeded bug: compute the fresh-insert flag but never apply the
        // write — a later get misses this update and the checker must
        // report kLostUpdate.
        return !set_.contains(k);
      }
      if (core::fp_inject("bug.stale_read") != 0) {
        // Seeded bug: park the real application until the next write
        // flushes pending work. A get between this call's return and
        // that flush observes the superseded value — the checker must
        // report kStaleRead.
        check::unsafe_apply_pending();
        Record* rec = Record::create<kPersistent>(value, set_.pool());
        const bool fresh = !set_.contains(k);
        check::unsafe_defer([this, k, rec] { apply_put(k, rec); });
        return fresh;
      }
    }
    // No guard here: the record is thread-private until upsert publishes
    // it, the set operations pin their own epochs, and pinning across a
    // large value's copy + per-line flush would stall reclamation
    // everywhere else.
    return apply_put(k, Record::create<kPersistent>(value, set_.pool()));
  }

  /// The record k maps to (nullptr if absent), without the completion
  /// fence: the caller issues it once for however many lookups it runs
  /// (Store::multi_get). The caller's Ebr::Guard must span the call and
  /// every read of the record: a published record never changes, and the
  /// guard keeps it from being freed while the caller reads it.
  const Record* find(Key k) const {
    if (reserved_key(k)) return nullptr;
    const std::optional<Record*> rec = set_.find_batched(k);
    if (!rec) return nullptr;
    check::lc_deref(*rec, "kv::Shard::find");
    return *rec;
  }

  /// Remove k. Returns true if it was present; the removal is durably
  /// linearized at the structure's mark CAS and the record is retired
  /// through EBR by this (unique) winner.
  bool remove(Key k) {
    if (reserved_key(k)) return false;
    if (std::optional<Record*> old = set_.remove_get(k)) {
      approx_size_.fetch_sub(1, std::memory_order_relaxed);
      Record::retire<kPersistent>(*old, set_.pool());
      return true;
    }
    return false;
  }

  bool contains(Key k) const {
    return !reserved_key(k) && set_.contains(k);
  }

  /// Stages 1 and 2 of Store's batched probe pipeline for k: prefetch the
  /// hash table's head word for k, then read it and prefetch the node it
  /// links. Nothing on a skiplist: every probe starts at the head tower,
  /// whichever the key, and every operation keeps those lines cached.
  void prefetch_head(Key k) const noexcept {
    if constexpr (!kOrdered) set_.prefetch_head(k);
  }
  void prefetch_first(Key k) const noexcept {
    if constexpr (!kOrdered) set_.prefetch_first(k);
  }

  // --- the publish path: put is a batch of one, Store::multi_put a batch --

  /// Insert-or-overwrite of a record the caller has already flushed and
  /// fenced. The publish is a deferred-fence CAS enlisted in `batch`; a
  /// superseded record is appended to `superseded` instead of retired
  /// here. Nothing is durable, untagged or retired until the caller runs
  /// commit(). Returns true on a fresh insert.
  bool publish(Key k, Record* rec, ds::PublishBatch& batch,
               std::vector<Record*>& superseded) {
    if constexpr (kPersistent) {
      pmem::pc_publish(rec, Record::bytes(rec->len), "kv::Shard::put");
    }
    if (std::optional<Record*> old = set_.upsert(k, rec, batch)) {
      // We won the value-word CAS that superseded *old: unique retirement
      // ownership. The counter is untouched — an overwrite changes no
      // key's presence, so size() does not dip during overwrites.
      superseded.push_back(*old);
      return false;
    }
    approx_size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Close a run of publishes: one pfence covering every deferred publish
  /// pwb, THEN untag/clear the published words (Condition 3), and only
  /// then retire the superseded records back to `pool`. Retiring before
  /// the fence could let an old record's storage be recycled while a
  /// crash image still holds the old link to it.
  static void commit(pmem::Pool& pool, ds::PublishBatch& batch,
                     std::vector<Record*>& superseded) {
    if constexpr (kPersistent) pmem::pfence();
    batch.complete_all();
    for (Record* r : superseded) Record::retire<kPersistent>(r, pool);
    superseded.clear();
  }

  /// Approximate key count, O(1): a relaxed counter bumped at each
  /// linearized insert/remove. Exact whenever the shard is quiescent
  /// (every linearized operation is counted exactly once); under
  /// concurrency it may transiently deviate by the number of in-flight
  /// inserts/removes. Overwrites never touch it (an in-place upsert
  /// changes no key's presence), so a store under pure overwrite churn
  /// reads exactly. Re-counted by recovery's walk (see recover()). See
  /// ARCHITECTURE.md for the accuracy contract.
  std::size_t size() const noexcept {
    const auto n = approx_size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  /// Ordered shards only: hand up to `limit` live pairs with key >= lo to
  /// fn(key, value), in ascending key order; returns how many it saw.
  /// The caller's Ebr::Guard must span the call, and fn runs inside the
  /// walk, before its completion fence; the value view dies with the
  /// guard. Not an atomic snapshot: concurrent inserts/removes may or may
  /// not appear, but keys present for the whole call are always seen,
  /// and each pair is individually consistent (payload matches key, per
  /// the record immutability argument of find).
  template <class Fn>
  std::size_t scan(Key lo, std::size_t limit, Fn&& fn) const
    requires(kOrdered)
  {
    if (limit == 0) return 0;
    std::size_t seen = 0;
    set_.for_each_range(lo, [&](Key k, Record* r) {
      check::lc_deref(r, "kv::Shard::scan");
      fn(k, r->view());
      return ++seen < limit;
    });
    return seen;
  }

  // --- crash recovery ------------------------------------------------------

  Roots* roots() const noexcept { return set_.roots(); }

  /// Rebuild a non-owning shard handle from its persisted roots in one
  /// walk: the structure's recovery (every bucket chain, or the
  /// skiplist's level 0 while it rebuilds the volatile index) checks the
  /// root block and each node against `b` before reading it and hands
  /// each node, sentinels included as not live, to the visitor below,
  /// which re-counts the live keys (the O(1) size counter is volatile).
  /// After a dirty shutdown the caller passes `mark`, and the visitor
  /// also raises *mark to one past the last byte of every visited node
  /// and live record and of the root block: the allocator high-water
  /// mark the region must resume above.
  /// A marked node's record was already retired (possibly reclaimed and
  /// reused before the crash), so its pointer may dangle — exactly why
  /// traversals never read marked values — and it is excluded the same
  /// way. A live record's pointer and length are checked against `b`
  /// before the mark trusts them. Throws std::length_error on anything
  /// outside `b`. Issues no p-instruction and touches only this shard's
  /// nodes, so Store recovers its shards on concurrent threads. The
  /// handle allocates from `pool`, the pool over `b`.
  static Shard recover(Roots* roots, ds::Bounds b, std::uintptr_t* mark,
                       pmem::Pool& pool) {
    std::ptrdiff_t live_keys = 0;
    Shard s(Set::recover(roots, b, [&](const Node& n, bool live) {
      live_keys += live;
      if (mark == nullptr) return;
      const auto na = reinterpret_cast<std::uintptr_t>(&n);
      *mark = std::max(*mark, na + Set::node_bytes(n));
      if (!live) return;
      const Record* r = n.value.load_private();
      // A claimed (bit-0-marked) value only ever appears on a marked
      // node; skipped anyway, so a violated invariant is a skip, not a
      // wild dereference.
      if (ds::is_marked(r)) return;
      if (!b.holds(r)) {
        throw std::length_error("kv: record pointer outside the region");
      }
      // A live record's length is bounded at creation; anything larger,
      // or a record running past the region, is bit rot that would
      // poison the rebuilt allocator mark.
      const char* end = reinterpret_cast<const char*>(r) +
                        Record::bytes(r->len);
      if (r->len > Record::kMaxValueBytes || !b.holds(end - 1)) {
        throw std::length_error("kv: corrupt record length");
      }
      *mark = std::max(*mark, reinterpret_cast<std::uintptr_t>(end));
    }, pool));
    s.approx_size_.store(live_keys, std::memory_order_relaxed);
    if (mark != nullptr) *mark = std::max(*mark, s.set_.roots_extent());
    return s;
  }

  /// Disown the persisted nodes (file-backed stores closing the region).
  void release() noexcept { set_.release(); }

 private:
  explicit Shard(Set&& s) noexcept : set_(std::move(s)) {}

  /// The publish half of put(), a batch of one. Split out so the seeded
  /// stale_read bug can defer exactly this step.
  bool apply_put(Key k, Record* rec) {
    // One batch per thread, reserved once: a put allocates nothing here,
    // and enlist cannot allocate after its publish CAS has succeeded.
    thread_local struct One {
      ds::PublishBatch batch;
      std::vector<Record*> superseded;
      One() {
        batch.reserve(1);
        superseded.reserve(1);
      }
    } one;
    bool fresh;
    try {
      fresh = publish(k, rec, one.batch, one.superseded);
    } catch (...) {
      // upsert's node allocation can throw on a near-full pool; rec was
      // never published, so free it immediately rather than leak it.
      set_.pool().dealloc(rec, Record::bytes(rec->len));
      throw;
    }
    commit(set_.pool(), one.batch, one.superseded);
    return fresh;
  }

  Set set_;
  /// Linearized inserts minus removes; see size(). Cache-line aligned:
  /// shards live contiguously in Store's vector, and without the
  /// alignment two neighboring shards' hot counters (or a counter and the
  /// neighbor's set handle) can share a line — the same false-sharing
  /// collapse the paper demonstrates in §6 for flit counters packed into
  /// one cache line.
  // persist-lint: allow(volatile statistic; recomputed by recovery scan)
  alignas(64) std::atomic<std::ptrdiff_t> approx_size_{0};
};

}  // namespace flit::kv
