// store.hpp — the sharded durable key-value store.
//
// N kv::Shards (each a FliT set structure + value-record slab, see
// shard.hpp) behind one get/put/remove API. The store's third template
// argument is the set structure every shard runs on:
//
//   * Store<Words, Method>                  — hash-partitioned shards over
//     FliT hash tables (ds::HashTable); keys route by a splitmix64 hash.
//   * OrderedStore<Words, Method>           — range-partitioned shards
//     over lock-free skiplists (ds::SkipList); keys route by position
//     in a persisted key range, which keeps shard ranges disjoint and
//     ordered, so Store::scan(start, n) can merge an ordered range scan
//     across shard boundaries by simple concatenation.
//
// Everything recovery needs hangs off one persistent *superblock*:
//
//   Superblock { magic, version, nshards, generation,
//                words_tag, layout_tag, node_bytes,
//                key_lo, key_hi, shard_roots[] }
//
// allocated in the store's pool and persisted before use. The
// layout_tag (a hash of the layout's name) is what rejects a
// cross-layout open: a file written by an ordered store cannot be
// misread by a hashed one, and vice versa. The store runs in two
// placements:
//
//   * pool-backed  — Store(nshards, buckets): superblock and all data live
//     in the default Pool (Pool::instance()). Used by benchmarks and by
//     the simulated-crash tests, which recover with
//     Store::recover(superblock()).
//   * file-backed  — Store::open(path, ...): the store maps a FileRegion,
//     builds its own Pool over it, and wires the superblock to the
//     region's root slot 0, so a later open() of the same file
//     transparently recovers every shard and the generation stamp
//     survives process restarts. Every block such a store allocates
//     comes from, and goes back to, its own region, so one process can
//     hold several file-backed stores. Allocator metadata is not
//     crash-consistent (the libvmmalloc model), so after a dirty shutdown
//     (no close()) open() rebuilds the pool's high-water mark in
//     recovery's one walk per shard, which bounds every node and live
//     record — recovered records cannot be handed back out by the
//     allocator. The walk checks every node against the region before
//     reading it, so a torn image is rejected, not dereferenced (see
//     Shard::recover). On DRAM+disk machines the mmap'd bytes themselves
//     are only msync-durable: checkpoint()/close() bound that exposure;
//     on DAX the pwb/pfence backend applies as-is.
//
// The generation stamp counts sessions: 1 on creation, +1 (persisted) on
// every successful recovery — restart-count telemetry that doubles as a
// recovery proof in the tests.
//
// Consistency contract: get/put/remove on a single key are atomic and
// durably linearizable per the Words×Method configuration — including
// put over an *existing* key, which is a single durable CAS installing
// the new value record in place of the old one (the structure's upsert;
// see shard.hpp). A concurrent get or scan observes the old or the new
// complete value, never absence and never a torn mix, and a crash
// mid-overwrite recovers exactly one of the two. No *returned* operation
// is ever lost. scan() is ordered but not an atomic snapshot (see the
// method comment); size() is an O(1) approximate counter, exact at
// quiescence and untouched by overwrites (see Shard::size and
// ARCHITECTURE.md).
//
// Lifetime contract: a Store handle is volatile; the persistent bytes are
// not owned by it. Destroying a pool-backed store releases the handles and
// leaves the bytes to Pool::reset/reinit (arena semantics, like the
// paper's libvmmalloc model). close() on a file-backed store quiesces
// reclamation, persists the allocator high-water mark, syncs, unmaps the
// region and destroys the region's pool. It leaves the default Pool alone,
// so nothing needs a Pool::reinit after it. Every other thread that used
// a file-backed store must have exited before its close() (or
// destructor): close() frees the calling thread's and exited threads'
// retired records back to the store's pool, and a live thread's would be
// freed later, into a pool that no longer exists.
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "check/lincheck.hpp"
#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "ds/hash_table.hpp"
#include "ds/skiplist.hpp"
#include "kv/errors.hpp"
#include "kv/shard.hpp"
#include "pmem/file_region.hpp"
#include "pmem/pool.hpp"

namespace flit::kv {

/// Half-open key interval [lo, hi) an ordered store partitions across its
/// shards. Persisted in the superblock (routing must be stable across
/// sessions). Keys outside the range still work — routing clamps them to
/// the first/last shard, which keeps the per-shard ranges monotone and
/// scans globally sorted — but a range matching the workload's keyspace
/// spreads load evenly. Ignored by hashed stores.
struct KeyRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/// When the store msyncs on its own (file-backed stores only — the modes
/// bound the DRAM+disk exposure window that checkpoint() closes by hand;
/// pool-backed stores have no backing file and every mode is a no-op).
/// The loss window is what a machine crash (not a process crash — the
/// page cache survives those) can take back:
///
///   * kNever   — only explicit checkpoint()/close() msync. Loss window:
///     everything since the last checkpoint. Fastest; the recovery walk
///     still repairs the allocator mark, so committed-and-synced data is
///     never resurrected wrong, but recent writes may vanish wholesale.
///   * kEverySec — a background flusher checkpoints every interval
///     (default 1 s, the classic redis/pomaicache "everysec"). Loss
///     window: at most ~one interval of acknowledged writes.
///   * kAlways  — callers invoke note_write_commit() after each write
///     batch (the network server does this once per readiness event, so
///     one msync covers a whole pipelined burst); acknowledged then means
///     msync-durable. Loss window: nothing acknowledged.
enum class DurabilityMode { kNever, kEverySec, kAlways };

inline const char* to_string(DurabilityMode m) noexcept {
  switch (m) {
    case DurabilityMode::kAlways:
      return "always";
    case DurabilityMode::kEverySec:
      return "everysec";
    default:
      return "never";
  }
}

inline std::optional<DurabilityMode> parse_durability_mode(
    std::string_view s) noexcept {
  if (s == "never") return DurabilityMode::kNever;
  if (s == "everysec") return DurabilityMode::kEverySec;
  if (s == "always") return DurabilityMode::kAlways;
  return std::nullopt;
}

template <class Words = HashedWords, class Method = Automatic,
          template <class, class, class, class> class SetT = ds::HashTable>
class Store {
 public:
  using Key = std::int64_t;
  using Shard_ = Shard<Words, Method, SetT>;

  /// True for OrderedStore: range-partitioned shards with scan() support.
  static constexpr bool kOrdered = Shard_::kOrdered;

  static constexpr std::uint64_t kMagic = 0xF117'4B56'0000'0001ull;
  /// Bumped when the persisted layout changes; v2 added the backend
  /// layout tag and the ordered partition bounds, v3 replaced the hashed
  /// shard's per-bucket sentinel pairs with one head word per bucket and
  /// a shared tail (ds::HashTable::Roots), so a v2 image is rejected as
  /// IncompatibleStore instead of being misread.
  static constexpr std::uint32_t kVersion = 3;
  /// FileRegion root slot holding the superblock.
  static constexpr std::size_t kSuperblockSlot = 0;
  /// Root slot doubling as a clean-shutdown flag: non-null only between a
  /// quiesced close() and the next open(). While it is set, the header's
  /// bump mark is authoritative and open()'s recovery walk reads no
  /// record; a dirty shutdown leaves it null. (checkpoint() deliberately
  /// does NOT set it: post-checkpoint allocations would sit above the
  /// checkpointed mark.)
  static constexpr std::size_t kCleanShutdownSlot = 1;

  /// Persistent recovery root: everything Store::recover needs.
  struct Superblock {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t nshards;
    std::uint64_t generation;  ///< sessions: 1 at creation, +1 per recovery
    std::uint32_t words_tag;   ///< hash of Words::name (layout guard)
    std::uint32_t layout_tag;  ///< hash of the layout name (ditto)
    std::uint32_t node_bytes;  ///< sizeof(Shard_::Node) (layout guard)
    std::uint32_t reserved;    ///< alignment; zero
    std::int64_t key_lo;       ///< ordered partition bounds [key_lo,
    std::int64_t key_hi;       ///<   key_hi); full range when hashed
    typename Shard_::Roots* shard_roots[1];  // flexible-array idiom

    static std::size_t bytes(std::uint32_t nshards) noexcept {
      return sizeof(Superblock) +
             (nshards - 1) * sizeof(typename Shard_::Roots*);
    }
  };

  /// FNV-1a of a configuration name; different Words change the persisted
  /// node layout (e.g. adjacent counters pad every word) and different
  /// set structures change the node type entirely, so a file must be
  /// reopened with the configuration that wrote it.
  static constexpr std::uint32_t fnv1a(const char* s) noexcept {
    std::uint32_t h = 2166136261u;
    for (const char* p = s; *p != '\0'; ++p) {
      h = (h ^ static_cast<unsigned char>(*p)) * 16777619u;
    }
    return h;
  }
  static constexpr std::uint32_t words_tag() noexcept {
    return fnv1a(Words::name);
  }
  static constexpr std::uint32_t layout_tag() noexcept {
    return fnv1a(kOrdered ? "ordered-skiplist" : "hashed");
  }

  /// Pool-backed store: build `nshards` fresh shards and a persisted
  /// superblock in the default Pool. `capacity_per_shard` is each
  /// hashed shard's bucket count (ordered shards ignore it).
  /// `range` sets an ordered store's persisted partition bounds (see
  /// KeyRange); hashed stores ignore it.
  Store(std::uint32_t nshards, std::size_t capacity_per_shard,
        KeyRange range = {})
      : Store(std::make_unique<Durability>(), nshards, capacity_per_shard,
              range) {}

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// A running kEverySec flusher holds the durability block, not the
  /// handle, so it keeps running across the move. The moved-from handle
  /// is left closed (its destructor is a no-op).
  Store(Store&& o) noexcept
      : dur_(std::move(o.dur_)),
        pool_(o.pool_),
        shards_(std::move(o.shards_)),
        sb_(std::exchange(o.sb_, nullptr)),
        range_chunk_(o.range_chunk_) {}

  ~Store() {
    // close() can throw (msync failure on the backing file); a destructor
    // must not — swallow and rely on FileRegion::close()'s best-effort
    // final sync. Callers who need the error call close() explicitly.
    try {
      close();
    } catch (...) {
    }
  }

  /// Throw IncompatibleStore unless `sb` is a superblock this Store
  /// instantiation can recover: right magic/version, same layout
  /// (hashed vs ordered — the layout tag), same Words configuration (node
  /// byte layout), sane shard count and partition bounds.
  static void validate_superblock(const Superblock* sb) {
    if (sb == nullptr || sb->magic != kMagic) {
      throw IncompatibleStore("kv::Store: superblock magic mismatch");
    }
    if (sb->version != kVersion) {
      throw IncompatibleStore("kv::Store: superblock version mismatch");
    }
    if (sb->nshards == 0) {
      throw IncompatibleStore("kv::Store: corrupt superblock (0 shards)");
    }
    if (sb->layout_tag != layout_tag()) {
      throw IncompatibleStore(
          "kv::Store: file was written by a different backend layout "
          "(hashed vs ordered); reopen with the store type that created "
          "it");
    }
    if (sb->words_tag != words_tag() ||
        sb->node_bytes != sizeof(typename Shard_::Node)) {
      throw IncompatibleStore(
          "kv::Store: file was written by a different Words configuration "
          "(node layout mismatch); reopen with the configuration that "
          "created it");
    }
    if (sb->key_lo >= sb->key_hi) {
      throw IncompatibleStore("kv::Store: corrupt partition bounds");
    }
  }

  /// Rebuild a pool-backed store from its persisted superblock (the
  /// simulated-crash path). Bumps the generation stamp durably — the one
  /// pwb and pfence recovery issues. Each shard recovers in one walk that
  /// checks every node against the default Pool's bounds (see
  /// Shard::recover): ordered shards rebuild their volatile skiplist index
  /// levels from the durable bottom level (see SkipList::recover), and
  /// every shard re-counts its keys for the O(1) size counter. The walks
  /// run on up to min(shards, CPUs) threads (see recover_handles). A
  /// superblock, root block or node outside the default Pool throws
  /// std::length_error.
  static Store recover(Superblock* sb) {
    Store s = recover_handles(sb, nullptr, std::make_unique<Durability>());
    bump_generation(sb);
    return s;
  }

  /// Open (or create) a file-backed store: map the region, build the
  /// store's own Pool over it, and recover from (or install) the
  /// superblock in root slot 0. An existing file's shard count and
  /// partition bounds win over the `nshards`/`range` arguments. Throws
  /// IncompatibleStore when the file exists but was written by a
  /// different store configuration, has a corrupt header, or links a node
  /// or live record outside the region. Any throw unmaps the region and
  /// destroys its pool; no other pool is touched.
  static Store open(const std::string& path, std::size_t capacity,
                    std::uint32_t nshards, std::size_t capacity_per_shard,
                    KeyRange range = {}) {
    auto d = std::make_unique<Durability>();
    pmem::FileRegion& region = d->region;
    region = pmem::FileRegion::open(path, capacity);
    // The allocator mark is header data too: a bit-rotted value past the
    // region would poison the pool's chunk round-up (possibly wrapping to
    // 0 and overwriting committed records). Checked for *any* existing
    // region — even one whose superblock root was never set resumes its
    // pool at the mark. Too-small marks are repaired by the recovery
    // walk; too-large ones are corruption.
    if (region.recovered() && region.bump() > region.usable_capacity()) {
      throw IncompatibleStore("kv::Store: corrupt allocator bump mark");
    }
    // The pool allocates nothing until resume() sets its mark, once,
    // below: a dirty shutdown's mark comes out of the recovery walk, and
    // the handles that walk builds already hold the pool.
    pmem::Pool& pool = *(d->pool = std::make_unique<pmem::Pool>(
                             region.usable_base(), region.usable_capacity()));
    void* root = region.recovered() ? region.root(kSuperblockSlot) : nullptr;
    if (root == nullptr) {
      // Fresh file (or a region that died before its first superblock
      // sync — nothing was ever committed, so initializing from scratch
      // is safe).
      pool.resume(region.bump());
      Store s(std::move(d), nshards, capacity_per_shard, range);
      region.set_root(kSuperblockSlot, s.sb_);
      region.set_bump(pool.bump_used());
      region.sync();
      return s;
    }
    // Recover the handles first: one walk per shard, no allocation and no
    // p-instruction (ordered shards rebuild their volatile index levels
    // in place), every node checked against the region before it is read.
    // After a *dirty* shutdown the header's bump mark can sit below
    // durably committed records (it is only written at
    // checkpoint()/close(); allocator metadata is not crash-consistent,
    // the libvmmalloc model) — resuming from it verbatim would hand their
    // bytes right back out, so the same walk also bounds every node and
    // live record (`hi`). A clean shutdown left the flag slot set, making
    // the mark authoritative, so a clean open reads no record.
    //
    // A truncated, torn or bit-rotted image surfaces in the walk as
    // std::length_error — a superblock, root block, link or record
    // outside the region, an impossible tower — and must reject the open,
    // not escape as a generic runtime error or, worse, yield a silently
    // half-recovered store.
    const bool dirty = region.root(kCleanShutdownSlot) == nullptr;
    std::uintptr_t hi = 0;
    Store s = [&] {
      try {
        return recover_handles(static_cast<Superblock*>(root),
                               dirty ? &hi : nullptr, std::move(d));
      } catch (const std::length_error& e) {
        throw IncompatibleStore(e.what());
      }
    }();
    std::size_t resume = region.bump();
    if (dirty) resume = std::max(resume, hi - ds::Bounds(pool).base);
    pool.resume(resume);
    // Everything that could reject this open has passed; only now consume
    // a recovery in the durable session stamp.
    bump_generation(s.sb_);
    region.set_root(kCleanShutdownSlot, nullptr);  // in use: dirty
    region.set_bump(pool.bump_used());
    region.sync();  // generation stamp + repaired bump, durable now
    return s;
  }

  // --- the KV API ----------------------------------------------------------

  /// Insert or overwrite. Returns true if k was absent (fresh insert).
  /// Durably linearizable per Words×Method; an overwrite is one atomic
  /// in-place value CAS — concurrent reads see the old or new value,
  /// never absence (see the consistency contract above). Throws
  /// std::invalid_argument on the reserved sentinel keys
  /// (INT64_MIN/INT64_MAX), std::length_error past Record::kMaxValueBytes,
  /// kv::OutOfSpace on a full pool (nothing applied, nothing leaked —
  /// the shard frees any unpublished record before the throw escapes),
  /// kv::StoreReadOnly when the store is latched degraded (see health()).
  bool put(Key k, std::string_view value) {
    ensure_writable();
    const std::uint64_t inv = check::lc_begin();
    bool fresh;
    try {
      fresh = shard_for(k).put(k, value);
    } catch (const OutOfSpace&) {
      throw;
    } catch (const std::bad_alloc&) {
      throw OutOfSpace();
    }
    check::lc_end_write(inv, check::Op::kPut, k, value, fresh);
    return fresh;
  }

  /// Copy out the value for k (nullopt if absent): the multi_get of one.
  /// The returned string is a private copy taken under an EBR guard —
  /// always intact, never torn, even against concurrent overwrites of k.
  std::optional<std::string> get(Key k) const {
    std::optional<std::string> out;
    multi_get(std::span<const Key>(&k, 1),
              [&](std::size_t, std::optional<std::string_view> v) {
                if (v) out.emplace(*v);
              });
    return out;
  }

  /// Remove k. Returns true if it was present. The removal is durable
  /// before the call returns (per Words×Method). Throws
  /// kv::StoreReadOnly when latched degraded (a removal is a mutation:
  /// acknowledging it un-durably would lie exactly like a put).
  bool remove(Key k) {
    ensure_writable();
    const std::uint64_t inv = check::lc_begin();
    const bool present = shard_for(k).remove(k);
    check::lc_end_write(inv, check::Op::kRemove, k, {}, present);
    return present;
  }

  bool contains(Key k) const {
    const std::uint64_t inv = check::lc_begin();
    const bool hit = shard_for(k).contains(k);
    check::lc_end_contains(inv, k, hit);
    return hit;
  }

  // --- batched multi-operations --------------------------------------------
  // Real serving traffic arrives in batches (RPC multi-get, pipelined
  // writes). The multi-ops run the batch in the caller's order and exploit
  // it two ways: (1) probes overlap their cache misses in a staged
  // pipeline over chunks of kProbeChunk keys (group prefetching, Chen et
  // al., ICDE 2004):
  //   1. prefetch every key's bucket head word (the address only);
  //   2. read the heads and prefetch each one's first node;
  //   3. run the lookups in order (multi_get also prefetches the first
  //      lines of each record it finds);
  //   4. multi_get calls fn(i, v) in order.
  // multi_put runs stages 1-2 for its keys before creating its records,
  // so the probe misses land while the records are written and flushed;
  // multi_remove runs stages 1-2 per chunk. A prefetch issues no
  // p-instruction, so every lookup and publish keeps its p-instruction
  // sequence. An ordered store's shards have no hook (see
  // Shard::prefetch_head). (2) Writes coalesce their persistence: all of
  // a batch's records are flushed and fenced ONCE before any is
  // published, the publish CASes defer their trailing fences to one
  // shared pfence, and only then are the published words untagged.
  // Per-element durability-before-publication is preserved — see
  // ARCHITECTURE.md ("Batched multi-op path") for the full argument. A
  // scalar get or put is the batch of one: the same shard lookup or
  // publish step, unstaged, and the same closing fence.
  //
  // Reads hand each record to a visitor instead of copying it: fn sees
  // the value in place, under the op's EBR guard and before its
  // completion fence, so what fn sees must not leave the thread (reach a
  // socket, another thread, or outlive the call) before the call
  // returns. The copying forms are thin wrappers over the visitors.

  /// Batched get, visitor form: fn(i, value) once per keys[i], in order;
  /// the value is nullopt when absent (a reserved sentinel key is simply
  /// absent, as in get()). Duplicate keys are looked up independently.
  /// One completion fence covers the whole batch, after the last fn.
  template <class Fn>
    requires std::invocable<Fn&, std::size_t, std::optional<std::string_view>>
  void multi_get(std::span<const Key> keys, Fn&& fn) const {
    const std::size_t n = keys.size();
    if (n == 0) return;
    check::ReadLog log(check::lc_begin());
    {
      recl::Ebr::Guard g;  // spans every lookup and every fn call
      const auto visit = [&](std::size_t i, const Record* r) {
        std::optional<std::string_view> v;
        if (r != nullptr) v = r->view();
        log.add(keys[i], v);
        fn(i, v);
      };
      if (n == 1) {
        visit(0, shard_for(keys[0]).find(keys[0]));  // no miss to overlap
      } else {
        const Record* found[kProbeChunk] = {};
        for (std::size_t b = 0; b < n; b += kProbeChunk) {
          const std::span<const Key> chunk =
              keys.subspan(b, std::min(kProbeChunk, n - b));
          const ProbeShards at = prefetch_probes(
              chunk.size(), [chunk](std::size_t j) { return chunk[j]; });
          for (std::size_t j = 0; j < chunk.size(); ++j) {  // stage 3
            found[j] = shards_[at[j]].find(chunk[j]);
            if (found[j] != nullptr) found[j]->prefetch();
          }
          for (std::size_t j = 0; j < chunk.size(); ++j) {  // stage 4
            visit(b + j, found[j]);
          }
        }
      }
    }
    Words::operation_completion();  // one fence for the whole batch
    log.end_gets();
  }

  /// Batched get: out[i] corresponds to keys[i], each a private,
  /// never-torn copy (nullopt if absent).
  std::vector<std::optional<std::string>> multi_get(
      std::span<const Key> keys) const {
    std::vector<std::optional<std::string>> out(keys.size());
    multi_get(keys, [&](std::size_t i, std::optional<std::string_view> v) {
      if (v) out[i].emplace(*v);
    });
    return out;
  }

  /// Batched insert-or-overwrite: out[i] is the fresh-insert flag of
  /// kvs[i] (exactly put()'s return). Elements are applied in batch order
  /// on every shard count — with duplicate keys in one batch, every
  /// occurrence is applied and the LAST one's value wins (each earlier
  /// record is superseded and retired exactly once).
  ///
  /// Durability: every record in the batch is flushed and covered by a
  /// single pfence before the first element is published; each publish
  /// leaves its word tagged/dirty until one final pfence covers them all,
  /// so a concurrent reader that observes an element before that fence
  /// flushes the word itself (flit-if-tagged). A crash recovers each
  /// element independently as fully applied or not at all — never torn.
  ///
  /// Errors: a reserved sentinel key or an oversized value throws
  /// (std::invalid_argument / std::length_error) before ANY element is
  /// applied. kv::OutOfSpace on a full pool can leave a prefix of the
  /// caller's batch applied (each applied element is complete and durable
  /// per the phase protocol; the rest are not applied at all — nothing
  /// torn, nothing leaked). kv::StoreReadOnly when latched degraded.
  std::vector<bool> multi_put(
      std::span<const std::pair<Key, std::string_view>> kvs) {
    ensure_writable();
    try {
      return multi_put_impl(kvs);
    } catch (const OutOfSpace&) {
      throw;
    } catch (const std::bad_alloc&) {
      // The cleanup already ran inside the impl's phase handlers (records
      // freed, partial publishes committed durable); only the type is
      // widened here.
      throw OutOfSpace();
    }
  }

 private:
  std::vector<bool> multi_put_impl(
      std::span<const std::pair<Key, std::string_view>> kvs) {
    const std::size_t n = kvs.size();
    std::vector<bool> fresh(n, false);
    if (n == 0) return fresh;
    for (const auto& [k, v] : kvs) {
      if (Shard_::reserved_key(k)) {
        throw std::invalid_argument("kv: INT64_MIN/INT64_MAX are reserved");
      }
      (void)v;
    }
    const std::uint64_t lc_inv = check::lc_begin();
    // Probe stages 1-2 for every key first: their misses land while
    // Phase 1 writes and flushes the records.
    for (std::size_t b = 0; b < n; b += kProbeChunk) {
      prefetch_probes(std::min(kProbeChunk, n - b),
                      [&](std::size_t j) { return kvs[b + j].first; });
    }

    // Phase 1: create + flush every record, then ONE fence. Nothing is
    // published yet, so any throw here just frees the private records.
    std::vector<Record*> recs(n, nullptr);
    std::size_t created = 0;
    try {
      for (; created < n; ++created) {
        recs[created] = Record::create<Words::persistent, /*fence=*/false>(
            kvs[created].second, *pool_);
      }
    } catch (...) {
      for (std::size_t i = 0; i < created; ++i) {
        pool_->dealloc(recs[i], Record::bytes(recs[i]->len));
      }
      throw;
    }
    if constexpr (Words::persistent) pmem::pfence();

    // Phase 2: publish in batch order with deferred fences, into the
    // probe lines the stages above prefetched. Superseded records are
    // collected, NOT retired yet: until the final fence lands, a crash
    // image can still hold the old link, and retired storage could be
    // recycled under it.
    ds::PublishBatch batch;
    batch.reserve(n);  // enlist must be nofail: it runs post-publish
    std::vector<Record*> superseded;
    superseded.reserve(n);
    std::size_t done = 0;
    try {
      recl::Ebr::Guard g;
      for (; done < n; ++done) {
        const Key k = kvs[done].first;
        fresh[done] = shard_for(k).publish(k, recs[done], batch, superseded);
      }
    } catch (...) {
      // Publishes so far must still become durable and untagged; the
      // failing element's record (and any never-reached ones) were never
      // published and are freed in place.
      Shard_::commit(*pool_, batch, superseded);
      for (std::size_t i = done; i < n; ++i) {
        pool_->dealloc(recs[i], Record::bytes(recs[i]->len));
      }
      throw;
    }

    // Phase 3: one fence covers every publish pwb, then untag/clear and
    // retire the superseded records.
    Shard_::commit(*pool_, batch, superseded);
    if constexpr (core::kChecked) {
      // Recorded only on full success: an exception path leaves a prefix
      // applied but unrecorded, which the checker cannot distinguish from
      // crashes — acceptable, since the recorder is test-scoped and the
      // stress drivers never overcommit the pool.
      for (std::size_t i = 0; i < n; ++i) {
        check::lc_end_write(lc_inv, check::Op::kPut, kvs[i].first,
                            kvs[i].second, fresh[i]);
      }
    }
    return fresh;
  }

 public:
  /// Batched remove: out[i] is remove()'s return for keys[i] (reserved
  /// sentinel keys report false). Elements are applied in batch order;
  /// each chunk's probes are prefetched (stages 1-2) before its removals
  /// run, but each removal keeps its own durable mark CAS — fence
  /// coalescing targets the put path, where records dominate the
  /// persistence bill. Throws kv::StoreReadOnly when latched degraded.
  std::vector<bool> multi_remove(std::span<const Key> keys) {
    ensure_writable();
    const std::size_t n = keys.size();
    std::vector<bool> out(n, false);
    if (n == 0) return out;
    const std::uint64_t lc_inv = check::lc_begin();
    for (std::size_t b = 0; b < n; b += kProbeChunk) {
      const std::span<const Key> chunk =
          keys.subspan(b, std::min(kProbeChunk, n - b));
      const ProbeShards at = prefetch_probes(
          chunk.size(), [chunk](std::size_t j) { return chunk[j]; });
      for (std::size_t j = 0; j < chunk.size(); ++j) {
        out[b + j] = shards_[at[j]].remove(chunk[j]);
      }
    }
    if constexpr (core::kChecked) {
      for (std::size_t i = 0; i < n; ++i) {
        check::lc_end_write(lc_inv, check::Op::kRemove, keys[i], {},
                            out[i]);
      }
    }
    return out;
  }

  /// Ordered stores only, visitor form: fn(key, value) for up to `n`
  /// pairs with key >= start, in ascending key order, merged across shard
  /// boundaries (range partitioning keeps shard ranges disjoint and
  /// ordered, so the merge is concatenation); returns how many fn saw.
  /// One EBR guard spans every fn call, each made before its shard
  /// walk's completion fence. Each pair is individually consistent (the
  /// payload is the full value some put committed for that key), but the
  /// scan as a whole is not an atomic snapshot: keys inserted or removed
  /// concurrently may or may not appear. Keys present for the whole call
  /// are always seen. After recovery, a scan observes every committed key
  /// in order. The reserved sentinel keys are safe starts: scan(INT64_MIN,
  /// n) sees the n smallest keys and scan(INT64_MAX, n) sees none
  /// (neither sentinel is storable, and the structures' sentinel nodes
  /// are never emitted) — audited in kv_ordered_test.
  template <class Fn>
  std::size_t scan(Key start, std::size_t n, Fn&& fn) const
    requires(kOrdered && std::invocable<Fn&, Key, std::string_view>)
  {
    if (n == 0) return 0;
    check::ReadLog log(check::lc_begin());
    std::size_t got = 0;
    {
      recl::Ebr::Guard g;  // spans every shard's walk and every fn call
      const std::size_t first = shard_index(start);
      for (std::size_t i = first; i < shards_.size() && got < n; ++i) {
        // Later shards hold strictly larger keys; scan them from the start.
        const Key lo = i == first ? start : std::numeric_limits<Key>::min();
        got += shards_[i].scan(lo, n - got, [&](Key k, std::string_view v) {
          log.add(k, v);
          fn(k, v);
        });
      }
    }
    log.end_scan(start, n);
    return got;
  }

  /// The pairs scan(start, n, fn) sees, copied out. Its strings come from
  /// the thread's spare list first (see scan(start, n, out) below), and
  /// it never adds to that list.
  std::vector<std::pair<Key, std::string>> scan(Key start, std::size_t n)
      const
    requires(kOrdered)
  {
    std::vector<std::pair<Key, std::string>> out;
    scan(start, n, out);
    return out;
  }

  /// Allocation-free overload: `out` ends up holding exactly the pairs
  /// seen; returns how many. The pairs `out` already holds are
  /// overwritten in place (their strings keep their capacity). A pair
  /// appended past them takes its string from the calling thread's spare
  /// list and allocates only when that list is empty; trimming a surplus
  /// moves the dropped pairs' strings onto the list instead of freeing
  /// them. So a reused `out` allocates nothing per scan at any length.
  /// The list holds only strings a trim dropped and no later scan took
  /// back: a thread that reuses one `out` keeps at most its longest
  /// scan's strings, split between `out` and the list.
  std::size_t scan(Key start, std::size_t n,
                   std::vector<std::pair<Key, std::string>>& out) const
    requires(kOrdered)
  {
    thread_local std::vector<std::string> spare;
    std::size_t got = 0;
    scan(start, n, [&](Key k, std::string_view v) {
      if (got == out.size()) {
        out.emplace_back();
        if (!spare.empty()) {
          out.back().second = std::move(spare.back());
          spare.pop_back();
        }
      }
      out[got].first = k;
      out[got].second.assign(v);
      ++got;
    });
    for (std::size_t i = got; i < out.size(); ++i) {
      spare.push_back(std::move(out[i].second));
    }
    out.resize(got);
    return got;
  }

  /// Approximate total key count, O(nshards): sums the per-shard
  /// counters. Exact at quiescence; under concurrency it may transiently
  /// deviate by the number of in-flight operations (see Shard::size and
  /// ARCHITECTURE.md for the accuracy contract).
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard_& s : shards_) n += s.size();
    return n;
  }

  // --- introspection / recovery handles ------------------------------------

  std::uint32_t nshards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint64_t generation() const noexcept { return sb_->generation; }
  Superblock* superblock() const noexcept { return sb_; }
  bool file_backed() const noexcept { return dur_->region.base() != nullptr; }
  const Shard_& shard(std::size_t i) const { return shards_[i]; }
  /// Ordered stores: the persisted partition bounds.
  KeyRange key_range() const noexcept {
    return {sb_->key_lo, sb_->key_hi};
  }

  /// Which shard serves key k (stable across sessions: hashed routing
  /// depends only on nshards, ordered routing only on the persisted
  /// partition bounds).
  std::size_t shard_index(Key k) const noexcept {
    if constexpr (kOrdered) {
      // Range partition: shard i owns the i-th chunk of [key_lo, key_hi);
      // out-of-range keys clamp to the edge shards. The mapping is
      // monotone in k, which is what keeps cross-shard scans sorted.
      if (k < sb_->key_lo) return 0;
      if (k >= sb_->key_hi) return shards_.size() - 1;
      const auto off =
          static_cast<std::uint64_t>(k) - static_cast<std::uint64_t>(sb_->key_lo);
      return static_cast<std::size_t>(off / range_chunk_);
    } else {
      // Full splitmix64 mix, deliberately distinct from the table's bucket
      // hash so shard choice and bucket choice stay uncorrelated.
      auto x = static_cast<std::uint64_t>(k);
      x += 0x9E3779B97F4A7C15ull;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      x ^= x >> 31;
      return static_cast<std::size_t>(x % shards_.size());
    }
  }

  /// Persist the allocator high-water mark and sync the backing file so
  /// everything committed so far is on stable storage (msync-durable
  /// even on DRAM+disk machines, where pwb/pfence alone reach only the
  /// page cache). Stop-the-world; file-backed stores only. open()'s
  /// recovery walk protects committed records from a dirty shutdown
  /// regardless, but periodic checkpoints bound the msync exposure
  /// window. Throws kv::StoreReadOnly when the msync fails (the store
  /// latches, see health()) or the store is already latched.
  void checkpoint() {
    std::lock_guard<std::mutex> lk(dur_->mu);
    dur_->checkpoint();
  }

  // --- durability modes ------------------------------------------------------

  /// Select how aggressively the store msyncs on its own (see
  /// DurabilityMode for the loss windows). `every` is the kEverySec
  /// flusher interval (exposed for tests; production uses the default).
  /// Stops any previous flusher first; safe to call repeatedly. On a
  /// pool-backed store the mode is recorded but every flush is a no-op.
  void set_durability_mode(
      DurabilityMode m,
      std::chrono::milliseconds every = std::chrono::milliseconds(1000)) {
    stop_flusher();
    Durability& d = *dur_;
    d.mode.store(m, std::memory_order_relaxed);
    d.every = every;
    if (m == DurabilityMode::kEverySec && file_backed()) {
      d.flusher = std::thread(&Store::flusher_main, &d);
    }
  }

  DurabilityMode durability_mode() const noexcept {
    return dur_->mode.load(std::memory_order_relaxed);
  }

  /// Checkpoints executed so far (explicit, flusher, or kAlways hook) —
  /// telemetry for tests and the server's STATS.
  std::uint64_t checkpoints() const noexcept {
    return dur_->checkpoints.load(std::memory_order_relaxed);
  }

  /// Degradation state (see kv::Health and the ladder in errors.hpp).
  /// kDegradedReadOnly latches when a checkpoint msync fails, or when
  /// the process-wide pmem durability latch fired (a close-path msync
  /// was swallowed somewhere a throw could not reach). Once degraded,
  /// every mutation throws kv::StoreReadOnly; reads keep serving. The
  /// latch clears only by reopening the store in a healthy process —
  /// trusting dirty pages again after the kernel rejected a writeback is
  /// the fsyncgate bug.
  Health health() const noexcept {
    if (dur_->health.load(std::memory_order_acquire) != Health::kOk ||
        (file_backed() && pmem::durability_degraded())) {
      return Health::kDegradedReadOnly;
    }
    return Health::kOk;
  }

  /// kAlways hook: callers (the network server, once per readiness
  /// event's writes) invoke this after a write batch commits; under
  /// kAlways it checkpoints before the caller acknowledges, making
  /// "acknowledged" mean "msync-durable". Other modes: no-op.
  void note_write_commit() {
    if (durability_mode() == DurabilityMode::kAlways) checkpoint();
  }

  /// Observe each checkpoint's durability point: `pre` runs immediately
  /// before the msync (snapshot what is about to become durable), `post`
  /// immediately after it succeeds (everything snapshotted IS durable; a
  /// failed checkpoint runs no `post`). Both run on whichever thread
  /// checkpoints — an explicit checkpoint() caller, the kEverySec
  /// flusher, or a kAlways note_write_commit() — under the durability
  /// mutex, as does this setter, so a pre/post pair never interleaves
  /// with another checkpoint's and hooks may be swapped while the store
  /// takes traffic. This is the ack-point surface the crash-test harness
  /// builds its acknowledgement stream on; either hook may be empty. A
  /// hook must not checkpoint or set hooks on the same store.
  void set_checkpoint_hooks(std::function<void()> pre,
                            std::function<void()> post) {
    std::lock_guard<std::mutex> lk(dur_->mu);
    dur_->pre = std::move(pre);
    dur_->post = std::move(post);
  }

  /// Quiesce and detach. File-backed: drain reclamation, persist the
  /// allocator high-water mark, sync, unmap and destroy the region's pool
  /// (see the lifetime contract above). Pool-backed: just release the
  /// volatile handles. Stop-the-world; the store is unusable afterwards.
  /// Idempotent, and a no-op on a moved-from handle.
  void close() {
    if (sb_ == nullptr) return;
    stop_flusher();
    for (Shard_& s : shards_) s.release();
    shards_.clear();
    // Drain unconditionally: retired Records queued in EBR limbo hold
    // deleters that would otherwise run later — against pool memory a
    // reset()/reinit() may have recycled, or a pool destroyed, by then.
    recl::Ebr::instance().drain_all();
    if (file_backed()) {
      // Two-phase: the bump mark must be durable *before* the clean flag
      // declares it authoritative — flag-set with a stale mark would make
      // the next open() skip the repair sweep and recycle committed
      // records. (Both live in the header line; independent 8-byte
      // persists could otherwise land in either order.)
      pmem::FileRegion& r = dur_->region;
      r.set_bump(pool_->bump_used());
      r.sync();
      r.set_root(kCleanShutdownSlot, sb_);  // quiesced: mark clean
      r.sync();
      r.close();
      dur_->pool.reset();  // the region and its allocator die together
    }
    sb_ = nullptr;
  }

 private:
  /// Everything a checkpoint touches, in one heap block shared by the
  /// Store handle, the checkpoint mutex and the kEverySec flusher. The
  /// flusher holds a pointer to the block, never to the Store, so the
  /// handle may move (open() returns by value) while it runs. `mu`
  /// serializes every checkpoint with its hooks, and guards the hooks
  /// and `stop`.
  struct Durability {
    pmem::FileRegion region;  ///< mapped iff the store is file-backed
    /// The region's allocator, iff the store is file-backed. Declared
    /// after the region, so it is destroyed first.
    std::unique_ptr<pmem::Pool> pool;
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::chrono::milliseconds every{1000};
    std::function<void()> pre, post;
    // persist-lint: allow(volatile durability state of the Store handle)
    // The mode, checkpoint counter and health latch are not
    // pool-resident: a reopened store starts in kNever, counting from 0,
    // healthy by design (new process, new page-cache state; the operator
    // reopened deliberately).
    std::atomic<DurabilityMode> mode{DurabilityMode::kNever};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<Health> health{Health::kOk};
    std::thread flusher;  ///< joinable only in kEverySec mode

    /// One checkpoint; the caller holds `mu`. One msync attempt: a
    /// failure latches degraded read-only and throws StoreReadOnly
    /// without running `post`, so a failed checkpoint acknowledges
    /// nothing. There is no retry. Linux reports a writeback error once
    /// and leaves the failed pages clean, so a second msync returns 0
    /// for bytes that never reached the file (the fsyncgate lesson).
    void checkpoint() {
      if (region.base() == nullptr) return;
      if (health.load(std::memory_order_acquire) != Health::kOk) {
        throw StoreReadOnly();
      }
      if (pre) pre();
      region.set_bump(pool->bump_used());
      try {
        region.sync();
      } catch (const std::exception& e) {
        health.store(Health::kDegradedReadOnly, std::memory_order_release);
        std::fprintf(stderr,
                     "flit: kv: checkpoint sync failed (%s); latching "
                     "degraded read-only\n",
                     e.what());
        throw StoreReadOnly();
      }
      checkpoints.fetch_add(1, std::memory_order_relaxed);
      if (post) post();
    }
  };

  /// A store on d's pool (the default Pool when d maps no region), with
  /// no shards yet.
  explicit Store(std::unique_ptr<Durability> d)
      : dur_(std::move(d)),
        pool_(dur_->pool ? dur_->pool.get() : &pmem::Pool::instance()) {}

  /// Fresh shards and a persisted superblock in d's pool.
  Store(std::unique_ptr<Durability> d, std::uint32_t nshards,
        std::size_t capacity_per_shard, KeyRange range)
      : Store(std::move(d)) {
    if (nshards == 0) throw std::invalid_argument("kv::Store: 0 shards");
    if (capacity_per_shard == 0) {
      throw std::invalid_argument("kv::Store: 0 capacity per shard");
    }
    if (range.lo >= range.hi) {
      throw std::invalid_argument("kv::Store: empty key range");
    }
    shards_.reserve(nshards);
    for (std::uint32_t i = 0; i < nshards; ++i) {
      shards_.emplace_back(capacity_per_shard, *pool_);
    }
    sb_ = static_cast<Superblock*>(pool_->alloc(Superblock::bytes(nshards)));
    sb_->magic = kMagic;
    sb_->version = kVersion;
    sb_->nshards = nshards;
    sb_->generation = 1;
    sb_->words_tag = words_tag();
    sb_->layout_tag = layout_tag();
    sb_->node_bytes = static_cast<std::uint32_t>(sizeof(typename Shard_::Node));
    sb_->reserved = 0;
    sb_->key_lo = range.lo;
    sb_->key_hi = range.hi;
    for (std::uint32_t i = 0; i < nshards; ++i) {
      sb_->shard_roots[i] = shards_[i].roots();
    }
    if constexpr (Words::persistent) {
      pmem::persist_range(sb_, Superblock::bytes(nshards));
    }
    init_routing();
  }

  static void flusher_main(Durability* d) {
    std::unique_lock<std::mutex> lk(d->mu);
    while (!d->cv.wait_for(lk, d->every, [d] { return d->stop; })) {
      // Holding mu: no concurrent checkpoint() interleaves its header
      // write with ours. A failure must not terminate the process from a
      // background thread.
      try {
        d->checkpoint();
      } catch (const StoreReadOnly&) {
        // The store latched degraded read-only: every further periodic
        // flush would fail identically, so stop the loop. Mutations are
        // already rejected at the API; the latch shows in health()/STATS.
        break;
      } catch (...) {
        // Transient (not latch-worthy — e.g. a pre/post hook threw):
        // retry on the next interval.
      }
    }
  }

  /// Mutation gate: reject writes while degraded (see health()).
  void ensure_writable() const {
    if (health() != Health::kOk) throw StoreReadOnly();
  }

  void stop_flusher() noexcept {
    Durability& d = *dur_;
    if (!d.flusher.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(d.mu);
      d.stop = true;
    }
    d.cv.notify_all();
    d.flusher.join();
    std::lock_guard<std::mutex> lk(d.mu);
    d.stop = false;  // a later flusher starts fresh
  }

  /// Precompute the ordered-routing chunk width. off/chunk stays < n for
  /// every in-range offset because chunk = ceil-ish(span / n): with
  /// chunk = span/n + 1, (span-1)/chunk <= n-1.
  void init_routing() noexcept {
    if constexpr (kOrdered) {
      const std::uint64_t span = static_cast<std::uint64_t>(sb_->key_hi) -
                                 static_cast<std::uint64_t>(sb_->key_lo);
      range_chunk_ = span / shards_.size() + 1;
    }
  }

  /// Validation + volatile-handle reconstruction on d's pool, every byte
  /// checked against the pool's region before it is read: the
  /// superblock's fixed part, its header fields (validate_superblock), its
  /// full extent, then one walk per shard (see Shard::recover), which
  /// checks the shard's root block and every node. No persistent
  /// allocation and no p-instruction (ordered shards do rebuild their
  /// volatile skiplist index levels in place; recovery otherwise only
  /// reads). A byte outside the region throws std::length_error, a
  /// foreign or corrupt header IncompatibleStore. A
  /// non-null `mark` is raised to one past the highest byte reachable
  /// from the superblock: the allocator mark a dirty shutdown must resume
  /// above.
  ///
  /// The shards are independent, so the calling thread and up to
  /// min(shards, CPUs in its affinity mask) - 1 helpers pull shard
  /// indices from one cursor; a helper that cannot be started leaves the
  /// walk to the threads already running. Every helper is joined before
  /// anything is rethrown (none may outlive a rejected mapping), and a
  /// failed walk rethrows the lowest-index shard's exception, so a
  /// hostile image is rejected with the same message every time.
  static Store recover_handles(Superblock* sb, std::uintptr_t* mark,
                               std::unique_ptr<Durability> d) {
    Store s(std::move(d));
    const ds::Bounds b(*s.pool_);
    if (!b.spans(sb, sizeof(Superblock))) {
      throw std::length_error("kv::Store: superblock outside the region");
    }
    validate_superblock(sb);
    const std::uint32_t n = sb->nshards;
    if (!b.spans(sb, Superblock::bytes(n))) {
      throw std::length_error("kv::Store: superblock exceeds the region");
    }
    std::vector<std::optional<Shard_>> shards(n);
    std::vector<std::uintptr_t> marks(n, 0);
    std::vector<std::exception_ptr> errors(n);
    // persist-lint: allow(volatile work cursor of the recovery walkers)
    std::atomic<std::uint32_t> cursor{0};
    const auto walk = [&]() noexcept {
      for (std::uint32_t i = cursor.fetch_add(1); i < n;
           i = cursor.fetch_add(1)) {
        try {
          shards[i].emplace(Shard_::recover(
              sb->shard_roots[i], b, mark != nullptr ? &marks[i] : nullptr,
              *s.pool_));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> helpers;
    const unsigned nthreads = std::min<unsigned>(n, affinity_cpus());
    helpers.reserve(nthreads - 1);
    for (unsigned t = 1; t < nthreads; ++t) {
      try {
        if (const int e = core::fp_inject("kv.recover.thread", EAGAIN)) {
          throw std::system_error(e, std::generic_category());
        }
        helpers.emplace_back(walk);
      } catch (const std::exception&) {  // system_error, or bad_alloc
        break;
      }
    }
    walk();
    for (std::thread& h : helpers) h.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    s.sb_ = sb;
    s.shards_.reserve(n);
    for (std::optional<Shard_>& shard : shards) {
      s.shards_.push_back(std::move(*shard));
    }
    if (mark != nullptr) {
      for (const std::uintptr_t m : marks) *mark = std::max(*mark, m);
      *mark = std::max(*mark, reinterpret_cast<std::uintptr_t>(sb) +
                                  Superblock::bytes(n));
    }
    s.init_routing();
    return s;
  }

  /// CPUs in the calling thread's affinity mask; 1 when it cannot be read.
  /// (std::thread::hardware_concurrency counts CPUs a pinned process may
  /// not run on.)
  static unsigned affinity_cpus() noexcept {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }

  /// Count this recovery in the session stamp, durably.
  static void bump_generation(Superblock* sb) {
    sb->generation += 1;
    if constexpr (Words::persistent) {
      pmem::pc_store(&sb->generation, sizeof(sb->generation));
      pmem::persist_range(&sb->generation, sizeof(sb->generation));
    }
  }

  Shard_& shard_for(Key k) noexcept { return shards_[shard_index(k)]; }
  const Shard_& shard_for(Key k) const noexcept {
    return shards_[shard_index(k)];
  }

  /// Keys per chunk of the probe pipeline: enough misses in flight to
  /// hide a memory latency, few enough that the prefetched lines are
  /// still cached when their lookups run.
  static constexpr std::size_t kProbeChunk = 16;

  using ProbeShards = std::array<std::size_t, kProbeChunk>;

  /// Stages 1 and 2 of the probe pipeline for a chunk of m <= kProbeChunk
  /// keys, key(j) the j-th: prefetch every key's bucket head word, then
  /// read each head and prefetch the node it links, so the chunk's misses
  /// overlap instead of queueing one behind another. Returns each key's
  /// shard index, for the later stages. Memory hints only: nothing is
  /// written and no p-instruction is issued.
  template <class KeyAt>
  ProbeShards prefetch_probes(std::size_t m, KeyAt key) const noexcept {
    ProbeShards at{};
    for (std::size_t j = 0; j < m; ++j) {
      at[j] = shard_index(key(j));
      shards_[at[j]].prefetch_head(key(j));
    }
    for (std::size_t j = 0; j < m; ++j) shards_[at[j]].prefetch_first(key(j));
    return at;
  }

  // The durability block owns a file-backed store's pool, so it is
  // declared first and outlives the shards that allocate from it.
  std::unique_ptr<Durability> dur_;
  pmem::Pool* pool_;  ///< dur_'s pool, or the default Pool
  std::vector<Shard_> shards_;
  Superblock* sb_ = nullptr;
  std::uint64_t range_chunk_ = 1;  ///< ordered routing chunk width
};

/// Range-partitioned ordered store over skiplist shards: everything Store
/// offers plus scan(start, n) — the YCSB E workload class. Pass a
/// KeyRange matching the workload's keyspace for even shard load.
template <class Words = HashedWords, class Method = Automatic>
using OrderedStore = Store<Words, Method, ds::SkipList>;

}  // namespace flit::kv
