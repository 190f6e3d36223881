// backend.hpp — the shard ↔ data-structure contract of the KV store.
//
// The paper's central claim is that FliT instrumentation makes *any*
// lock-free structure durably linearizable with minimal code change. The
// KV layer honors that generality: a kv::Shard is written against the
// *backend concept* below rather than against one structure, and a
// backend is a thin adapter giving a set structure from src/ds/ the
// uniform face the shard (and Store recovery) needs:
//
//   using Key = std::int64_t;                 // the store's key type
//   using Node;                               // the persisted node type
//   struct Roots;                             // persistent recovery root
//   static constexpr bool kOrdered;           // supports for_each_range
//   static constexpr const char* kLayoutName; // superblock layout tag
//
//   Backend(std::size_t capacity_hint);       // fresh structure
//   static Backend recover(Roots*, ds::Bounds, visit);
//                                             // recovery's one walk, see
//                                             // below
//   Roots* roots();
//   std::optional<Record*> upsert(Key, Record*, ds::PublishBatch&);
//                                             // atomic in-place replace-
//                                             // or-insert whose publish
//                                             // joins the batch; the
//                                             // superseded record (owned
//                                             // by the caller) or nullopt
//   std::optional<Record*> remove_get(Key);   // unique unlink ownership
//   std::optional<Record*> find(Key);         // lookup; the caller fences
//   bool contains(Key);
//   void prepare(Key);                        // prefetch k's probe entry
//                                             // (a no-op when every probe
//                                             // starts at the same lines)
//   void release();                           // disown persisted nodes
//   std::uintptr_t roots_extent();
//   static std::size_t node_bytes(const Node&);
//   for_each_range(Key lo, f);                // ordered backends only
//
// recover() rebuilds the volatile handle in one walk of the persisted
// structure — every bucket chain, or the skiplist's level 0, over which
// it rebuilds the volatile index levels — that checks the root block and
// then each node against the region's bounds before reading any of its
// fields and hands each node to visit(const Node&, bool live), sentinels
// included (as not live). The walk leaves the persisted links as it
// found them and issues no p-instruction, so shards recover on
// concurrent threads.
// kv::Shard::recover re-counts live keys and, after a dirty shutdown,
// bounds the allocator mark in that visitor; a root block or node
// outside the bounds throws std::length_error.
//
// Two backends are provided: HashBackend (a hash table whose buckets are
// Harris lists, one persistent head word each — the original store
// layout) and OrderedBackend (a lock-free skiplist, which additionally
// supports ordered range scans and range-partitioned sharding; see
// store.hpp). Both store values as Record* (shard.hpp) and lean on the
// same two invariants:
//
//   * persist-before-publish — a Record is fully persisted before the
//     structure ever points at it, so a record reachable from a persisted
//     link is always intact;
//   * unique retirement ownership — every record leaves the structure by
//     exactly one successful value-word CAS: an upsert superseding it
//     (the upsert's caller owns it) or a removal's claim (remove_get's
//     caller owns it), so exactly one operation retires each superseded
//     record through EBR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "ds/batch.hpp"
#include "ds/hash_table.hpp"
#include "ds/skiplist.hpp"
#include "kv/shard.hpp"
#include "pmem/pool.hpp"

namespace flit::kv {

/// Hash-partitioned shard backend: a FliT hash table (a Harris list per
/// bucket, run from one persistent head word; see ds/hash_table.hpp).
/// `capacity_hint` is the bucket count. Unordered — no scans.
template <class Words, class Method>
class HashBackend {
 public:
  using Key = std::int64_t;
  using Table = ds::HashTable<Key, Record*, Words, Method>;
  using Node = typename Table::Node;
  using Roots = typename Table::Roots;

  static constexpr bool kOrdered = false;
  static constexpr bool kPersistent = Words::persistent;
  static constexpr const char* kLayoutName = "hashed";

  explicit HashBackend(std::size_t capacity_hint) : table_(capacity_hint) {}
  HashBackend(HashBackend&&) noexcept = default;

  template <class F>
  static HashBackend recover(Roots* roots, ds::Bounds b, F&& visit) {
    return HashBackend(Table::recover(roots, b, visit));
  }

  Roots* roots() const noexcept { return table_.roots(); }
  std::optional<Record*> upsert(Key k, Record* r, ds::PublishBatch& batch) {
    return table_.upsert(k, r, batch);
  }
  std::optional<Record*> remove_get(Key k) { return table_.remove_get(k); }
  std::optional<Record*> find(Key k) const { return table_.find_batched(k); }
  bool contains(Key k) const { return table_.contains(k); }
  void prepare(Key k) const noexcept { table_.prepare(k); }
  void release() noexcept { table_.release(); }

  std::uintptr_t roots_extent() const noexcept {
    return table_.roots_extent();
  }

  static std::size_t node_bytes(const Node&) noexcept {
    return sizeof(Node);
  }

 private:
  explicit HashBackend(Table&& t) noexcept : table_(std::move(t)) {}

  Table table_;
};

/// Ordered shard backend: a lock-free skiplist. Supports everything
/// HashBackend does plus ordered iteration (for_each_range), which is what
/// Store::scan and the YCSB E workload build on. `capacity_hint` is
/// accepted for ctor symmetry but unused (a skiplist needs no sizing).
template <class Words, class Method>
class OrderedBackend {
 public:
  using Key = std::int64_t;
  using List = ds::SkipList<Key, Record*, Words, Method>;
  using Node = typename List::Node;

  static constexpr bool kOrdered = true;
  static constexpr bool kPersistent = Words::persistent;
  static constexpr const char* kLayoutName = "ordered-skiplist";

  /// Persistent recovery root: the skiplist's two sentinel towers fully
  /// determine the structure (recovery rebuilds the index levels from the
  /// durable bottom level — see SkipList::recover).
  struct Roots {
    Node* head;
    Node* tail;
  };

  explicit OrderedBackend(std::size_t /*capacity_hint*/) : list_() {
    roots_ = static_cast<Roots*>(pmem::Pool::instance().alloc(sizeof(Roots)));
    roots_->head = list_.head();
    roots_->tail = list_.tail();
    if constexpr (Words::persistent) {
      pmem::persist_range(roots_, sizeof(Roots));
    }
  }

  OrderedBackend(OrderedBackend&&) noexcept = default;

  template <class F>
  static OrderedBackend recover(Roots* roots, ds::Bounds b, F&& visit) {
    if (!b.holds(roots)) {
      throw std::length_error("kv: shard root block outside the region");
    }
    return OrderedBackend(List::recover(roots->head, roots->tail, b, visit),
                          roots);
  }

  Roots* roots() const noexcept { return roots_; }
  std::optional<Record*> upsert(Key k, Record* r, ds::PublishBatch& batch) {
    return list_.upsert(k, r, batch);
  }
  std::optional<Record*> remove_get(Key k) { return list_.remove_get(k); }
  std::optional<Record*> find(Key k) const { return list_.find_batched(k); }
  bool contains(Key k) const { return list_.contains(k); }
  /// No prefetch: every skiplist probe starts at the head tower, whichever
  /// the key, and every operation keeps those lines cached.
  void prepare(Key) const noexcept {}
  void release() noexcept { list_.release(); }

  /// Ordered visit of every live (key, record) with key >= lo, ascending,
  /// until f returns false. See SkipList::for_each_range for the
  /// concurrency contract (not an atomic snapshot; stable keys are always
  /// visited).
  template <class F>
  void for_each_range(Key lo, F&& f) const {
    list_.for_each_range(lo, f);
  }

  std::uintptr_t roots_extent() const noexcept {
    return reinterpret_cast<std::uintptr_t>(roots_) + sizeof(Roots);
  }

  /// Skiplist nodes are tower-sized (recover()'s walk has checked the
  /// height).
  static std::size_t node_bytes(const Node& n) noexcept {
    return Node::bytes_for(n.height);
  }

 private:
  OrderedBackend(List&& l, Roots* roots) noexcept
      : list_(std::move(l)), roots_(roots) {}

  List list_;
  Roots* roots_ = nullptr;
};

}  // namespace flit::kv
