// hash_table.hpp — lock-free hash table whose buckets are Harris lists, as
// evaluated in the paper (§6: "a hash table which uses Harris's linked
// list to implement each bucket").
//
// Bucket layout (Michael's lock-free hash table, SPAA 2002): a bucket is
// one persistent head word. The table's single persistent root block is
//
//   Roots { nbuckets, tail, heads[nbuckets] }
//
// where every head word starts at the one shared tail sentinel (key
// kMaxKey) and every chain ends there. An operation hashes its key to a
// head word and runs HarrisList's algorithm from that link, so a head
// word plays the part of a list's head-sentinel `next`: an op issues the
// same p-instructions on the same logical words. A bucket costs one word of
// pmem (8 B; 16 B under AdjacentWords) and nothing in DRAM, and the root
// block alone recovers the whole table in O(1).
//
// The bucket count is fixed at construction (the paper sizes it to the key
// range, keeping chains short).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "ds/batch.hpp"
#include "ds/harris_list.hpp"

namespace flit::ds {

template <class K, class V, class Words = HashedWords,
          class Method = Automatic>
class HashTable {
  using List = HarrisList<K, V, Words, Method>;

 public:
  using Node = typename List::Node;
  using Link = typename List::Link;

  /// Unordered: no range visit.
  static constexpr bool kOrdered = false;

  /// Persistent root block: everything recovery needs.
  struct Roots {
    std::size_t nbuckets;
    Node* tail;     // the shared tail sentinel every chain ends at
    Link heads[1];  // flexible-array idiom; allocated oversized

    static std::size_t bytes(std::size_t nbuckets) noexcept {
      return sizeof(Roots) + (nbuckets - 1) * sizeof(Link);
    }
  };

  /// Fresh table of `nbuckets` empty buckets in `pool`;
  /// std::invalid_argument on 0.
  explicit HashTable(std::size_t nbuckets,
                     pmem::Pool& pool = pmem::Pool::instance())
      : pool_(&pool) {
    if (nbuckets == 0) {
      throw std::invalid_argument("ds::HashTable: 0 buckets");
    }
    const std::size_t bytes = Roots::bytes(nbuckets);
    roots_ = static_cast<Roots*>(pool.alloc(bytes));
    Node* tail = pool.make<Node>(List::kMaxKey, V{}, nullptr);
    Words::persist_obj(tail);
    roots_->nbuckets = nbuckets;
    roots_->tail = tail;
    for (std::size_t i = 0; i < nbuckets; ++i) {
      ::new (&roots_->heads[i]) Link(tail);
    }
    if constexpr (Words::persistent) pmem::persist_range(roots_, bytes);
  }

  ~HashTable() {
    if (!owns_) return;
    for (std::size_t i = 0; i < roots_->nbuckets; ++i) {
      List::free_chain(*pool_, roots_->heads[i], roots_->tail);
    }
    pool_->destroy(roots_->tail);
    pool_->dealloc(roots_, Roots::bytes(roots_->nbuckets));
  }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;
  HashTable(HashTable&& o) noexcept
      : pool_(o.pool_),
        roots_(std::exchange(o.roots_, nullptr)),
        owns_(std::exchange(o.owns_, false)) {}

  bool insert(K k, V v) { return List::insert(*pool_, head(k), k, v); }
  /// Insert-or-replace with an atomic in-place value CAS whose publish
  /// defers its fence to `batch` (pointer values only; see
  /// HarrisList::upsert). Returns the superseded value when k was
  /// present, nullopt on a fresh insert.
  std::optional<V> upsert(K k, V v, PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    return List::upsert(*pool_, head(k), k, v, batch);
  }
  bool remove(K k) { return remove_get(k).has_value(); }
  /// Remove k, returning the removed value (see HarrisList::remove_get).
  std::optional<V> remove_get(K k) {
    return List::remove_get(*pool_, head(k), k);
  }
  bool contains(K k) const { return List::contains(*pool_, head(k), k); }
  std::optional<V> find(K k) const { return List::find(*pool_, head(k), k); }

  // --- KV store hooks (see HarrisList) ------------------------------------

  /// Batched-probe stages 1 and 2 for k (see HarrisList::prefetch_head):
  /// prefetch k's head word, then read it and prefetch its first node.
  void prefetch_head(K k) const noexcept { List::prefetch_head(head(k)); }
  void prefetch_first(K k) const noexcept { List::prefetch_first(head(k)); }
  /// Lookup without the per-op completion fence; the caller fences once
  /// per batch (one lookup for a scalar get).
  std::optional<V> find_batched(K k) const {
    return List::find_batched(*pool_, head(k), k);
  }

  std::size_t bucket_count() const noexcept { return roots_->nbuckets; }
  /// The pool the table's nodes come from.
  pmem::Pool& pool() const noexcept { return *pool_; }

  /// Total reachable keys; single-threaded use only. Throws
  /// std::length_error on a chain that breaks before the shared tail.
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < roots_->nbuckets; ++i) {
      n += List::size(*pool_, roots_->heads[i], roots_->tail);
    }
    return n;
  }

  // --- crash recovery ------------------------------------------------------

  Roots* roots() const noexcept { return roots_; }

  /// A non-owning handle onto a root block persisted in `pool`: O(1),
  /// read-only.
  static HashTable recover(Roots* roots,
                           pmem::Pool& pool = pmem::Pool::instance()) noexcept {
    return HashTable(pool, roots);
  }

  /// Disown the nodes: the persisted bytes outlive this volatile handle.
  void release() noexcept { owns_ = false; }

  /// recover(roots), after one walk of every bucket chain: the root
  /// block, its bucket count and head words are checked against `b`
  /// first, then each node is checked before it is read and handed to
  /// f(node, live) (see HarrisList::walk_chain); the shared tail is
  /// checked first and visited last, as a node holding no key. Throws
  /// std::length_error on a root block or link outside `b`.
  /// Single-threaded, read-only.
  template <class F>
  static HashTable recover(Roots* roots, Bounds b, F&& f,
                           pmem::Pool& pool = pmem::Pool::instance()) {
    if (!b.holds(roots)) {
      throw std::length_error("ds::HashTable: root block outside the region");
    }
    const std::size_t nb = roots->nbuckets;
    if (nb == 0 || nb > b.len / sizeof(Link) ||
        !b.spans(roots, Roots::bytes(nb))) {
      throw std::length_error("ds::HashTable: corrupt bucket count");
    }
    const Node* tail = roots->tail;
    if (!b.holds(tail)) {
      throw std::length_error("ds::HashTable: tail outside the region");
    }
    for (std::size_t i = 0; i < nb; ++i) {
      List::walk_chain(roots->heads[i], tail, b, f);
    }
    f(*tail, false);
    return recover(roots, pool);
  }

  /// One past the last byte of the persisted root block.
  std::uintptr_t roots_extent() const noexcept {
    return reinterpret_cast<std::uintptr_t>(roots_) +
           Roots::bytes(roots_->nbuckets);
  }

  static std::size_t node_bytes(const Node&) noexcept { return sizeof(Node); }

 private:
  HashTable(pmem::Pool& pool, Roots* roots) noexcept
      : pool_(&pool), roots_(roots), owns_(false) {}

  Link& head(K k) const noexcept {
    const auto h = static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
    return roots_->heads[h % roots_->nbuckets];
  }

  pmem::Pool* pool_;
  Roots* roots_ = nullptr;
  bool owns_ = true;
};

}  // namespace flit::ds
