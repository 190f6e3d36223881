// harris_list.hpp — Harris's lock-free linked list [DISC'01], written
// against the FliT instruction API.
//
// This is the paper's running example (§1: "a C++11 implementation of
// Harris's linked list can be made durably linearizable by changing just
// seven lines of code") and one of the four evaluated structures. Deletion
// is two-phase: a delete first *marks* the victim's next pointer (bit 0 —
// the linearization point) and then physically unlinks it; traversals help
// unlink marked nodes they encounter.
//
// Pointer-valued lists additionally support atomic in-place value
// replacement (upsert): the value word is CASed from the old pointer to
// the new one, and a removal *claims* the final value by CASing it to its
// bit-0-marked form after winning the next-pointer mark. The value word's
// successful CASes thus form one linear chain ending in a marked pointer,
// which gives every superseded value exactly one owner (the CAS winner
// that replaced it) — the retirement-uniqueness contract the KV record
// slab builds on. A marked value can only ever be observed on a node
// whose removal already linearized, so readers treat it as absence.
//
// Every operation runs from a *link word* (a `W<Node*>`): the search
// returns the predecessor's link word rather than a predecessor node, so
// a node's `next` and a bare head word behave alike. The list below owns
// a head and a tail sentinel and runs each operation from the head
// sentinel's `next`; ds::HashTable runs the same static functions from
// its per-bucket head words, whose chains all end at one shared tail
// sentinel (see hash_table.hpp). The static functions take the pool the
// chain's nodes come from: fresh nodes are allocated there, and unlinked
// ones retire back to it.
//
// Template parameters:
//   K, V    — integral key (numeric_limits min/max are reserved for the
//             sentinels) and trivially copyable value;
//   Words   — word-wrapper configuration (FliT policy, link-and-persist,
//             plain, or non-persistent; see core/modes.hpp);
//   Method  — durability method choosing pflags per call site (Automatic /
//             NVTraverse / Manual).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "check/lincheck.hpp"
#include "core/modes.hpp"
#include "ds/batch.hpp"
#include "ds/tagged_ptr.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace flit::ds {

template <class K, class V, class Words = HashedWords,
          class Method = Automatic>
class HarrisList {
  static_assert(std::is_integral_v<K>, "sentinel keys require integral K");

  template <class T>
  using W = typename Words::template word<T>;

 public:
  struct Node {
    W<K> key;
    W<V> value;
    W<Node*> next;  // bit 0 = deletion mark
    Node(K k, V v, Node* n) noexcept : key(k), value(v), next(n) {}
  };
  /// A link word: a node's `next`, or a head word standing where a head
  /// sentinel's `next` would. Never marked itself when it is a head.
  using Link = W<Node*>;

  static constexpr K kMinKey = std::numeric_limits<K>::min();
  static constexpr K kMaxKey = std::numeric_limits<K>::max();

  /// An empty list whose nodes live in `pool`.
  explicit HarrisList(pmem::Pool& pool = pmem::Pool::instance())
      : pool_(&pool) {
    tail_ = pool.make<Node>(kMaxKey, V{}, nullptr);
    head_ = pool.make<Node>(kMinKey, V{}, tail_);
    Words::persist_obj(tail_);
    Words::persist_obj(head_);
  }

  ~HarrisList() {
    if (!owns_) return;
    free_chain(*pool_, head_->next, tail_);
    pool_->destroy(head_);
    pool_->destroy(tail_);
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  HarrisList(HarrisList&& o) noexcept
      : pool_(o.pool_), head_(o.head_), tail_(o.tail_), owns_(o.owns_) {
    o.owns_ = false;
    o.head_ = o.tail_ = nullptr;
  }

  /// Insert (k, v). Returns false if k is already present.
  bool insert(K k, V v) { return insert(*pool_, head_->next, k, v); }

  /// Insert-or-replace. Returns the superseded value when k was present
  /// (the caller owns cleanup of whatever it referenced — see the file
  /// comment), nullopt when this call freshly inserted k. The replacement
  /// is one CAS on the node's value word: a concurrent find observes the
  /// old or the new value, never absence. Pointer values only (the
  /// coordination with removal needs bit 0 of the word).
  ///
  /// The publish (value-word replace or fresh-node link) is a
  /// deferred-fence CAS enlisted in `batch`, and no per-op completion
  /// fence is issued: the caller pays one pfence for the whole batch and
  /// then batch.complete_all() (see ds/batch.hpp and kv::Shard::commit).
  /// Precondition: everything `v` points at is already flushed, and the
  /// caller fences those flushes before the first publish of the batch.
  std::optional<V> upsert(K k, V v, PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    return upsert(*pool_, head_->next, k, v, batch);
  }

  /// Remove k. Returns false if k is absent.
  bool remove(K k) { return remove_get(k).has_value(); }

  /// Remove k, returning the removed value (nullopt if k is absent).
  /// Exactly one removal observes the returned value, which lets callers
  /// own cleanup of value-referenced storage (the KV record slab relies
  /// on this for EBR retirement of superseded records). For pointer
  /// values the winner *claims* it by marking the value word — the CAS
  /// that ends the word's upsert chain; for other value types values are
  /// immutable after publication and a plain read suffices.
  std::optional<V> remove_get(K k) {
    return remove_get(*pool_, head_->next, k);
  }

  /// Membership test.
  bool contains(K k) const { return contains(*pool_, head_->next, k); }

  /// Lookup returning the value. A claimed (marked) pointer value means
  /// the node's removal linearized before our read: absent.
  std::optional<V> find(K k) const { return find(*pool_, head_->next, k); }

  /// find() minus the per-op completion fence: a batch of lookups shares
  /// one completion fence, issued by the caller after the last lookup
  /// (flush-if-tagged pwbs from the searches stay pending until then, so
  /// nothing the batch observed escapes to the outside unpersisted).
  std::optional<V> find_batched(K k) const {
    return find_batched(*pool_, head_->next, k);
  }

  /// Number of reachable (unmarked) keys; single-threaded use only.
  /// Throws std::length_error on a chain that dead-ends before the tail
  /// sentinel (see the link form below).
  std::size_t size() const { return size(*pool_, head_->next, tail_); }

  // --- crash recovery ------------------------------------------------------

  /// Address of the root pointer pair for persistence tests: the head
  /// sentinel (in the persistent pool) fully determines the structure.
  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }

  /// Rebuild a (non-owning) handle onto a structure whose nodes survived a
  /// crash in `pool`. Recovery is read-only, per the model.
  static HarrisList recover(Node* head, Node* tail,
                            pmem::Pool& pool = pmem::Pool::instance()) {
    return HarrisList(pool, head, tail);
  }

  /// Disown the nodes: the destructor will no longer free them. Used when
  /// the structure's bytes outlive this handle (e.g. a file-backed region
  /// being closed while the persisted nodes stay on disk).
  void release() noexcept { owns_ = false; }

  // --- the algorithm, run from a head link ---------------------------------
  //
  // `head` is the link word a chain starts from; every chain ends at a
  // tail sentinel (key kMaxKey, next null). The operations above pass the
  // head sentinel's `next`; ds::HashTable passes a bucket's head word.

  static bool insert(pmem::Pool& pool, Link& head, K k, V v) {
    recl::Ebr::Guard g;
    for (;;) {
      auto [prev, curr] = search(pool, head, k);
      if (curr->key.load(Method::critical_load) == k) {
        Words::operation_completion();
        return false;
      }
      if (try_link(pool, k, v, *prev, curr)) {
        Words::operation_completion();
        return true;
      }
    }
  }

  static std::optional<V> upsert(pmem::Pool& pool, Link& head, K k, V v,
                                 PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    recl::Ebr::Guard g;
    for (;;) {
      auto [prev, curr] = search(pool, head, k);
      if (curr->key.load(Method::critical_load) == k) {
        // In-place replace. A marked value means the removal that won
        // this node's mark CAS already claimed it: the key is logically
        // absent, so fall through to a fresh search (which helps unlink)
        // and the insert path. Succeeding on a node whose *next* was
        // marked after our search is benign: the value was still
        // unclaimed, so the remover has not returned and the two
        // overlapping operations linearize as replace-then-remove (the
        // remover's claim captures — and owns — our value).
        if (std::optional<V> old =
                replace_value(curr->value, v, Method::critical_load,
                              Method::critical_store, batch)) {
          return old;
        }
        continue;
      }
      if (try_link(pool, k, v, *prev, curr, &batch)) return std::nullopt;
    }
  }

  static std::optional<V> remove_get(pmem::Pool& pool, Link& head, K k) {
    recl::Ebr::Guard g;
    for (;;) {
      auto [prev, curr] = search(pool, head, k);
      if (curr->key.load(Method::critical_load) != k) {
        Words::operation_completion();
        return std::nullopt;
      }
      Node* succ = curr->next.load(Method::critical_load);
      if (is_marked(succ)) continue;  // raced with another remover; re-find
      // Logical deletion: mark curr's next pointer (linearization point).
      Node* expected = succ;
      if (!curr->next.cas(expected, with_mark(succ),
                          Method::critical_store)) {
        continue;  // next changed (insert after curr, or competing mark)
      }
      const V removed = claim_value(curr->value, Method::critical_load,
                                    Method::cleanup_store);
      // Physical deletion: unlink; on failure, search() will help.
      Node* e = curr;
      if (prev->cas(e, succ, Method::cleanup_store)) {
        pool.retire(curr);
      } else {
        search(pool, head, k);  // unlinks curr (the helper retires it)
      }
      Words::operation_completion();
      return removed;
    }
  }

  static bool contains(pmem::Pool& pool, Link& head, K k) {
    recl::Ebr::Guard g;
    Node* curr = search(pool, head, k).second;
    const bool found = curr->key.load(Method::transition_load) == k;
    Words::operation_completion();
    return found;
  }

  static std::optional<V> find(pmem::Pool& pool, Link& head, K k) {
    std::optional<V> out = find_batched(pool, head, k);
    Words::operation_completion();
    return out;
  }

  static std::optional<V> find_batched(pmem::Pool& pool, Link& head, K k) {
    recl::Ebr::Guard g;
    Node* curr = search(pool, head, k).second;
    std::optional<V> out;
    if (curr->key.load(Method::transition_load) == k) {
      const V v = curr->value.load(Method::transition_load);
      if (!value_is_claimed(v)) out = v;
    }
    return out;
  }

  /// The two prefetch stages of a batch of searches from many heads (see
  /// kv::Store's probe pipeline): prefetch_head prefetches the head word's
  /// line by address and loads nothing; prefetch_first, run once every
  /// head of the batch has been requested, reads the head word and
  /// prefetches the node it links. Memory hints only — one relaxed load,
  /// no p-instruction — so they are safe with or without an EBR guard (a
  /// stale prefetch address is harmless).
  static void prefetch_head(const Link& head) noexcept {
    __builtin_prefetch(&head);
  }
  static void prefetch_first(const Link& head) noexcept {
    __builtin_prefetch(without_mark(head.load_private()));
  }

  /// Reachable (unmarked) keys between `head` and `tail`; single-threaded
  /// use only. Throws std::length_error on a link outside `pool` (see
  /// walk_chain).
  static std::size_t size(const pmem::Pool& pool, const Link& head,
                          const Node* tail) {
    std::size_t n = 0;
    walk_chain(head, tail, Bounds(pool),
               [&n](const Node&, bool live) { n += live; });
    return n;
  }

  /// Visit every node linked between `head` and `tail` (exclusive) as
  /// f(node, live), where live means unmarked: a *marked* node's value
  /// may reference already-reclaimed storage. Each node is checked
  /// against `b` before any of its fields is read, and a link outside
  /// throws std::length_error — that includes a chain that dead-ends at
  /// null before the tail sentinel (a truncated image re-extended with
  /// zeros), which would otherwise miscount silently or dereference null.
  /// A chain longer than `b` can hold throws too: each node takes
  /// sizeof(Node) bytes of it, so only a link back into the chain walks
  /// that far. Single-threaded (recovery) use only.
  template <class F>
  static void walk_chain(const Link& head, const Node* tail, Bounds b,
                         F&& f) {
    const Node* c = without_mark(head.load_private());
    for (std::size_t room = b.len / sizeof(Node); c != tail; --room) {
      if (!b.holds(c)) {
        throw std::length_error("ds::HarrisList: link outside the region");
      }
      if (room == 0) {
        throw std::length_error("ds::HarrisList: chain loops back on itself");
      }
      const Node* succ = c->next.load_private();
      f(*c, !is_marked(succ));
      c = without_mark(succ);
    }
  }

  /// Free every node linked between `head` and `tail` (exclusive), marked
  /// ones included; single-threaded teardown of an owning handle.
  static void free_chain(pmem::Pool& pool, const Link& head,
                         const Node* tail) noexcept {
    Node* n = without_mark(head.load_private());
    while (n != tail && n != nullptr) {
      Node* nxt = without_mark(n->next.load_private());
      pool.destroy(n);
      n = nxt;
    }
  }

 private:
  HarrisList(pmem::Pool& pool, Node* head, Node* tail) noexcept
      : pool_(&pool), head_(head), tail_(tail), owns_(false) {}

  /// One insertion attempt at the (prev, curr) position search() just
  /// computed: build the node, persist it, publish it with the critical
  /// CAS on the predecessor's link word. False — node freed, nothing
  /// published — if the CAS lost; the caller re-searches and retries.
  /// Shared by insert and upsert so the publish/durability sequence
  /// exists exactly once. With a non-null `batch` the publish CAS defers
  /// its trailing fence to the batch (the node-init persist keeps its own
  /// fence either way: the node's bytes must be durable before the link
  /// can be observed, and they were flushed after the batch's record
  /// fence).
  static bool try_link(pmem::Pool& pool, K k, V v, Link& prev, Node* curr,
                       PublishBatch* batch = nullptr) {
    Node* node = pool.make<Node>(k, v, curr);
    if (Method::persist_node_init) Words::persist_obj(node);
    if constexpr (Words::persistent) {
      pmem::pc_publish(node, sizeof(Node), "ds::HarrisList::try_link");
    }
    Node* expected = curr;
    if (batch != nullptr) {
      if (prev.cas_deferred(expected, node, Method::critical_store)) {
        if (Method::critical_store) batch->enlist(prev, node);
        return true;
      }
    } else if (prev.cas(expected, node, Method::critical_store)) {
      return true;
    }
    pool.destroy(node);  // never published; immediate free is safe
    return false;
  }

  /// Harris search from `head`: returns (prev, curr) where curr is the
  /// first unmarked node with key >= k and prev is the link word pointing
  /// at it (`head` itself, or its unmarked predecessor's `next`). Helps
  /// unlink marked nodes along the way.
  static std::pair<Link*, Node*> search(pmem::Pool& pool, Link& head, K k) {
  retry:
    for (;;) {
      Link* prev = &head;
      Node* curr = without_mark(prev->load(Method::traversal_load));
      for (;;) {
        check::lc_deref(curr, "ds::HarrisList::search");
        Node* succ = curr->next.load(Method::traversal_load);
        while (is_marked(succ)) {
          // curr is logically deleted: unlink it before moving on.
          Node* expected = curr;
          if (!prev->cas(expected, without_mark(succ),
                         Method::cleanup_store)) {
            goto retry;
          }
          pool.retire(curr);
          curr = without_mark(succ);
          check::lc_deref(curr, "ds::HarrisList::search");
          succ = curr->next.load(Method::traversal_load);
        }
        if (curr->key.load(Method::traversal_load) >= k) {
          // NVtraverse/manual transition: flush-if-tagged the words the
          // critical phase depends on.
          if (Method::traversal_load != Method::transition_load) {
            prev->load(Method::transition_load);
            curr->next.load(Method::transition_load);
          }
          return {prev, curr};
        }
        prev = &curr->next;
        curr = without_mark(succ);
      }
    }
  }

  pmem::Pool* pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  bool owns_ = true;
};

}  // namespace flit::ds
