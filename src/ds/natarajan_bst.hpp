// natarajan_bst.hpp — Natarajan–Mittal lock-free external BST [PPoPP'14],
// written against the FliT instruction API.
//
// External tree: internal nodes route (two children each), leaves hold the
// keys. Deletion is edge-based: the deleter *flags* (bit 0) the edge from
// the parent to the victim leaf, *tags* (bit 1) the edge to the sibling so
// it cannot be modified, and swings the ancestor's edge down to the
// sibling, removing the parent and leaf in one CAS.
//
// Because both low bits of every child pointer are control bits, there is
// no spare bit for link-and-persist's dirty flag — this is the structure
// the paper uses to show FliT's generality (§6.6: "link-and-persist ...
// cannot be implemented with the BST, since this BST algorithm makes use of
// all bits in each word").
//
// Reclamation: a deleter retires its own parent + leaf when its cleanup CAS
// succeeds. Removals completed by helpers leak those two nodes (rare,
// contention-only) — the standard conservative choice for this algorithm.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <type_traits>

#include "check/lincheck.hpp"
#include "core/modes.hpp"
#include "ds/tagged_ptr.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace flit::ds {

template <class K, class V, class Words = HashedWords,
          class Method = Automatic>
class NatarajanBst {
  static_assert(std::is_integral_v<K>, "sentinel keys require integral K");

  template <class T>
  using W = typename Words::template word<T>;

 public:
  struct Node {
    W<K> key;
    W<V> value;
    W<Node*> left;   // bits 0 (flag) and 1 (tag) are control bits
    W<Node*> right;
    Node(K k, V v, Node* l, Node* r) noexcept
        : key(k), value(v), left(l), right(r) {}
    bool is_leaf() const noexcept {
      return without_bits(left.load_private(), kFlagBit | kTagBit) == nullptr;
    }
  };

  // Two sentinel keys above every real key (paper's inf1 < inf2).
  static constexpr K kInf2 = std::numeric_limits<K>::max();
  static constexpr K kInf1 = kInf2 - 1;

  NatarajanBst() {
    Node* leaf_inf1 = pmem::pnew<Node>(kInf1, V{}, nullptr, nullptr);
    Node* leaf_inf2a = pmem::pnew<Node>(kInf2, V{}, nullptr, nullptr);
    Node* leaf_inf2b = pmem::pnew<Node>(kInf2, V{}, nullptr, nullptr);
    s_ = pmem::pnew<Node>(kInf1, V{}, leaf_inf1, leaf_inf2a);
    r_ = pmem::pnew<Node>(kInf2, V{}, s_, leaf_inf2b);
    Words::persist_obj(leaf_inf1);
    Words::persist_obj(leaf_inf2a);
    Words::persist_obj(leaf_inf2b);
    Words::persist_obj(s_);
    Words::persist_obj(r_);
  }

  ~NatarajanBst() {
    if (!owns_) return;
    destroy_rec(r_);
  }

  NatarajanBst(const NatarajanBst&) = delete;
  NatarajanBst& operator=(const NatarajanBst&) = delete;
  NatarajanBst(NatarajanBst&& o) noexcept
      : r_(o.r_), s_(o.s_), owns_(o.owns_) {
    o.owns_ = false;
    o.r_ = o.s_ = nullptr;
  }

  bool insert(K k, V v) {
    recl::Ebr::Guard g;
    for (;;) {
      SeekRecord sr = seek(k);
      const K leaf_key = sr.leaf->key.load(Method::critical_load);
      if (leaf_key == k) {
        Words::operation_completion();
        return false;
      }
      // Build: a new internal routing node whose children are the existing
      // leaf and the new leaf.
      Node* new_leaf = pmem::pnew<Node>(k, v, nullptr, nullptr);
      Node* internal =
          (k < leaf_key)
              ? pmem::pnew<Node>(leaf_key, V{}, new_leaf, sr.leaf)
              : pmem::pnew<Node>(k, V{}, sr.leaf, new_leaf);
      if (Method::persist_node_init) {
        Words::persist_obj(new_leaf);
        Words::persist_obj(internal);
      }
      W<Node*>& child_field = child_of(sr.parent, k);
      Node* expected = sr.leaf;  // clean edge (no flag/tag)
      if (child_field.cas(expected, internal, Method::critical_store)) {
        Words::operation_completion();
        return true;
      }
      // Failed: free the unpublished nodes and help if the edge to our
      // leaf is being deleted.
      pmem::pdelete(new_leaf);
      pmem::pdelete(internal);
      if (without_bits(expected, kFlagBit | kTagBit) == sr.leaf &&
          get_bits(expected, kFlagBit | kTagBit) != 0) {
        cleanup(k, sr);
      }
    }
  }

  bool remove(K k) {
    recl::Ebr::Guard g;
    bool injected = false;
    Node* victim = nullptr;
    Node* victim_parent = nullptr;
    for (;;) {
      SeekRecord sr = seek(k);
      if (!injected) {
        if (sr.leaf->key.load(Method::critical_load) != k) {
          Words::operation_completion();
          return false;
        }
        victim = sr.leaf;
        W<Node*>& child_field = child_of(sr.parent, k);
        Node* expected = victim;
        if (child_field.cas(expected, with_bits(victim, kFlagBit),
                            Method::critical_store)) {
          injected = true;
          victim_parent = sr.parent;
          if (cleanup(k, sr)) {
            retire_removed(victim, victim_parent);
            Words::operation_completion();
            return true;
          }
        } else if (without_bits(expected, kFlagBit | kTagBit) == victim &&
                   get_bits(expected, kFlagBit | kTagBit) != 0) {
          // Another delete flagged this same leaf first: help, then lose.
          cleanup(k, sr);
        }
      } else {
        if (sr.leaf != victim) {
          // A helper finished our removal; the helper's CAS moved the tree
          // past our parent/leaf — conservatively leak them (see header).
          Words::operation_completion();
          return true;
        }
        if (cleanup(k, sr)) {
          retire_removed(victim, sr.parent);
          Words::operation_completion();
          return true;
        }
      }
    }
  }

  bool contains(K k) const {
    recl::Ebr::Guard g;
    const Node* n = search_leaf(k);
    const bool found = n->key.load(Method::transition_load) == k;
    Words::operation_completion();
    return found;
  }

  std::optional<V> find(K k) const {
    recl::Ebr::Guard g;
    const Node* n = search_leaf(k);
    std::optional<V> out;
    if (n->key.load(Method::transition_load) == k) {
      out = n->value.load(Method::transition_load);
    }
    Words::operation_completion();
    return out;
  }

  /// Reachable key count; single-threaded use only.
  std::size_t size() const { return count_rec(s_, /*leaves_only=*/true); }

  // --- crash recovery ------------------------------------------------------

  Node* root() const noexcept { return r_; }
  Node* sentinel() const noexcept { return s_; }

  static NatarajanBst recover(Node* r, Node* s) { return NatarajanBst(r, s); }

 private:
  struct SeekRecord {
    Node* ancestor;
    Node* successor;
    Node* parent;
    Node* leaf;
  };

  NatarajanBst(Node* r, Node* s) noexcept : r_(r), s_(s), owns_(false) {}

  W<Node*>& child_of(Node* n, K k) noexcept {
    return (k < n->key.load(Method::traversal_load)) ? n->left : n->right;
  }
  const W<Node*>& child_of_const(Node* n, K k) const noexcept {
    return (k < n->key.load(Method::traversal_load)) ? n->left : n->right;
  }

  bool is_leaf_traverse(Node* n) const noexcept {
    return without_bits(n->left.load(Method::traversal_load),
                        kFlagBit | kTagBit) == nullptr;
  }

  /// Read-only descent (no seek record, no helping) to the leaf a lookup
  /// of k ends at. NVtraverse/manual transition: the parent's edge into
  /// that leaf is flushed if tagged, as seek() does. It may hold an insert
  /// whose fence is still pending, and a completed lookup must not return
  /// a key a crash can take back.
  const Node* search_leaf(K k) const {
    const W<Node*>* edge = &s_->left;
    Node* n = without_bits(edge->load(Method::traversal_load),
                           kFlagBit | kTagBit);
    while (!is_leaf_traverse(n)) {
      edge = &child_of_const(n, k);
      n = without_bits(edge->load(Method::traversal_load), kFlagBit | kTagBit);
    }
    if (Method::traversal_load != Method::transition_load) {
      edge->load(Method::transition_load);
    }
    return n;
  }

  /// Natarajan–Mittal seek: tracks the deepest *untagged* edge (ancestor →
  /// successor) above the search path, plus the final (parent, leaf).
  SeekRecord seek(K k) {
    SeekRecord sr{r_, s_, s_, nullptr};
    Node* parent_field =
        sr.parent->left.load(Method::traversal_load);  // raw S→child word
    Node* current_field = nullptr;
    sr.leaf = without_bits(parent_field, kFlagBit | kTagBit);
    check::lc_deref(sr.leaf, "ds::NatarajanBst::seek");
    current_field = sr.leaf->left.load(Method::traversal_load);
    Node* current = without_bits(current_field, kFlagBit | kTagBit);

    while (current != nullptr) {
      check::lc_deref(current, "ds::NatarajanBst::seek");
      if (get_bits(parent_field, kTagBit) == 0) {
        sr.ancestor = sr.parent;
        sr.successor = sr.leaf;
      }
      sr.parent = sr.leaf;
      sr.leaf = current;
      parent_field = current_field;
      current_field =
          (k < sr.leaf->key.load(Method::traversal_load))
              ? sr.leaf->left.load(Method::traversal_load)
              : sr.leaf->right.load(Method::traversal_load);
      current = without_bits(current_field, kFlagBit | kTagBit);
    }
    // NVtraverse/manual transition: flush-if-tagged the words the critical
    // phase reads/CASes.
    if (Method::traversal_load != Method::transition_load) {
      child_of(sr.parent, k).load(Method::transition_load);
      sr.leaf->key.load(Method::transition_load);
    }
    return sr;
  }

  /// Remove the flagged leaf (and its parent) by swinging the ancestor's
  /// edge to the sibling. Returns true if this call's CAS did the removal.
  bool cleanup(K k, const SeekRecord& sr) {
    Node* ancestor = sr.ancestor;
    Node* parent = sr.parent;

    // Which of parent's edges carries the delete flag?
    const bool leaf_on_left =
        k < parent->key.load(Method::critical_load);
    W<Node*>& child_field = leaf_on_left ? parent->left : parent->right;
    W<Node*>& sibling_init = leaf_on_left ? parent->right : parent->left;
    W<Node*>* sibling_field = &sibling_init;

    Node* child_val = child_field.load(Method::critical_load);
    if (get_bits(child_val, kFlagBit) == 0) {
      // The flag is on the other edge: we are helping a delete of the
      // sibling leaf, so the roles swap.
      sibling_field = &child_field;
    }

    // Tag the sibling edge so no insert/delete can modify it, preserving a
    // possible flag (a pending delete of the sibling survives the swing).
    for (;;) {
      Node* sv = sibling_field->load(Method::critical_load);
      if (get_bits(sv, kTagBit) != 0) break;
      Node* expected = sv;
      if (sibling_field->cas(expected, with_bits(sv, kTagBit),
                             Method::critical_store)) {
        break;
      }
    }
    Node* sibling_val = sibling_field->load(Method::critical_load);
    Node* new_child = without_bits(sibling_val, kTagBit);  // keep flag bit

    // Swing: ancestor's edge to successor is replaced by the sibling.
    W<Node*>& anc_field =
        (k < ancestor->key.load(Method::critical_load)) ? ancestor->left
                                                        : ancestor->right;
    Node* expected = sr.successor;  // clean edge expected
    return anc_field.cas(expected, new_child, Method::critical_store);
  }

  void retire_removed(Node* leaf, Node* parent) {
    pmem::Pool::instance().retire(leaf);
    pmem::Pool::instance().retire(parent);
  }

  std::size_t count_rec(const Node* n, bool leaves_only) const {
    if (n == nullptr) return 0;
    const Node* l =
        without_bits(n->left.load_private(), kFlagBit | kTagBit);
    const Node* r =
        without_bits(n->right.load_private(), kFlagBit | kTagBit);
    if (l == nullptr) {  // leaf
      const K key = n->key.load_private();
      return (key < kInf1) ? 1 : 0;
    }
    (void)leaves_only;
    return count_rec(l, leaves_only) + count_rec(r, leaves_only);
  }

  void destroy_rec(Node* n) {
    if (n == nullptr) return;
    Node* l = without_bits(n->left.load_private(), kFlagBit | kTagBit);
    Node* r = without_bits(n->right.load_private(), kFlagBit | kTagBit);
    destroy_rec(l);
    destroy_rec(r);
    pmem::pdelete(n);
  }

  Node* r_ = nullptr;  // root internal node (key inf2)
  Node* s_ = nullptr;  // its left child (key inf1); real keys live below
  bool owns_ = true;
};

}  // namespace flit::ds
