// tagged_ptr.hpp — pointer helpers shared by the lock-free structures:
// low-bit tagging, the value-claim protocol, and the bounds a recovery
// walk checks every persisted link against.
//
// Bit assignments across the library:
//   bit 0 — data-structure logical-deletion mark (Harris / Fraser / the
//           hash-table buckets) or the BST "flag";
//   bit 1 — either the BST "tag" (Natarajan–Mittal use two control bits,
//           which is why link-and-persist cannot serve the BST), or the
//           link-and-persist dirty flag (handled inside lap_word, invisible
//           to the structures).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "pmem/pool.hpp"

namespace flit::ds {

inline constexpr std::uintptr_t kMarkBit = 0x1;
inline constexpr std::uintptr_t kFlagBit = 0x1;  // BST terminology
inline constexpr std::uintptr_t kTagBit = 0x2;   // BST only

template <class P>
P* with_mark(P* p) noexcept {
  return reinterpret_cast<P*>(reinterpret_cast<std::uintptr_t>(p) | kMarkBit);
}

template <class P>
P* without_mark(P* p) noexcept {
  return reinterpret_cast<P*>(reinterpret_cast<std::uintptr_t>(p) &
                              ~kMarkBit);
}

template <class P>
bool is_marked(P* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & kMarkBit) != 0;
}

template <class P>
P* with_bits(P* p, std::uintptr_t bits) noexcept {
  return reinterpret_cast<P*>(reinterpret_cast<std::uintptr_t>(p) | bits);
}

template <class P>
P* without_bits(P* p, std::uintptr_t bits) noexcept {
  return reinterpret_cast<P*>(reinterpret_cast<std::uintptr_t>(p) & ~bits);
}

template <class P>
std::uintptr_t get_bits(P* p, std::uintptr_t bits) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) & bits;
}

// --- the value-claim protocol (shared by HarrisList and SkipList) ----------
//
// Pointer-valued nodes support atomic in-place value replacement (upsert):
// the value word is CASed old→new on a live node, and the removal that won
// the node's next-pointer mark CAS *claims* the final value by CASing it to
// its bit-0-marked form. The word's successful CASes thus form one linear
// chain ending in a marked pointer, which gives every superseded value
// exactly one owner — the CAS winner that replaced it — and a marked value
// can only ever be observed on a node whose removal already linearized, so
// readers treat it as absence. The replace half, ds::replace_value, lives
// in batch.hpp: its CAS defers its fence to a PublishBatch.

/// True iff a loaded value is a claimed (removal-owned) pointer. Always
/// false for non-pointer values, which are immutable once published.
template <class V>
bool value_is_claimed([[maybe_unused]] V v) noexcept {
  if constexpr (std::is_pointer_v<V>) {
    return is_marked(v);
  } else {
    return false;
  }
}

/// Take unique ownership of a removed node's final value. Pointer values:
/// CAS the word to its marked form, which both defeats any still-in-flight
/// upsert (its CAS can no longer succeed) and ends the word's replacement
/// chain — the claimed value has exactly this one owner. Only the remover
/// that won the node's mark CAS may call this, so the loop races only with
/// (finitely many) upserts. `cas_pflag` should be the Method's cleanup
/// pflag: the removal is already durable through the node mark, and
/// recovery never reads a marked node's value. Non-pointer values are
/// immutable once published (and persisted at node init), so a private
/// load suffices — no counter traffic, no spurious pwbs.
template <class Word>
typename Word::value_type claim_value(Word& word, bool load_pflag,
                                      bool cas_pflag) noexcept {
  using V = typename Word::value_type;
  if constexpr (std::is_pointer_v<V>) {
    V val = word.load(load_pflag);
    for (;;) {
      // A single remover claims each node (it won the mark CAS) and
      // upserts only ever install unmarked pointers, so the word cannot
      // already be marked here — and a crash cannot fake it either: the
      // mark CAS is a p-CAS that flushes and fences before returning, so
      // the node mark is durable before this claim executes. Returning a
      // marked pointer would hand the caller a tainted Record* to retire.
      assert(!is_marked(val));
      V expected = val;
      if (word.cas(expected, with_mark(val), cas_pflag)) return val;
      val = expected;
    }
  } else {
    return word.load_private();
  }
}

// --- recovery walks ----------------------------------------------------------

/// The bytes a recovery walk may read: [base, base + len). Allocator
/// metadata is not crash-consistent (the libvmmalloc model), so recovery
/// learns where nodes are only from persisted links, and a torn or
/// bit-rotted image can hold a link to anywhere. Each walk therefore
/// checks a node against the bounds before reading any of its fields
/// and throws std::length_error on a miss; a null link is just another
/// miss. Passed by value: the per-node check is one unsigned compare.
struct Bounds {
  std::uintptr_t base;
  std::size_t len;

  Bounds(const void* b, std::size_t n) noexcept
      : base(reinterpret_cast<std::uintptr_t>(b)), len(n) {}

  /// The region `p` allocates from: the bounds of a structure that lives
  /// in it, e.g. of a simulated-crash recovery in the default pool.
  explicit Bounds(const pmem::Pool& p) noexcept
      : Bounds(p.base(), p.capacity()) {}

  /// True iff [p, p + n) lies inside, for any n.
  bool spans(const void* p, std::size_t n) const noexcept {
    const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(p) - base;
    return off <= len && n <= len - off;
  }

  /// spans(p, sizeof(T)) in one compare: an address below base (null
  /// included) wraps past len. Requires sizeof(T) <= len, which every
  /// node type meets in a region that holds its superblock.
  template <class T>
  bool holds(const T* p) const noexcept {
    return reinterpret_cast<std::uintptr_t>(p) - base <= len - sizeof(T);
  }
};

}  // namespace flit::ds
