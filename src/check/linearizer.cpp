// linearizer.cpp — see linearizer.hpp for the decomposition and
// soundness arguments the implementation leans on. Shape of a check:
//
//   1. group events per key, sorted by inv tick;
//   2. per key, run the conservative classifiers (each names a precise
//      violation class and the contradicting ops);
//   3. per key with no classifier finding, run the exact WGL search —
//      a DFS over "which op linearizes next", memoized on (prefix,
//      out-of-order window bitmask, register value);
//   4. check every scan against the per-key groups;
//   5. (durable mode) check a recovered image against the same groups.
#include "check/linearizer.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <unordered_set>

namespace flit::check {

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kPut: return "put";
    case Op::kInsert: return "insert";
    case Op::kGet: return "get";
    case Op::kContains: return "contains";
    case Op::kRemove: return "remove";
  }
  return "?";
}

const char* to_string(ViolationClass v) noexcept {
  switch (v) {
    case ViolationClass::kStaleRead: return "stale-read";
    case ViolationClass::kPhantomRead: return "phantom-read";
    case ViolationClass::kLostUpdate: return "lost-update";
    case ViolationClass::kFlagMismatch: return "flag-mismatch";
    case ViolationClass::kNonLinearizable: return "non-linearizable";
    case ViolationClass::kScanOrder: return "scan-order";
    case ViolationClass::kScanStale: return "scan-stale";
    case ViolationClass::kScanPhantom: return "scan-phantom";
    case ViolationClass::kScanDropped: return "scan-dropped";
    case ViolationClass::kDurableLost: return "durable-lost";
    case ViolationClass::kDurablePhantom: return "durable-phantom";
    case ViolationClass::kSearchLimit: return "search-limit";
  }
  return "?";
}

namespace {

bool is_write(const Event& e) noexcept {
  return e.op == Op::kPut || (e.op == Op::kInsert && e.flag);
}
bool is_true_remove(const Event& e) noexcept {
  return e.op == Op::kRemove && e.flag;
}
bool is_state_changer(const Event& e) noexcept {
  return is_write(e) || is_true_remove(e);
}

std::string describe(const Event& e) {
  std::string s = to_string(e.op);
  s += "(key=" + std::to_string(e.key) + ")@[" + std::to_string(e.inv) +
       "," + std::to_string(e.resp) + "]";
  return s;
}

/// Write w is certainly superseded before tick t: some completed state
/// changer starts after w responds and responds before t, so no
/// linearization can keep w's value current at any point >= t.
bool certainly_dead_before(const std::vector<Event>& evs, const Event& w,
                          std::uint64_t t) {
  for (const Event& q : evs) {
    if (!is_state_changer(q)) continue;
    if (q.inv > w.resp && q.resp < t) return true;
  }
  return false;
}

/// The key is present at every point of [s, e] in every linearization:
/// some write (other than `self`) completes before s, and no true remove
/// (other than `self`) can linearize between that write and e.
bool certainly_present(const std::vector<Event>& evs, std::uint64_t s,
                       std::uint64_t e, const Event* self) {
  for (const Event& w : evs) {
    if (&w == self || !is_write(w) || w.resp >= s) continue;
    bool maybe_killed = false;
    for (const Event& r : evs) {
      if (&r == self || !is_true_remove(r)) continue;
      if (r.resp < w.inv || r.inv > e) continue;  // cannot land in (w, e]
      maybe_killed = true;
      break;
    }
    if (!maybe_killed) return true;
  }
  return false;
}

/// The key is absent at every point of [s, e] in every linearization:
/// every write (other than `self`) either starts after e or is certainly
/// followed by a true remove completing before s.
bool certainly_absent(const std::vector<Event>& evs, std::uint64_t s,
                      std::uint64_t e, const Event* self) {
  for (const Event& w : evs) {
    if (&w == self || !is_write(w)) continue;
    if (w.inv > e) continue;
    bool certainly_removed = false;
    for (const Event& r : evs) {
      if (&r == self || !is_true_remove(r)) continue;
      if (r.inv > w.resp && r.resp < s) {
        certainly_removed = true;
        break;
      }
    }
    if (!certainly_removed) return false;
  }
  return true;
}

/// Precise-class classifiers for one key's events. Sound: each rule
/// quantifies only over completed ops via interval containment.
void classify_key(const std::vector<Event>& evs,
                  std::vector<Finding>& out) {
  for (const Event& g : evs) {
    const std::uint64_t s = g.inv;
    const std::uint64_t e = g.resp;
    switch (g.op) {
      case Op::kGet: {
        if (g.value != 0) {
          bool any_writer_of_vid = false;
          bool plausible = false;
          for (const Event& w : evs) {
            if (!is_write(w) || w.value != g.value) continue;
            any_writer_of_vid = true;
            if (w.inv < e && !certainly_dead_before(evs, w, s)) {
              plausible = true;
              break;
            }
          }
          if (!plausible) {
            out.push_back(
                {any_writer_of_vid ? ViolationClass::kStaleRead
                                   : ViolationClass::kPhantomRead,
                 g.key, g.inv,
                 describe(g) +
                     (any_writer_of_vid
                          ? " returned a value every writer of which was "
                            "certainly superseded before the read began"
                          : " returned a value no recorded operation "
                            "ever wrote")});
          }
        } else if (certainly_present(evs, s, e, &g)) {
          out.push_back({ViolationClass::kLostUpdate, g.key, g.inv,
                         describe(g) +
                             " returned absent while the key was "
                             "certainly present for the whole interval"});
        }
        break;
      }
      case Op::kPut:
      case Op::kInsert: {
        if (g.flag && certainly_present(evs, s, e, &g)) {
          out.push_back({ViolationClass::kFlagMismatch, g.key, g.inv,
                         describe(g) +
                             " reported a fresh insert while the key was "
                             "certainly present"});
        } else if (!g.flag && certainly_absent(evs, s, e, &g)) {
          out.push_back({ViolationClass::kFlagMismatch, g.key, g.inv,
                         describe(g) +
                             " reported the key present while it was "
                             "certainly absent"});
        }
        break;
      }
      case Op::kContains:
      case Op::kRemove: {
        if (g.flag && certainly_absent(evs, s, e, &g)) {
          out.push_back({ViolationClass::kFlagMismatch, g.key, g.inv,
                         describe(g) +
                             " reported present while the key was "
                             "certainly absent"});
        } else if (!g.flag && certainly_present(evs, s, e, &g)) {
          out.push_back({ViolationClass::kFlagMismatch, g.key, g.inv,
                         describe(g) +
                             " reported absent while the key was "
                             "certainly present"});
        }
        break;
      }
    }
  }
}

// --- per-key WGL search ----------------------------------------------------

/// The linearize-ahead window: ops linearized out of real-time-index
/// order ahead of `base`. 256 bits — the distance is bounded by how many
/// same-key ops complete while one op stays open, so a heavily preempted
/// thread on an oversubscribed box can legitimately need far more than
/// 64 (observed in the 1-CPU CI stress runs).
constexpr std::size_t kWindow = 256;
using WglMask = std::array<std::uint64_t, kWindow / 64>;

bool mask_bit(const WglMask& m, std::size_t off) noexcept {
  return ((m[off >> 6] >> (off & 63)) & 1) != 0;
}

void mask_set(WglMask& m, std::size_t off) noexcept {
  m[off >> 6] |= std::uint64_t{1} << (off & 63);
}

void mask_shift1(WglMask& m) noexcept {
  for (std::size_t w = 0; w + 1 < m.size(); ++w) {
    m[w] = (m[w] >> 1) | (m[w + 1] << 63);
  }
  m.back() >>= 1;
}

/// DFS state: ops[0..base) all linearized, `mask` marks linearized ops
/// in the window [base, base+kWindow), `reg` is the register value.
struct WglState {
  std::size_t base = 0;
  WglMask mask{};
  std::uint64_t reg = 0;
  bool operator==(const WglState& o) const noexcept {
    return base == o.base && mask == o.mask && reg == o.reg;
  }
};
struct WglStateHash {
  std::size_t operator()(const WglState& s) const noexcept {
    std::uint64_t h = s.base * 0x9E3779B97F4A7C15ull;
    for (const std::uint64_t w : s.mask) {
      h ^= w + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
    h ^= s.reg + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

enum class WglOutcome { kLinearizable, kNoWitness, kLimit };

/// Apply one op to `reg` per the sequential spec; false if the recorded
/// response contradicts the state (transition illegal in this order).
bool apply_op(const Event& o, std::uint64_t& reg) noexcept {
  switch (o.op) {
    case Op::kPut:
      if (o.flag != (reg == 0)) return false;
      reg = o.value;
      return true;
    case Op::kInsert:
      if (reg == 0) {
        if (!o.flag) return false;
        reg = o.value;
      } else if (o.flag) {
        return false;
      }
      return true;
    case Op::kGet:
      return o.value == reg;
    case Op::kContains:
      return o.flag == (reg != 0);
    case Op::kRemove:
      if (o.flag != (reg != 0)) return false;
      reg = 0;
      return true;
  }
  return false;
}

/// Exact per-key linearizability: is there an order of the ops — one
/// linearization point inside each [inv, resp] — that the sequential
/// spec accepts? Ops must be sorted by inv. The candidate rule is Wing &
/// Gong's: o may go next iff no other pending op responded before o was
/// invoked. Memoization collapses revisited (prefix, window, register)
/// states; kWindow bounds per-key concurrency (out-of-order distance),
/// kMaxVisited bounds the search outright.
WglOutcome wgl_check(const std::vector<Event>& evs) {
  constexpr std::size_t kMaxVisited = std::size_t{1} << 21;
  const std::size_t n = evs.size();
  std::unordered_set<WglState, WglStateHash> visited;
  std::vector<WglState> stack{{0, {}, 0}};
  visited.insert(stack.back());
  while (!stack.empty()) {
    const WglState st = stack.back();
    stack.pop_back();
    if (st.base == n) return WglOutcome::kLinearizable;
    // Minimum response among pending ops bounds the candidates.
    std::uint64_t min_resp = ~std::uint64_t{0};
    for (std::size_t i = st.base; i < n; ++i) {
      const bool done =
          i - st.base < kWindow && mask_bit(st.mask, i - st.base);
      if (done) continue;
      min_resp = std::min(min_resp, evs[i].resp);
      // Pending ops invoked after min_resp can't constrain it further,
      // but later ops may still; keep scanning only while inv could
      // undercut the current minimum.
      if (i + 1 < n && evs[i + 1].inv > min_resp) break;
    }
    for (std::size_t i = st.base; i < n && evs[i].inv <= min_resp; ++i) {
      const std::size_t off = i - st.base;
      if (off >= kWindow) return WglOutcome::kLimit;
      if (mask_bit(st.mask, off)) continue;
      WglState next = st;
      if (!apply_op(evs[i], next.reg)) continue;
      mask_set(next.mask, off);
      while (mask_bit(next.mask, 0)) {
        mask_shift1(next.mask);
        ++next.base;
      }
      if (visited.size() >= kMaxVisited) return WglOutcome::kLimit;
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return WglOutcome::kNoWitness;
}

// --- scan rules ------------------------------------------------------------

void check_scan(const ScanEvent& sc,
                const std::map<std::int64_t, std::vector<Event>>& per_key,
                std::vector<Finding>& out) {
  static const std::vector<Event> kNoEvents;
  const std::uint64_t s = sc.inv;
  const std::uint64_t e = sc.resp;

  // Output shape: strictly ascending keys, all >= start.
  for (std::size_t i = 0; i < sc.out.size(); ++i) {
    const std::int64_t k = sc.out[i].first;
    if (k < sc.start || (i > 0 && sc.out[i - 1].first >= k)) {
      out.push_back({ViolationClass::kScanOrder, k, sc.inv,
                     "scan(start=" + std::to_string(sc.start) +
                         ") output not strictly ascending at key " +
                         std::to_string(k)});
      return;  // one order diagnostic per scan is enough
    }
  }

  // Each returned pair must be plausibly current somewhere in [s, e].
  for (const auto& [k, v] : sc.out) {
    const auto it = per_key.find(k);
    const std::vector<Event>& evs =
        it == per_key.end() ? kNoEvents : it->second;
    if (v != 0) {
      bool any_writer_of_vid = false;
      bool plausible = false;
      for (const Event& w : evs) {
        if (!is_write(w) || w.value != v) continue;
        any_writer_of_vid = true;
        if (w.inv < e && !certainly_dead_before(evs, w, s)) {
          plausible = true;
          break;
        }
      }
      if (!plausible) {
        out.push_back({any_writer_of_vid ? ViolationClass::kScanStale
                                         : ViolationClass::kScanPhantom,
                       k, sc.inv,
                       "scan returned key " + std::to_string(k) +
                           (any_writer_of_vid
                                ? " with a value certainly superseded "
                                  "before the scan began"
                                : " with a value nothing ever wrote")});
      }
    } else if (certainly_absent(evs, s, e, nullptr)) {
      out.push_back({ViolationClass::kScanPhantom, k, sc.inv,
                     "scan reported key " + std::to_string(k) +
                         " present while it was certainly absent"});
    }
  }

  // Keys certainly present throughout [s, e] and inside the returned
  // range must appear. Respect the limit: with a full output, only keys
  // up to the last returned one were owed.
  const bool full = sc.out.size() >= sc.limit && sc.limit > 0;
  const std::int64_t last_key =
      sc.out.empty() ? sc.start : sc.out.back().first;
  for (const auto& [k, evs] : per_key) {
    if (k < sc.start) continue;
    if (full && k > last_key) continue;
    if (!certainly_present(evs, s, e, nullptr)) continue;
    bool returned = false;
    for (const auto& p : sc.out) {
      if (p.first == k) {
        returned = true;
        break;
      }
    }
    if (!returned) {
      out.push_back({ViolationClass::kScanDropped, k, sc.inv,
                     "scan(start=" + std::to_string(sc.start) +
                         ", limit=" + std::to_string(sc.limit) +
                         ") dropped key " + std::to_string(k) +
                         ", certainly present for the whole interval"});
    }
  }
}

std::map<std::int64_t, std::vector<Event>> group_by_key(const History& h) {
  std::map<std::int64_t, std::vector<Event>> per_key;
  for (const Event& e : h.events) per_key[e.key].push_back(e);
  for (auto& [k, evs] : per_key) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const Event& a, const Event& b) {
                       return a.inv != b.inv ? a.inv < b.inv
                                             : a.resp < b.resp;
                     });
  }
  return per_key;
}

}  // namespace

std::vector<Finding> check_history(const History& h) {
  std::vector<Finding> out;
  const auto per_key = group_by_key(h);
  for (const auto& [k, evs] : per_key) {
    const std::size_t before = out.size();
    classify_key(evs, out);
    if (out.size() != before) continue;  // precise classes beat "no witness"
    switch (wgl_check(evs)) {
      case WglOutcome::kLinearizable:
        break;
      case WglOutcome::kNoWitness:
        out.push_back({ViolationClass::kNonLinearizable, k,
                       evs.empty() ? 0 : evs.front().inv,
                       "no linearization of the " +
                           std::to_string(evs.size()) + " ops on key " +
                           std::to_string(k) +
                           " satisfies the sequential spec"});
        break;
      case WglOutcome::kLimit:
        out.push_back({ViolationClass::kSearchLimit, k,
                       evs.empty() ? 0 : evs.front().inv,
                       "WGL search budget exceeded on key " +
                           std::to_string(k) + " (inconclusive)"});
        break;
    }
  }
  for (const ScanEvent& sc : h.scans) check_scan(sc, per_key, out);
  return out;
}

std::vector<Finding> check_durable(
    const History& h, std::uint64_t cut,
    const std::map<std::int64_t, std::uint64_t>& recovered) {
  static const std::vector<Event> kNoEvents;
  std::vector<Finding> out;
  const auto per_key = group_by_key(h);

  auto check_key = [&](std::int64_t k, const std::vector<Event>& evs) {
    const auto rit = recovered.find(k);
    const std::uint64_t rv = rit == recovered.end() ? 0 : rit->second;
    if (rv != 0) {
      // The recovered value needs a writer that could have linearized
      // before the cut and was not certainly superseded by then.
      bool any_writer_of_vid = false;
      bool plausible = false;
      for (const Event& w : evs) {
        if (!is_write(w) || w.value != rv) continue;
        any_writer_of_vid = true;
        if (w.inv < cut && !certainly_dead_before(evs, w, cut)) {
          plausible = true;
          break;
        }
      }
      if (!plausible) {
        out.push_back({any_writer_of_vid ? ViolationClass::kDurableLost
                                         : ViolationClass::kDurablePhantom,
                       k, cut,
                       "image at tick " + std::to_string(cut) +
                           " recovered key " + std::to_string(k) +
                           (any_writer_of_vid
                                ? " with a value certainly superseded "
                                  "by a completed-before-crash op"
                                : " with a value nothing ever wrote")});
      }
    } else if (certainly_present(evs, cut, cut, nullptr)) {
      out.push_back({ViolationClass::kDurableLost, k, cut,
                     "image at tick " + std::to_string(cut) +
                         " lost key " + std::to_string(k) +
                         ", certainly present at the crash point"});
    }
  };

  for (const auto& [k, evs] : per_key) check_key(k, evs);
  for (const auto& [k, rv] : recovered) {
    (void)rv;
    if (per_key.find(k) == per_key.end()) check_key(k, kNoEvents);
  }
  return out;
}

}  // namespace flit::check
