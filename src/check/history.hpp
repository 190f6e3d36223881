// history.hpp — the LinCheck event model: what one recorded operation
// looks like, and the containers a whole run's history lives in.
//
// LinCheck decides durable linearizability from *histories*: every KV
// operation is recorded as an invocation/response interval stamped from
// one global atomic tick, plus the operation's arguments and its observed
// response. The checker (linearizer.hpp) then asks whether some order of
// linearization points — one inside each interval — explains every
// response against the sequential map specification. The model is shared
// by the runtime recorder (lincheck.hpp), the offline checker, and the
// hand-built histories in tests, so it lives in its own dependency-free
// header and is compiled unconditionally (only the *recording hooks* are
// gated behind FLIT_CHECKED).
//
// Values are identified by a 64-bit FNV-1a hash of their bytes rather
// than the bytes themselves: the checker only ever needs equality ("did
// this get return what that put wrote, intact?"), and hashing keeps a
// million-op history's footprint flat. 0 is reserved to mean "absent",
// so a genuine hash of 0 folds to 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace flit::check {

/// The recorded operation kinds, by their sequential specification on a
/// single key's register (0 = absent):
///   kPut      — reg := v;           flag reports "key was absent"
///   kInsert   — if absent reg := v; flag reports "this call inserted"
///   kGet      — reg unchanged;      value reports reg (0 when absent)
///   kContains — reg unchanged;      flag reports reg != 0
///   kRemove   — reg := 0;           flag reports "key was present"
enum class Op : std::uint8_t {
  kPut = 0,
  kInsert = 1,
  kGet = 2,
  kContains = 3,
  kRemove = 4,
};

const char* to_string(Op op) noexcept;

/// 64-bit FNV-1a over the value bytes; never returns 0 (reserved for
/// "absent"), so distinct-from-absent is preserved.
inline std::uint64_t value_id(std::string_view v) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : v) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

/// One completed single-key operation. inv/resp are global ticks taken
/// at (before) invocation and (after) response, so the recorded interval
/// contains the operation's true linearization point. Batched multi-op
/// elements share their batch's inv tick; resp ticks are always unique.
struct Event {
  std::uint64_t inv = 0;
  std::uint64_t resp = 0;
  std::int64_t key = 0;
  std::uint64_t value = 0;  ///< value_id written/read; 0 = none/absent
  Op op = Op::kGet;
  bool flag = false;  ///< the op's boolean response (see Op)
};

/// One completed scan: the start key, the requested limit, and the
/// returned pairs in return order. A pair's value id of 0 means "key
/// reported present, value not recorded" (keys-only range scans) — the
/// checker then applies only the presence rules to it.
struct ScanEvent {
  std::uint64_t inv = 0;
  std::uint64_t resp = 0;
  std::int64_t start = 0;
  std::size_t limit = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
};

/// Everything one run recorded. Events appear in per-thread append order
/// concatenated arbitrarily; the checker sorts per key by inv tick.
struct History {
  std::vector<Event> events;
  std::vector<ScanEvent> scans;
};

}  // namespace flit::check
