// errors.hpp — the KV store's typed fault surface.
//
// Split out of shard.hpp/store.hpp so the network front-end (generic over
// the store) can map each fault class to its protocol reply without
// pulling the full KV headers: OutOfSpace → -ERR OUT_OF_SPACE,
// StoreReadOnly → -ERR READONLY, Health → the STATS health= field.
//
// The degradation ladder these types encode (see ARCHITECTURE.md
// "Failpoints & degraded modes"):
//
//   * OutOfSpace — the persistent pool cannot hold another record. A
//     per-*operation* error: the store stays fully serviceable (reads,
//     deletes, and any put small enough to reuse recycled blocks), so it
//     derives from std::bad_alloc and callers that already treated
//     bad_alloc as "pool full" keep working unchanged.
//   * StoreReadOnly — the store latched *degraded read-only* after a
//     checkpoint msync failed (the fsyncgate lesson: once the kernel
//     reports a failed writeback, dirty pages may have been dropped, so
//     acknowledging further writes as durable would lie). A per-*store*
//     latch: every mutation fails until the operator reopens the store;
//     reads stay correct (they serve from the mapping, which is intact).
#pragma once

#include <new>
#include <stdexcept>

namespace flit::kv {

/// The persisted image exists but cannot be recovered by this Store
/// instantiation: wrong magic/version, a different Words configuration's
/// node layout, a different backend layout (hashed vs ordered), or a
/// corrupt header. Distinct from transient system errors (which surface
/// as plain std::runtime_error from FileRegion) so callers can decide to
/// recreate only when the file itself is the problem.
struct IncompatibleStore : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The persistent pool is full: the put (or multi_put element) that threw
/// was not applied — nothing is leaked and nothing is torn (multi_put's
/// documented prefix semantics apply). Derives from std::bad_alloc so
/// pre-existing "pool full" handlers keep matching.
struct OutOfSpace : std::bad_alloc {
  const char* what() const noexcept override {
    return "kv: out of persistent space";
  }
};

/// The store is latched in degraded read-only mode: a checkpoint msync
/// failed, so write acknowledgements can no longer be trusted as
/// durable. Mutations throw this until the store is closed and reopened
/// (reads keep serving).
struct StoreReadOnly : std::runtime_error {
  StoreReadOnly()
      : std::runtime_error(
            "kv: store is in degraded read-only mode (msync failed; "
            "writes can no longer be acknowledged as durable)") {}
};

/// Store::health(): the read-only latch, surfaced for STATS/telemetry.
enum class Health { kOk = 0, kDegradedReadOnly = 1 };

inline const char* to_string(Health h) noexcept {
  return h == Health::kOk ? "ok" : "readonly";
}

}  // namespace flit::kv
