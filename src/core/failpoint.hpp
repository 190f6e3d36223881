// failpoint.hpp — named fault-injection sites for error-path testing.
//
// The crash harnesses prove the store survives dying; failpoints prove it
// survives the OS saying no while it lives. A *site* is a named hook at a
// syscall or allocator boundary ("pmem.msync", "pool.alloc", "net.accept",
// ...; see the catalog below). Armed, a site simulates the failure its
// callers must degrade around — msync returns EIO, the pool throws
// bad_alloc, accept reports EMFILE — without exhausting anything for
// real, so the degraded paths (OutOfSpace replies, the read-only latch,
// accept backoff) become deterministic, regression-testable behavior.
//
// The same registry plants the seeded bugs that validate the checkers:
// each `bug.*` site below breaks the protocol in one precise place, and
// the checker it targets must catch it with the right class and site.
//
// Zero cost when disabled: the fp_inject() hook below compiles to a
// constant 0 unless FLIT_CHECKED is defined (the `checked` CMake preset;
// see core/checked.hpp), so default builds carry byte-identical hot
// paths. The registry class itself is always compiled — spec parsing and
// trigger arithmetic stay unit-tested in every build, and flit_crashtest
// consults its `bug.unsafe_ack` site directly; only the library's
// hot-path consultation is gated.
//
// Arming:
//
//   * API:  Failpoints::instance().arm("pool.alloc", spec)
//   * env:  FLIT_FAILPOINTS="site=trigger[@errno][;site=trigger...]"
//             trigger:  once | every:N | prob:P      (P in [0, 1])
//             errno:    EIO | ENOMEM | ENOSPC | EMFILE | ECONNRESET |
//                       EPIPE | EAGAIN | or a plain decimal number
//           e.g. FLIT_FAILPOINTS="pmem.msync=once@EIO;pool.alloc=every:3"
//           parsed once, at the first instance() call.
//
// Triggers: `once` fires on the first evaluation only; `every:N` fires on
// evaluations N, 2N, 3N, ... (the classic every-Nth exhaustion audit);
// `prob:P` fires each evaluation with probability P from a deterministic
// per-registry PRNG (seed via FLIT_FAILPOINTS_SEED, default 1, so runs
// replay). Each site counts evaluations and hits; tests assert on hits()
// and the process-wide total_hits() feeds the server's STATS line.
//
// Site catalog (kept in sync with ARCHITECTURE.md "Failpoints & degraded
// modes"):
//
//   pool.alloc       Pool::alloc            throws std::bad_alloc
//   pmem.msync       FileRegion sync/close  msync fails (default EIO)
//   pmem.mmap        FileRegion::open       mmap fails (default ENOMEM)
//   pmem.ftruncate   FileRegion::open       ftruncate fails (default ENOSPC)
//   net.accept       accept_nonblocking     accept fails (default EMFILE)
//   net.read         read_some              read fails (default ECONNRESET)
//   net.write        write_some             send fails (default ECONNRESET)
//   net.write.short  write_some             send truncated to one byte
//   kv.recover.thread Store::recover_handles a recovery helper thread
//                                           fails to start (default EAGAIN)
//
// Seeded bugs (fire while armed; each names the checker that catches it):
//
//   bug.stale_read    Shard::put       write applied one write late
//                                      (LinCheck kStaleRead)
//   bug.lost_update   Shard::put       write acknowledged, never applied
//                                      (LinCheck kLostUpdate)
//   bug.early_retire  Record::retire   record freed with no EBR grace
//                                      (LinCheck kEarlyReclaim)
//   bug.skip_pwb      pmem::pwb        the flush is dropped
//                                      (PersistCheck kPublishUnpersisted)
//   bug.unsafe_ack    flit_crashtest   ops acknowledged before applied
//                                      (the crash harness's ack check)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flit::core {

/// How an armed site decides to fire.
enum class FailTrigger { kOff, kOnce, kEveryNth, kProbability };

/// One site's arming: trigger + parameter + the errno the site should
/// simulate (0 = use the site's documented default).
struct FailSpec {
  FailTrigger trigger = FailTrigger::kOff;
  std::uint64_t every_n = 0;  ///< kEveryNth period (>= 1)
  double probability = 0.0;   ///< kProbability chance per evaluation
  int error = 0;              ///< injected errno; 0 = site default
};

class Failpoints {
 public:
  /// Immortal singleton (sites are consulted from worker threads that may
  /// outlive static destruction). The first call arms from the
  /// FLIT_FAILPOINTS environment variable, if set.
  static Failpoints& instance();

  Failpoints(const Failpoints&) = delete;
  Failpoints& operator=(const Failpoints&) = delete;

  /// Arm (or re-arm, resetting counters) one site.
  void arm(const std::string& site, const FailSpec& spec);

  /// Parse one `site=trigger[@errno]` clause (the env grammar above) and
  /// arm it. Returns false (arming nothing) on a malformed clause.
  bool arm_from_spec(const std::string& clause);

  /// Parse a full `site=...;site=...` list; returns how many clauses
  /// armed. Malformed clauses are skipped with a stderr diagnostic.
  std::size_t arm_from_list(const std::string& list);

  void disarm(const std::string& site);
  void disarm_all();

  /// Evaluate `site`: 0 = proceed normally; nonzero = simulate failure
  /// with this errno (the armed errno, else `default_error`, else -1 so
  /// a firing site is never mistaken for "proceed"). Counts the
  /// evaluation, and the hit when it fires.
  int should_fail(const char* site, int default_error);

  /// Times `site` has fired (0 when never armed).
  std::uint64_t hits(const std::string& site) const;
  /// Times `site` has been evaluated while armed.
  std::uint64_t evaluations(const std::string& site) const;
  /// Fired injections across every site — the STATS `injected_faults=`
  /// telemetry.
  std::uint64_t total_hits() const noexcept;

  /// Sites currently armed (diagnostics / tests).
  std::vector<std::string> armed_sites() const;

  /// Reseed the probabilistic trigger PRNG (tests; also read from
  /// FLIT_FAILPOINTS_SEED at construction).
  void reseed(std::uint64_t seed);

 private:
  Failpoints();
  struct Impl;
  Impl* impl_;  // immortal, like the registry itself
};

/// The site hook: 0 = proceed, nonzero = simulate a failure with this
/// errno. Compiles to a constant 0 (dead site name and all) in
/// non-FLIT_CHECKED builds — the zero-cost contract the disabled-build
/// acceptance bar depends on.
inline int fp_inject([[maybe_unused]] const char* site,
                     [[maybe_unused]] int default_error = 0) {
#if defined(FLIT_CHECKED)
  return Failpoints::instance().should_fail(site, default_error);
#else
  return 0;
#endif
}

/// Process-wide injected-fault count for telemetry: 0 in disabled builds.
inline std::uint64_t fp_total_injected() {
#if defined(FLIT_CHECKED)
  return Failpoints::instance().total_hits();
#else
  return 0;
#endif
}

}  // namespace flit::core
