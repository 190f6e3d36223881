// ycsb.hpp — YCSB-style workloads for the KV store (src/kv/).
//
// The set microbenchmark in workload.hpp reproduces the paper's §6.1
// protocol. The KV subsystem is evaluated the way PPoPP-artifact KV
// systems usually are: the YCSB core workloads (Cooper et al., SoCC'10)
// over a zipfian key popularity distribution.
//
//   A  50% read / 50% update          zipfian
//   B  95% read /  5% update          zipfian
//   C 100% read                       zipfian
//   D  95% read /  5% insert          read-latest (reads skew to the
//                                     newest inserted keys)
//   E  95% scan /  5% insert          zipfian start key, short scans
//                                     (uniform length 1..100)
//   F  50% read / 50% RMW             zipfian (read-modify-write: get,
//                                     bump the payload version, put)
//
// "Update" means put on an existing key; "insert" extends the keyspace;
// "scan" is an ordered range read of up to `max_scan_len` keys starting
// at the picked key — it needs a KV with a scan(start, n, out) member
// (kv::OrderedStore), and run_ycsb rejects mixes with scans on stores
// without one. Keys are scrambled (hashed rank) as in YCSB's
// ScrambledZipfian so the hottest keys are spread across shards and
// buckets instead of clustering at 0..k.
//
// F's read-modify-write hammers put-over-existing-key — the overwrite
// path — and is *verified*: each RMW key is thread-exclusive (the picked
// zipfian key is remapped into the thread's residue class mod nthreads),
// so the writer knows exactly which payload version its read must
// observe. A read that comes back absent, torn, or at any version other
// than the last one written is a lost update (counted in
// YcsbResult::lost_updates) — precisely the failure mode of a
// non-atomic remove+insert overwrite.
//
// With YcsbConfig::batch > 1 the non-scan mixes run through the store's
// multi-op API instead: each worker assembles `batch` picked ops and
// issues one multi_get for the reads and one multi_put for the writes,
// with identical verification (RMW version chains stay exact across
// in-batch duplicate keys — see the batched loop in run_ycsb).
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workload.hpp"
#include "pmem/stats.hpp"
#include "recl/ebr.hpp"

namespace flit::bench {

/// Zipfian rank generator over [0, n) with parameter theta (YCSB default
/// 0.99), after Gray et al.'s rejection-free method as used in YCSB's
/// ZipfianGenerator. Construction is O(n) (the zeta sum); next() is O(1).
class Zipfian {
 public:
  explicit Zipfian(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    if (n == 0 || theta <= 0.0 || theta >= 1.0) {
      // theta == 1 (classic Zipf) needs the harmonic special case this
      // implementation deliberately omits; fail fast instead of handing
      // back inf/NaN ranks.
      throw std::invalid_argument("Zipfian: need n > 0 and 0 < theta < 1");
    }
    zetan_ = zeta(n_, theta_);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  /// zeta(n, theta) = Σ_{i=1..n} i^-theta, memoized for the process
  /// lifetime. Benchmark sweeps construct a fresh generator per phase
  /// over the same (n, theta) pair, and the O(n) std::pow loop was
  /// dominating sweep setup — repeated pairs now hit the cache instead of
  /// rescanning the keyspace. Thread-safe; a racing first computation of
  /// the same pair is benign (both sides produce the same value).
  static double zeta(std::uint64_t n, double theta) {
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>, double> cache;
    const std::pair<std::uint64_t, double> key{n, theta};
    {
      std::lock_guard<std::mutex> lk(mu);
      if (const auto it = cache.find(key); it != cache.end()) {
        return it->second;
      }
    }
    double z = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      z += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    std::lock_guard<std::mutex> lk(mu);
    return cache.emplace(key, z).first->second;
  }

  /// Zipf-distributed rank in [0, n): rank 0 is the most popular.
  std::uint64_t next(Rng& rng) const noexcept {
    const double u = rng.next_unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

  /// ScrambledZipfian: hash the rank so popular keys are spread uniformly
  /// over the keyspace (still in [0, n)).
  std::uint64_t next_scrambled(Rng& rng) const noexcept {
    return scramble(next(rng)) % n_;
  }

  std::uint64_t n() const noexcept { return n_; }

  static std::uint64_t scramble(std::uint64_t x) noexcept {
    // fmix64 (splitmix finalizer) — stationary, cheap, well mixed.
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_, zeta2_;
};

enum class YcsbOp { kRead, kUpdate, kInsert, kScan, kRmw };

/// One YCSB core-workload mix.
struct YcsbMix {
  const char* name;
  double read_frac;    ///< remainder splits update/insert/rmw/scan below
  double update_frac;  ///< put on an existing key
  double insert_frac;  ///< put on a fresh key (extends the keyspace)
  bool read_latest;    ///< D: reads skew towards recently inserted keys
  /// E: remaining fraction is ordered scans (needs an ordered store).
  double scan_frac = 0.0;
  /// Scan lengths are uniform in [1, max_scan_len] (YCSB default 100).
  std::uint64_t max_scan_len = 100;
  /// F: verified read-modify-write on a thread-exclusive key.
  double rmw_frac = 0.0;

  YcsbOp pick(Rng& rng) const noexcept {
    const double r = rng.next_unit();
    if (r < read_frac) return YcsbOp::kRead;
    if (r < read_frac + update_frac) return YcsbOp::kUpdate;
    if (r < read_frac + update_frac + insert_frac) return YcsbOp::kInsert;
    if (r < read_frac + update_frac + insert_frac + rmw_frac) {
      return YcsbOp::kRmw;
    }
    return YcsbOp::kScan;
  }

  static constexpr YcsbMix a() { return {"A", 0.50, 0.50, 0.0, false}; }
  static constexpr YcsbMix b() { return {"B", 0.95, 0.05, 0.0, false}; }
  static constexpr YcsbMix c() { return {"C", 1.00, 0.00, 0.0, false}; }
  static constexpr YcsbMix d() { return {"D", 0.95, 0.00, 0.05, true}; }
  static constexpr YcsbMix e() {
    return {"E", 0.00, 0.00, 0.05, false, 0.95, 100};
  }
  static constexpr YcsbMix f() {
    return {"F", 0.50, 0.00, 0.00, false, 0.0, 100, 0.50};
  }
};

struct YcsbConfig {
  YcsbMix mix = YcsbMix::b();
  int threads = 4;
  std::uint64_t record_count = 10'000;  ///< prefilled keys
  std::size_t value_bytes = 100;        ///< YCSB default: ~100B values
  double zipf_theta = 0.99;
  double duration_s = 1.0;
  std::uint64_t seed = 0x5EEDu;
  /// >1: each worker assembles `batch` picked ops and issues them through
  /// the store's multi-op API — one multi_get for the reads (plain and
  /// RMW), one multi_put for the writes. Scan mixes cannot be batched.
  std::size_t batch = 1;
};

/// Deterministic value payload for key k: an 8-byte key stamp, an 8-byte
/// little-endian version (0 for plain loads/updates; F's read-modify-
/// write bumps it), then filler — so readers can verify what they fetch
/// byte for byte.
inline std::string ycsb_value(std::int64_t k, std::size_t len,
                              std::uint64_t version = 0) {
  std::string v(len, static_cast<char>('a' + (k & 0xF)));
  const auto stamp = static_cast<std::uint64_t>(k);
  for (std::size_t i = 0; i < sizeof(stamp) && i < len; ++i) {
    v[i] = static_cast<char>((stamp >> (8 * i)) & 0xFF);
  }
  for (std::size_t i = 0; i < sizeof(version) && sizeof(stamp) + i < len;
       ++i) {
    v[sizeof(stamp) + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
  }
  return v;
}

/// True if `v` is a plausible ycsb_value for k (checks the key stamp).
inline bool ycsb_value_matches(std::int64_t k, const std::string& v,
                               std::size_t len) {
  if (v.size() != len) return false;
  const auto stamp = static_cast<std::uint64_t>(k);
  for (std::size_t i = 0; i < sizeof(stamp) && i < len; ++i) {
    if (v[i] != static_cast<char>((stamp >> (8 * i)) & 0xFF)) return false;
  }
  return true;
}

struct YcsbResult {
  std::uint64_t total_ops = 0;
  std::uint64_t read_misses = 0;      ///< reads/scans that found nothing
  std::uint64_t value_mismatches = 0; ///< payload/order verification fails
  /// F: RMW reads that observed anything but the thread's last committed
  /// version for that (thread-exclusive) key — a dropped overwrite.
  std::uint64_t lost_updates = 0;
  std::uint64_t scan_entries = 0;     ///< pairs returned across all scans
  double seconds = 0.0;
  pmem::StatsSnapshot persistence;

  double mops() const noexcept {
    return seconds > 0 ? static_cast<double>(total_ops) / seconds / 1e6 : 0;
  }
  double pwbs_per_op() const noexcept {
    return total_ops > 0 ? static_cast<double>(persistence.pwbs) /
                               static_cast<double>(total_ops)
                         : 0;
  }
  double pfences_per_op() const noexcept {
    return total_ops > 0 ? static_cast<double>(persistence.pfences) /
                               static_cast<double>(total_ops)
                         : 0;
  }
  /// Redundancy lint, per op. empty_pfences is counted in every build;
  /// redundant_pwbs stays 0 unless a FLIT_CHECKED build tracks line state.
  double redundant_pwbs_per_op() const noexcept {
    return total_ops > 0 ? static_cast<double>(persistence.redundant_pwbs) /
                               static_cast<double>(total_ops)
                         : 0;
  }
  double empty_pfences_per_op() const noexcept {
    return total_ops > 0 ? static_cast<double>(persistence.empty_pfences) /
                               static_cast<double>(total_ops)
                         : 0;
  }
};

/// Load phase: put keys [0, record_count) with deterministic payloads.
/// `KV` needs put/get/remove over (int64 key, string_view value).
template <class KV>
void ycsb_load(KV& kv, const YcsbConfig& cfg) {
  for (std::uint64_t k = 0; k < cfg.record_count; ++k) {
    kv.put(static_cast<std::int64_t>(k),
           ycsb_value(static_cast<std::int64_t>(k), cfg.value_bytes));
  }
}

/// Timed run phase. Reads verify the fetched payload's key stamp; scans
/// (mix E) additionally verify that returned keys are strictly ascending
/// and start at or after the requested key. The returned counters give
/// the run teeth (a store that loses, cross-wires, or mis-orders records
/// shows up as misses/mismatches, not just as throughput). `zipf` must
/// have been built over cfg.record_count — pass one generator into
/// repeated runs (its construction is O(n)); the two-argument overload
/// below builds it for one-off calls. Throws std::invalid_argument if the
/// mix contains scans but KV has no scan(start, n, out) member.
template <class KV>
YcsbResult run_ycsb(KV& kv, const YcsbConfig& cfg, const Zipfian& zipf) {
  constexpr bool kHasScan = requires(
      const KV& c, std::int64_t k, std::size_t n,
      std::vector<std::pair<std::int64_t, std::string>>& out) {
    { c.scan(k, n, out) } -> std::convertible_to<std::size_t>;
  };
  if (cfg.mix.scan_frac > 0.0 && !kHasScan) {
    throw std::invalid_argument(
        "run_ycsb: a scan mix needs an ordered store (kv::OrderedStore)");
  }
  constexpr bool kHasMulti = requires(
      KV& m, const KV& c, std::span<const std::int64_t> ks,
      std::span<const std::pair<std::int64_t, std::string_view>> ps) {
    { c.multi_get(ks) };
    { m.multi_put(ps) };
  };
  if (cfg.batch > 1) {
    if (cfg.mix.scan_frac > 0.0) {
      throw std::invalid_argument(
          "run_ycsb: scan mixes cannot be batched (use batch = 1 for E)");
    }
    if (!kHasMulti) {
      throw std::invalid_argument(
          "run_ycsb: batch > 1 needs a store with multi_get/multi_put");
    }
  }
  if (cfg.mix.rmw_frac > 0.0 &&
      cfg.record_count < static_cast<std::uint64_t>(cfg.threads)) {
    // RMW keys are striped by thread residue class; every thread needs at
    // least one key of its own or the remap below would leave the
    // prefilled keyspace.
    throw std::invalid_argument(
        "run_ycsb: an RMW mix needs record_count >= threads");
  }
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  // D/E's insert frontier: the next fresh key (shared across threads).
  std::atomic<std::uint64_t> frontier{cfg.record_count};

  struct PerThread {
    std::uint64_t ops = 0, misses = 0, mismatches = 0, lost = 0,
                  scanned = 0;
  };
  std::vector<PerThread> per_thread(static_cast<std::size_t>(cfg.threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.threads));

  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(cfg.seed + 0x9000ull * static_cast<std::uint64_t>(t + 1));
      PerThread local;
      std::vector<std::pair<std::int64_t, std::string>> scan_buf;
      // F: this thread's last committed version per owned key (key kk is
      // owned by thread kk % threads and indexed by kk / threads).
      const auto nthreads = static_cast<std::uint64_t>(cfg.threads);
      std::vector<std::uint64_t> rmw_version;
      if (cfg.mix.rmw_frac > 0.0) {
        rmw_version.assign(
            static_cast<std::size_t>(cfg.record_count / nthreads + 1), 0);
      }
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (cfg.batch > 1) {
        if constexpr (kHasMulti) {
          // Batched mode: assemble cfg.batch picked ops, then issue one
          // multi_get for every read (plain and RMW) and one multi_put
          // for every write. Reads of a key the same batch also writes
          // observe the pre-batch value (gets run before puts), which
          // keeps every verification below exact: an RMW key picked
          // multiple times in one batch reads the last *committed*
          // version once per occurrence and writes committed+occurrence
          // versions in order (multi_put applies duplicates in batch
          // order — last value wins).
          std::vector<std::int64_t> get_keys;
          std::vector<std::uint8_t> get_is_rmw;
          std::vector<std::uint64_t> get_expect;  // RMW: pre-batch version
          std::vector<std::size_t> get_veridx;    // RMW: rmw_version index
          std::vector<std::pair<std::int64_t, std::string>> put_store;
          std::vector<std::pair<std::int64_t, std::string_view>> put_view;
          while (!stop.load(std::memory_order_relaxed)) {
            get_keys.clear();
            get_is_rmw.clear();
            get_expect.clear();
            get_veridx.clear();
            put_store.clear();
            for (std::size_t b = 0; b < cfg.batch; ++b) {
              std::int64_t k;
              switch (cfg.mix.pick(rng)) {
                case YcsbOp::kRead: {
                  if (cfg.mix.read_latest) {
                    const std::uint64_t hi =
                        frontier.load(std::memory_order_relaxed);
                    const std::uint64_t back = zipf.next(rng) % hi;
                    k = static_cast<std::int64_t>(hi - 1 - back);
                  } else {
                    k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
                  }
                  get_keys.push_back(k);
                  get_is_rmw.push_back(0);
                  get_expect.push_back(0);
                  get_veridx.push_back(0);
                  break;
                }
                case YcsbOp::kUpdate:
                  k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
                  put_store.emplace_back(k, ycsb_value(k, cfg.value_bytes));
                  break;
                case YcsbOp::kInsert:
                  k = static_cast<std::int64_t>(
                      frontier.fetch_add(1, std::memory_order_relaxed));
                  put_store.emplace_back(k, ycsb_value(k, cfg.value_bytes));
                  break;
                case YcsbOp::kRmw: {
                  const std::uint64_t r0 = zipf.next_scrambled(rng);
                  std::uint64_t kk =
                      r0 - r0 % nthreads + static_cast<std::uint64_t>(t);
                  if (kk >= cfg.record_count) kk -= nthreads;
                  k = static_cast<std::int64_t>(kk);
                  const std::size_t idx =
                      static_cast<std::size_t>(kk / nthreads);
                  // rmw_version is only advanced after the batch commits,
                  // so it is the pre-batch version every in-batch read of
                  // this key must observe; prior occurrences in this
                  // batch bump the version this occurrence writes.
                  const std::uint64_t base = rmw_version[idx];
                  std::uint64_t occ = 0;
                  for (std::size_t j = 0; j < get_veridx.size(); ++j) {
                    if (get_is_rmw[j] && get_veridx[j] == idx) ++occ;
                  }
                  get_keys.push_back(k);
                  get_is_rmw.push_back(1);
                  get_expect.push_back(base);
                  get_veridx.push_back(idx);
                  put_store.emplace_back(
                      k, ycsb_value(k, cfg.value_bytes, base + occ + 1));
                  break;
                }
                case YcsbOp::kScan:
                  break;  // rejected above; unreachable
              }
            }
            if (!get_keys.empty()) {
              const auto res = kv.multi_get(get_keys);
              for (std::size_t j = 0; j < get_keys.size(); ++j) {
                const std::int64_t gk = get_keys[j];
                if (!res[j]) {
                  ++local.misses;
                  if (get_is_rmw[j]) ++local.lost;
                } else if (!ycsb_value_matches(gk, *res[j],
                                               cfg.value_bytes)) {
                  ++local.mismatches;
                } else if (get_is_rmw[j] &&
                           *res[j] != ycsb_value(gk, cfg.value_bytes,
                                                 get_expect[j])) {
                  ++local.lost;
                }
              }
            }
            if (!put_store.empty()) {
              put_view.clear();
              for (const auto& [pk, pv] : put_store) {
                put_view.emplace_back(pk, std::string_view(pv));
              }
              kv.multi_put(put_view);
              for (std::size_t j = 0; j < get_veridx.size(); ++j) {
                if (get_is_rmw[j]) ++rmw_version[get_veridx[j]];
              }
            }
            local.ops += cfg.batch;
          }
          per_thread[static_cast<std::size_t>(t)] = local;
          return;
        }
      }
      while (!stop.load(std::memory_order_relaxed)) {
        std::int64_t k;
        switch (cfg.mix.pick(rng)) {
          case YcsbOp::kRead: {
            if (cfg.mix.read_latest) {
              // Skew towards the newest keys: newest minus a zipf offset.
              const std::uint64_t hi =
                  frontier.load(std::memory_order_relaxed);
              const std::uint64_t back = zipf.next(rng) % hi;
              k = static_cast<std::int64_t>(hi - 1 - back);
            } else {
              k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
            }
            const auto v = kv.get(k);
            if (!v) {
              ++local.misses;
            } else if (!ycsb_value_matches(k, *v, cfg.value_bytes)) {
              ++local.mismatches;
            }
            break;
          }
          case YcsbOp::kUpdate:
            k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
            kv.put(k, ycsb_value(k, cfg.value_bytes));
            break;
          case YcsbOp::kInsert:
            k = static_cast<std::int64_t>(
                frontier.fetch_add(1, std::memory_order_relaxed));
            kv.put(k, ycsb_value(k, cfg.value_bytes));
            break;
          case YcsbOp::kRmw: {
            // Read-modify-write on a thread-exclusive key: remap the
            // zipfian pick into this thread's residue class so the version
            // chain per key is sequential and any lost update is exactly
            // detectable (popularity skew per class is preserved).
            const std::uint64_t r0 = zipf.next_scrambled(rng);
            std::uint64_t kk =
                r0 - r0 % nthreads + static_cast<std::uint64_t>(t);
            if (kk >= cfg.record_count) kk -= nthreads;
            k = static_cast<std::int64_t>(kk);
            const std::size_t idx = static_cast<std::size_t>(kk / nthreads);
            const std::uint64_t expect = rmw_version[idx];
            const auto v = kv.get(k);
            if (!v) {
              ++local.misses;
              ++local.lost;  // prefilled + never removed: absent = lost
            } else if (!ycsb_value_matches(k, *v, cfg.value_bytes)) {
              ++local.mismatches;
            } else if (*v != ycsb_value(k, cfg.value_bytes, expect)) {
              ++local.lost;  // stale/phantom version: a dropped overwrite
            }
            kv.put(k, ycsb_value(k, cfg.value_bytes, expect + 1));
            rmw_version[idx] = expect + 1;
            break;
          }
          case YcsbOp::kScan:
            if constexpr (kHasScan) {
              k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
              const std::size_t len = static_cast<std::size_t>(
                  1 + rng.next() % cfg.mix.max_scan_len);
              const std::size_t got = kv.scan(k, len, scan_buf);
              // The prefilled keyspace is never shrunk by this mix, so a
              // scan starting at an in-range key must return something.
              if (got == 0) ++local.misses;
              std::int64_t prev = std::numeric_limits<std::int64_t>::min();
              for (const auto& [sk, sv] : scan_buf) {
                if (sk < k || sk <= prev ||
                    !ycsb_value_matches(sk, sv, cfg.value_bytes)) {
                  ++local.mismatches;
                }
                prev = sk;
              }
              local.scanned += got;
            }
            break;
        }
        ++local.ops;
      }
      per_thread[static_cast<std::size_t>(t)] = local;
    });
  }

  const pmem::StatsSnapshot before = pmem::stats_snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.duration_s));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();

  YcsbResult r;
  for (const PerThread& p : per_thread) {
    r.total_ops += p.ops;
    r.read_misses += p.misses;
    r.value_mismatches += p.mismatches;
    r.lost_updates += p.lost;
    r.scan_entries += p.scanned;
  }
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.persistence = pmem::stats_snapshot() - before;
  recl::Ebr::instance().drain_all();
  return r;
}

template <class KV>
YcsbResult run_ycsb(KV& kv, const YcsbConfig& cfg) {
  const Zipfian zipf(cfg.record_count, cfg.zipf_theta);
  return run_ycsb(kv, cfg, zipf);
}

}  // namespace flit::bench
