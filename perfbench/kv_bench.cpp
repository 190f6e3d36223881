// kv_bench.cpp — the in-process workloads and the recovery probe.
//
//   perfbench_kv run --workload=kv-a|scan-e --image=PATH --keys=N
//       --seed=S --seconds=F --warmup=F --setups=K --trace=0|1
//       --sample-out=PATH [--trace-out=PREFIX] [--pwb-ns=90]
//   perfbench_kv recover --layout=hashed|ordered --image=PATH --keys=N
//       --sample=PATH [--clean-too] [--pwb-ns=90]
//
// `run` creates the store image K times (each a fresh file-backed store
// loaded with N keys; the last one is kept), warms up, then runs the
// timed phase on two threads calling the scalar kv API. It prints one JSON
// line and exits WITHOUT closing the store, so the image is left dirty
// for `recover`, which times Store::open (the recovery sweep runs),
// checks size() and a seeded sample of keys byte for byte, and with
// --clean-too also times a close() + open() of the now-clean image.
//
// Workloads (100 B values, zipfian theta 0.99 over the loaded keys):
//   kv-a    YCSB A on the hashed store: 50% get / 50% update. Thread t
//           updates only keys k with k % 2 == t, so it knows each of its
//           keys' exact version and checks it on every get of them.
//   scan-e  YCSB E on the ordered store: 95% scans of 1-100 keys from a
//           zipfian start, 5% inserts of fresh keys above the loaded
//           range. Loaded keys are 0..N-1 with no gaps, so a scan must
//           return exactly start, start+1, ... while inside that range.
//
// With --trace=1 the timed phase alternates untraced and traced
// segments; traced calls record a span (duration and the calling
// thread's pwb/pfence deltas) into per-call aggregates, and every 16th
// into the span file written at exit.
#include <atomic>
#include <fstream>
#include <optional>
#include <thread>

#include "bench_util/workload.hpp"
#include "bench_util/ycsb.hpp"
#include "common.hpp"
#include "core/modes.hpp"
#include "kv/store.hpp"
#include "pmem/backend.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace {

using namespace flit;
using namespace perfbench;
using bench::Rng;
using bench::Zipfian;

using HashedKV = kv::Store<HashedWords, NVTraverse>;
using OrderedKV = kv::OrderedStore<HashedWords, NVTraverse>;

constexpr unsigned kThreads = 2;
constexpr std::uint32_t kShards = 8;
constexpr std::size_t kImageBytes = std::size_t{1} << 30;  // sparse
constexpr std::uint64_t kSpanEvery = 16;  // traced calls per kept span
constexpr std::size_t kSampleKeys = 2000;

void init_backend(const Flags& f) {
  pmem::set_backend(pmem::Backend::kSimLatency);
  pmem::set_sim_latency(
      static_cast<std::uint32_t>(f.u64("pwb-ns", kPwbNs)), kPfenceNs);
}

template <class KV>
KV open_store(const std::string& image, std::uint64_t keys) {
  const auto range_hi = static_cast<std::int64_t>(keys + keys / 8);
  return KV::open(image, kImageBytes, kShards,
                  std::max<std::size_t>(keys / kShards, 64),
                  kv::KeyRange{0, range_hi});
}

/// Close a store and point the global pool back at anonymous memory
/// (close() leaves it targeting the unmapped region).
template <class KV>
void close_store(KV& store) {
  store.close();
  pmem::Pool::instance().reinit(std::size_t{64} << 20);
}

// --- run -------------------------------------------------------------------

enum CallKind : int { kGet = 0, kPut = 1, kScan = 2 };

struct Shared {
  explicit Shared(const Windows& w) : win(w) {}
  const Windows& win;
  std::atomic<std::int64_t> next_insert{0};
  std::uint64_t timed_span = 0;  // parent id of the timed calls' spans
};

struct Worker {
  int id = 0;
  std::vector<Recorder> lat;  // op latency per timed window
  std::uint64_t timed_ops = 0;
  std::uint64_t attempted = 0, failed = 0;
  CallStats calls[3];         // traced segments only
  pmem::StatsSnapshot timed_counts;  // this thread's delta over the phase
  std::uint64_t traced_calls = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> version;  // owned keys: k / kThreads
};

struct RunConfig {
  bool scan_e = false;
  std::uint64_t keys = 0, seed = 0;
};

template <class KV>
void worker_loop(KV& store, const RunConfig& cfg, const Zipfian& zipf,
                 Shared& sh, Worker& w) {
  pin_to_cpu(static_cast<unsigned>(w.id));
  Rng rng(stream_seed(cfg.seed, w.id));
  const auto T = static_cast<Key>(kThreads);
  const auto N = static_cast<Key>(cfg.keys);
  std::string buf;
  std::vector<std::pair<Key, std::string>> scan_out;
  const std::uint32_t span_name[3] = {Tracer::id("kv.get"),
                                      Tracer::id("kv.put"),
                                      Tracer::id("kv.scan")};
  bool in_timed = false;
  pmem::StatsSnapshot timed_start;

  for (;;) {
    const int win = sh.win.now();
    if (win >= sh.win.count()) break;
    if (win >= 0 && !in_timed) {
      in_timed = true;
      timed_start = thread_counts();
    }
    const bool traced = in_timed && sh.win.traced(win);

    // Pick the op and its key before the clock starts.
    CallKind kind;
    Key k;
    std::size_t scan_len = 0;
    std::optional<std::uint64_t> expect;
    const double r = rng.next_unit();
    if (!cfg.scan_e) {
      k = static_cast<Key>(zipf.next_scrambled(rng));
      if (r < 0.5) {
        kind = kGet;
        if (k % T == w.id) expect = w.version[static_cast<std::size_t>(k / T)];
      } else {
        kind = kPut;
        k = k - k % T + w.id;
        if (k >= N) k -= T;
        auto& ver = w.version[static_cast<std::size_t>(k / T)];
        fill_value(buf, k, ++ver);
      }
    } else if (r < 0.95) {
      kind = kScan;
      k = static_cast<Key>(zipf.next_scrambled(rng));
      scan_len = static_cast<std::size_t>(1 + rng.next() % 100);
    } else {
      kind = kPut;
      k = sh.next_insert.fetch_add(1, std::memory_order_relaxed);
      fill_value(buf, k, 0);
    }

    pmem::StatsSnapshot c0;
    if (traced) c0 = thread_counts();
    bool ok = true;
    std::size_t items = 1;
    std::uint64_t t1 = 0;
    const std::uint64_t t0 = now_ns();
    switch (kind) {
      case kGet: {
        const std::optional<std::string> v = store.get(k);
        t1 = now_ns();
        ok = v.has_value() && value_ok(k, *v, expect);
        break;
      }
      case kPut:
        // Updates overwrite a loaded key; inserts add a fresh one.
        ok = store.put(k, buf) == cfg.scan_e;
        t1 = now_ns();
        break;
      case kScan:
        if constexpr (KV::kOrdered) {
          store.scan(k, scan_len, scan_out);
          t1 = now_ns();
          items = scan_out.size();
          // Loaded keys are exactly 0..N-1 and are never removed, so the
          // result must be contiguous while inside that range and then
          // ascend through the inserted keys.
          ok = items <= scan_len &&
               items >= std::min<std::size_t>(
                            scan_len, static_cast<std::size_t>(N - k));
          Key prev = k - 1;
          for (const auto& [sk, sv] : scan_out) {
            const bool order = sk < N ? sk == prev + 1 : sk > prev;
            if (!order || !value_ok(sk, sv, std::uint64_t{0})) ok = false;
            prev = sk;
          }
        }
        break;
    }
    ++w.attempted;
    if (!ok) ++w.failed;
    if (in_timed) {
      ++w.timed_ops;
      w.lat[static_cast<std::size_t>(win)].record(t1 - t0);
    }
    if (traced) {
      const pmem::StatsSnapshot d = thread_counts() - c0;
      CallStats& cs = w.calls[kind];
      cs.lat.record(t1 - t0);
      cs.pwbs += d.pwbs;
      cs.pfences += d.pfences;
      cs.items += items;
      if (++w.traced_calls % kSpanEvery == 0) {
        w.spans.push_back({span_name[kind], static_cast<std::uint32_t>(w.id),
                           t0, t1, 0, sh.timed_span, d.pwbs, d.pfences});
      }
    }
  }
  if (in_timed) w.timed_counts = thread_counts() - timed_start;
}

/// Load keys [lo, hi) in ascending order; returns failures.
template <class KV>
std::uint64_t load_range(KV& store, Key lo, Key hi) {
  std::string buf;
  std::uint64_t failed = 0;
  for (Key k = lo; k < hi; ++k) {
    fill_value(buf, k, 0);
    if (!store.put(k, buf)) ++failed;  // every loaded key is fresh
  }
  return failed;
}

template <class KV>
int run(const Flags& f) {
  RunConfig cfg;
  const std::string workload = f.need("workload");
  cfg.scan_e = workload == "scan-e";
  cfg.keys = f.u64("keys", 1'000'000);
  cfg.seed = f.u64("seed", 1);
  const bool trace = f.u64("trace", 0) != 0;
  const std::string image = f.need("image");
  const double seconds = f.f64("seconds", 10);
  const double warmup = f.f64("warmup", 2);
  const int setups = static_cast<int>(f.u64("setups", 3));
  const double pwb_ns = static_cast<double>(f.u64("pwb-ns", kPwbNs));
  const Zipfian zipf(cfg.keys, 0.99);

  Tracer tr;

  // Set-up: a fresh image loaded with N keys, K times; keep the last.
  std::vector<double> setup_s;
  std::optional<KV> store;
  std::uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < setups; ++i) {
    if (store) {
      const std::uint64_t close_span = tr.open("kv.close");
      close_store(*store);
      tr.close(close_span);
      store.reset();
    }
    if (::truncate(image.c_str(), 0) != 0) {
      throw std::runtime_error("truncate " + image);
    }
    const std::uint64_t setup_span = tr.open("phase.setup");
    const std::uint64_t t0 = now_ns();
    const std::uint64_t open_span = tr.open("kv.open", setup_span);
    store.emplace(open_store<KV>(image, cfg.keys));
    tr.close(open_span);
    ThreadGroup loaders;
    std::vector<std::uint64_t> load_failed(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
      loaders.spawn([&, t] {
        const auto lo = static_cast<Key>(cfg.keys * t / kThreads);
        const auto hi = static_cast<Key>(cfg.keys * (t + 1) / kThreads);
        load_failed[t] = load_range(*store, lo, hi);
      });
    }
    loaders.join();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    tr.close(setup_span);
    attempted += cfg.keys;
    for (const std::uint64_t n : load_failed) failed += n;
  }

  Windows win(seconds, trace);
  Shared sh(win);
  sh.next_insert.store(static_cast<Key>(cfg.keys));
  std::vector<Worker> workers(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers[t].id = static_cast<int>(t);
    workers[t].lat.resize(static_cast<std::size_t>(win.count()));
    workers[t].version.assign(cfg.keys / kThreads + 1, 0);
  }
  ThreadGroup threads;
  const std::uint64_t warm_span = tr.open("phase.warmup");
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.spawn([&, t] { worker_loop(*store, cfg, zipf, sh, workers[t]); });
  }
  pin_to_cpu(kThreads);  // the 1 ms ticks below stay off the workers' CPUs
  // Timed phase; the EBR backlog is sampled every millisecond.
  std::size_t bump0 = 0, limbo_peak = 0;
  std::uint64_t epoch0 = 0;
  try {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    bump0 = pmem::Pool::instance().bump_used();
    epoch0 = recl::Ebr::instance().epoch();
    tr.close(warm_span);
    sh.timed_span = tr.open("phase.timed");
    win.run([&] {
      limbo_peak = std::max(limbo_peak, recl::Ebr::instance().limbo_size());
    });
  } catch (...) {
    win.stop();  // let the workers finish so the group can join
    throw;
  }
  threads.join();
  tr.close(sh.timed_span);
  const double timed_s = win.total_seconds();
  const std::size_t bump1 = pmem::Pool::instance().bump_used();
  const std::uint64_t epoch1 = recl::Ebr::instance().epoch();

  std::vector<const std::vector<Recorder>*> lats;
  std::uint64_t timed_ops = 0;
  CallStats calls[3];
  pmem::StatsSnapshot counts;
  for (const Worker& w : workers) {
    lats.push_back(&w.lat);
    timed_ops += w.timed_ops;
    for (int c = 0; c < 3; ++c) calls[c].merge(w.calls[c]);
    counts += w.timed_counts;
    attempted += w.attempted;
    failed += w.failed;
  }
  const WindowSummary sum(win, lats);

  // Quiescent checks: size() against the generator's own count.
  const std::uint64_t inserted =
      static_cast<std::uint64_t>(sh.next_insert.load()) - cfg.keys;
  const std::uint64_t live = cfg.keys + inserted;
  ++attempted;
  if (store->size() != live) ++failed;

  // A seeded sample of keys with their expected versions, for recover.
  {
    std::ofstream out(f.need("sample-out"));
    Rng rng(cfg.seed ^ 0x5A5A5A5Aull);
    for (std::size_t i = 0; i < kSampleKeys; ++i) {
      const auto k = static_cast<Key>(rng.next_below(live));
      std::uint64_t ver = 0;
      if (!cfg.scan_e) {
        const Worker& owner = workers[static_cast<std::size_t>(k) % kThreads];
        ver = owner.version[static_cast<std::size_t>(k) / kThreads];
      }
      out << k << ' ' << ver << '\n';
    }
  }

  JsonLine j;
  j.u64("attempted", attempted);
  j.u64("failed", failed);
  j.u64("live_keys", live);
  std::string samples = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char b[40];
    std::snprintf(b, sizeof(b), "%s%.9f", i ? ", " : "", setup_s[i]);
    samples += b;
  }
  j.raw("setup_s", samples + "]");
  j.num("throughput_ops", sum.rate);
  j.num("p50_us", sum.p50_us);
  j.num("p99_us", sum.p99_us);
  j.num("pwbs_per_op", static_cast<double>(counts.pwbs) / timed_ops);
  j.num("pfences_per_op", static_cast<double>(counts.pfences) / timed_ops);
  j.num("peak_rss_mb", peak_rss_mb(std::to_string(::getpid())));
  if (trace) {
    j.num("trace.overhead", sum.traced_rate / sum.rate - 1.0);
    const char* names[3] = {"get", "put", "scan"};
    for (int c = 0; c < 3; ++c) {
      const CallStats& cs = calls[c];
      const std::string p = std::string("kv.") + names[c];
      j.num(p + ".p50_us", cs.lat.quantile_ns(0.50) / 1e3);
      j.num(p + ".p99_us", cs.lat.quantile_ns(0.99) / 1e3);
      j.num(p + ".self_us", cs.self_us(pwb_ns, kPfenceNs));
      const std::string q = std::string("pmem.") + names[c];
      j.num(q + ".pwbs", cs.per_call(cs.pwbs));
      j.num(q + ".pfences", cs.per_call(cs.pfences));
    }
    j.num("kv.scan.keys_per_call", calls[kScan].per_call(calls[kScan].items));
    double span_ns = 0, persist_ns = 0;
    for (const CallStats& cs : calls) {
      span_ns += cs.lat.mean_ns() * static_cast<double>(cs.lat.count());
      persist_ns += static_cast<double>(cs.pwbs) * pwb_ns +
                    static_cast<double>(cs.pfences) * kPfenceNs;
    }
    j.num("pmem.persist_share", span_ns > 0 ? persist_ns / span_ns : 0.0);
    j.num("pmem.empty_pfences_per_op",
          static_cast<double>(counts.empty_pfences) / timed_ops);
    j.num("pmem.pool_bytes_per_op",
          static_cast<double>(bump1 - bump0) / timed_ops);
    j.u64("recl.limbo_peak", limbo_peak);
    j.num("recl.epochs_per_s", static_cast<double>(epoch1 - epoch0) / timed_s);
    const std::string prefix = f.str("trace-out");
    if (!prefix.empty()) {
      std::vector<const std::vector<Span>*> bufs = {&tr.phases()};
      for (const Worker& w : workers) bufs.push_back(&w.spans);
      Tracer::write(prefix + ".spans.csv", bufs);
    }
  }
  j.print();
  // Leave without close(): the image stays dirty, as after a crash.
  std::_Exit(0);
}

// --- recover -----------------------------------------------------------------

template <class KV>
int recover(const Flags& f) {
  const std::string image = f.need("image");
  const std::uint64_t keys = f.u64("keys", 0);
  std::vector<std::pair<Key, std::uint64_t>> sample;
  {
    std::ifstream in(f.need("sample"));
    Key k;
    std::uint64_t ver;
    while (in >> k >> ver) sample.emplace_back(k, ver);
  }

  const std::uint64_t t0 = now_ns();
  KV store = open_store<KV>(image, keys);
  const double open_s = static_cast<double>(now_ns() - t0) / 1e9;

  std::uint64_t attempted = 1, failed = 0;
  if (store.size() != keys) ++failed;
  std::string want;
  for (const auto& [k, ver] : sample) {
    ++attempted;
    fill_value(want, k, ver);
    const std::optional<std::string> got = store.get(k);
    if (!got || *got != want) ++failed;
  }

  JsonLine j;
  j.num("open_s", open_s);
  if (f.u64("clean-too", 0) != 0) {
    close_store(store);
    const std::uint64_t t1 = now_ns();
    KV clean = open_store<KV>(image, keys);
    j.num("open_clean_s", static_cast<double>(now_ns() - t1) / 1e9);
    ++attempted;
    if (clean.size() != keys) ++failed;
    close_store(clean);
  }
  j.u64("attempted", attempted);
  j.u64("failed", failed);
  j.print();
  // Without --clean-too the image stays dirty for the next repetition.
  std::_Exit(0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_kv run|recover --flags...\n");
    return 2;
  }
  try {
    const Flags f(argc, argv, 2);
    init_backend(f);
    const std::string cmd = argv[1];
    if (cmd == "run") {
      return f.need("workload") == "scan-e" ? run<OrderedKV>(f)
                                            : run<HashedKV>(f);
    }
    if (cmd == "recover") {
      return f.need("layout") == "ordered" ? recover<OrderedKV>(f)
                                           : recover<HashedKV>(f);
    }
    std::fprintf(stderr, "perfbench_kv: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_kv: %s\n", e.what());
    return 1;
  }
}
