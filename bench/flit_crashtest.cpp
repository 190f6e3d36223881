// flit-crashtest — whole-process crash harness for the durable KV store.
//
// The persistency tests under tests/ simulate crashes by discarding
// volatile state inside one process. This harness kills a REAL process
// (SIGKILL, no cleanup, no destructors) at a randomized point in a mixed
// workload against a file-backed store, reopens the image in a fresh
// process, and checks the durability contract end to end:
//
//   * every ACKNOWLEDGED write is present with its exact payload,
//   * every in-flight write is old-complete, new-complete or absent —
//     never torn, and never with collateral damage to other keys,
//   * on the ordered layout, scan() agrees with point lookups and is
//     strictly ascending.
//
// Ack protocol (child -> parent over a pipe; every line < PIPE_BUF so
// writes are atomic even from multiple worker threads):
//
//   I <tid> <seq> P <key> <vseq>   op issued: put of make_value(key,vseq)
//   I <tid> <seq> R <key>          op issued: remove
//   D <tid> <seq>                  ops <= seq applied (pre-durability)
//   A <tid> <seq>                  ops <= seq DURABLE (the ack line)
//
// A-lines are emitted from the store's checkpoint post-hook using a
// pre-hook snapshot of each thread's completed sequence number, so an
// ack never races ahead of the msync that covers the op:
//   - always:   every write calls note_write_commit() -> checkpoint,
//   - everysec: the store's flusher thread checkpoints on its interval,
//   - never:    the harness runs its own checkpoint() ticker (explicit
//               sync points), acks ride on those.
//
// Verification floor per thread = max(last D, last A): SIGKILL does not
// clear the page cache, so applied-but-not-yet-synced ops also survive —
// the harness verifies the ACK ACCOUNTING and crash atomicity, not media
// loss (that needs a power-fail rig; see docs/EXPERIMENTS.md).
//
// The verifier runs via fork+exec of /proc/self/exe (--verify): a fresh
// address space gets fresh ASLR, so the region's recorded base is almost
// always free; exit code 4 reports the rare remap collision and the
// parent re-execs.
//
// Network mode (--mode=net) drives the same check through flit_server
// --durability=always: pipelined SET/DEL over real sockets, each reply
// is the ack (the server checkpoints before flushing replies), SIGKILL
// lands on the server mid-load.
//
// Seeded-bug validation: arming the `bug.unsafe_ack` failpoint site
// (FLIT_FAILPOINTS=bug.unsafe_ack=once) makes the workload child
// acknowledge ops BEFORE applying them (a deliberate ack-before-durable
// bug behind a deferred-apply queue). The site is read from the
// failpoint registry, which every build compiles, and evaluated once per
// run. --expect-violation inverts the exit status; CI asserts the
// harness catches the planted bug.
//
// Exhaustion sweep (--inject): the store gets a deliberately tiny
// capacity so the workload drives it into OutOfSpace mid-run, and the
// SIGKILL lands on a store operating at the brim. Failed mutations emit
// an F-line (`F <tid> <lo> <hi>`) excluding those seqs from the ack
// floor — a refused op promised nothing — while the workload keeps
// going: removes recycle space and later puts land in it, so the kill
// samples the full degrade/recycle cycle, and recovery of the
// nearly-full image is verified like any other iteration. The kill is
// refusal-triggered: the parent SIGKILLs a randomized --kill-min/max-ms
// after the *first observed refusal* (not after a fixed wall-clock
// point), so the brim is reached on loaded CI machines and fast
// workstations alike; a 10 s fallback caps a workload that never
// exhausts, and the run fails if no iteration ever hit OutOfSpace
// (capacity too generous to test anything).
//
//   ./flit_crashtest --iters=12 --layout=ordered --durability=always
//   ./flit_crashtest --mode=net --layout=hashed --iters=6
//   ./flit_crashtest --inject --iters=8
//   FLIT_FAILPOINTS=bug.unsafe_ack=once ./flit_crashtest --expect-violation
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "core/modes.hpp"
#include "kv/store.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "pmem/backend.hpp"
#include "pmem/file_region.hpp"
#include "pmem/pool.hpp"

namespace {

using namespace flit;
using Key = std::int64_t;

using HashedStore = kv::Store<HashedWords, NVTraverse>;
using OrderedStore = kv::OrderedStore<HashedWords, NVTraverse>;

constexpr int kMaxThreads = 8;

// ---------------------------------------------------------------- options

struct Options {
  std::string mode = "api";       // api | net
  std::string layout = "hashed";  // hashed | ordered
  kv::DurabilityMode durability = kv::DurabilityMode::kAlways;
  int iters = 12;
  int threads = 2;  // api-mode worker threads / net-mode connections
  int pipeline = 8;
  std::uint64_t keys = 2048;
  int shards = 8;
  std::size_t capacity_mb = 96;
  int kill_min_ms = 15;
  int kill_max_ms = 350;
  bool kill_set = false;
  std::uint64_t seed = 0;  // 0: draw from std::random_device
  std::string file;        // default: /tmp/flit_crashtest_<pid>.img
  std::string server;      // default: <dir of argv[0]>/flit_server
  bool expect_violation = false;
  bool verbose = false;
  bool inject = false;        // exhaustion sweep (see file comment)
  bool capacity_set = false;  // --capacity-mb given explicitly
  bool unsafe_ack = false;    // bug.unsafe_ack fired for this run

  // --verify mode (internal; the harness exec's itself with these).
  bool verify = false;
  std::string expect_file;
};

const char* arg_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "flit-crashtest: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = arg_value(a, "--mode")) {
      o.mode = v;
    } else if (const char* v = arg_value(a, "--layout")) {
      o.layout = v;
    } else if (const char* v = arg_value(a, "--durability")) {
      const auto m = kv::parse_durability_mode(v);
      if (!m) usage_error("--durability must be never, everysec or always");
      o.durability = *m;
    } else if (const char* v = arg_value(a, "--iters")) {
      o.iters = std::atoi(v);
    } else if (const char* v = arg_value(a, "--threads")) {
      o.threads = std::atoi(v);
    } else if (const char* v = arg_value(a, "--pipeline")) {
      o.pipeline = std::atoi(v);
    } else if (const char* v = arg_value(a, "--keys")) {
      o.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--shards")) {
      o.shards = std::atoi(v);
    } else if (const char* v = arg_value(a, "--capacity-mb")) {
      o.capacity_mb = std::strtoull(v, nullptr, 10);
      o.capacity_set = true;
    } else if (const char* v = arg_value(a, "--kill-min-ms")) {
      o.kill_min_ms = std::atoi(v);
      o.kill_set = true;
    } else if (const char* v = arg_value(a, "--kill-max-ms")) {
      o.kill_max_ms = std::atoi(v);
      o.kill_set = true;
    } else if (const char* v = arg_value(a, "--seed")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--file")) {
      o.file = v;
    } else if (const char* v = arg_value(a, "--server")) {
      o.server = v;
    } else if (std::strcmp(a, "--inject") == 0) {
      o.inject = true;
    } else if (std::strcmp(a, "--expect-violation") == 0) {
      o.expect_violation = true;
    } else if (std::strcmp(a, "--verbose") == 0) {
      o.verbose = true;
    } else if (std::strcmp(a, "--verify") == 0) {
      o.verify = true;
    } else if (const char* v = arg_value(a, "--expect")) {
      o.expect_file = v;
    } else {
      usage_error(std::string("unknown flag ") + a);
    }
  }
  if (o.mode != "api" && o.mode != "net") {
    usage_error("--mode must be api or net");
  }
  if (o.layout != "hashed" && o.layout != "ordered") {
    usage_error("--layout must be hashed or ordered");
  }
  if (o.iters < 1 || o.threads < 1 || o.threads > kMaxThreads ||
      o.pipeline < 1 || o.keys == 0 || o.shards < 1 || o.capacity_mb == 0) {
    usage_error("--iters/--threads/--pipeline/--keys/--shards/--capacity-mb "
                "must be positive (threads <= 8)");
  }
  if (o.kill_min_ms < 1 || o.kill_max_ms < o.kill_min_ms) {
    usage_error("need 1 <= --kill-min-ms <= --kill-max-ms");
  }
  if (o.mode == "net" && o.durability != kv::DurabilityMode::kAlways) {
    // Replies are only durability acks when every batch checkpoints.
    usage_error("--mode=net requires --durability=always");
  }
  if (o.inject) {
    if (o.mode != "api") {
      // Net mode would need the client side to tolerate -ERR OUT_OF_SPACE
      // replies; the server's per-request degradation is covered by
      // net_server_test instead.
      usage_error("--inject requires --mode=api");
    }
    // Small enough that the put/remove mix exhausts it inside the kill
    // window; a share of overwrites leak (values past the recycled size
    // classes are bump-only), so the store wedges at the brim quickly.
    if (!o.capacity_set) o.capacity_mb = 1;
    // The kill window becomes the post-first-refusal delay (see the
    // top-of-file comment): short, so the kill lands near the brim.
    if (!o.kill_set) {
      o.kill_min_ms = 20;
      o.kill_max_ms = 150;
    }
  }
  if (o.file.empty()) {
    o.file = "/tmp/flit_crashtest_" + std::to_string(::getpid()) + ".img";
  }
  return o;
}

std::string sibling_path(const char* argv0, const char* name) {
  std::string s = argv0;
  const auto slash = s.find_last_of('/');
  return slash == std::string::npos ? std::string(name)
                                    : s.substr(0, slash + 1) + name;
}

// ------------------------------------------------------------- test data

/// Deterministic, variable-length payload for (key, vseq). The header
/// names both coordinates and the filler depends on them, so any torn
/// mix of two versions fails the exact-match check.
std::string make_value(Key key, std::uint64_t vseq) {
  std::string v = "k" + std::to_string(key) + ".v" + std::to_string(vseq) +
                  ".";
  const std::size_t len =
      1 + static_cast<std::size_t>(
              (static_cast<std::uint64_t>(key) * 131 + vseq * 257) % 1200);
  const char fill = static_cast<char>(
      'a' + (static_cast<std::uint64_t>(key) + vseq * 31) % 26);
  if (v.size() < len) v.append(len - v.size(), fill);
  return v;
}

// ------------------------------------------------- child-side ack stream

/// Shared fd sink; each send() is one line < PIPE_BUF, so concurrent
/// worker threads interleave whole lines, never bytes.
struct AckPipe {
  int fd = -1;

  void send(const char* buf, std::size_t n) const {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, buf + off, n - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        _exit(7);  // parent hung up: nothing sensible left to report
      }
      off += static_cast<std::size_t>(w);
    }
  }

  void line(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0) send(buf, static_cast<std::size_t>(n));
  }
};

struct ChildShared {
  AckPipe pipe;
  // Highest fully-applied seq per thread (0 = none). Written by workers,
  // snapshotted by the checkpoint pre-hook.
  std::atomic<std::uint64_t> completed[kMaxThreads] = {};
  std::uint64_t snapshot[kMaxThreads] = {};
  std::uint64_t acked[kMaxThreads] = {};
  int threads = 0;
};

/// One issued-but-deferred op, used only by the seeded-bug mode.
struct DeferredOp {
  bool is_put = false;
  Key key = 0;
  std::uint64_t vseq = 0;
  std::uint64_t seq = 0;
};

template <class StoreT>
[[noreturn]] void run_workload_child(const Options& o, std::uint64_t seed,
                                     int write_fd) {
  std::signal(SIGPIPE, SIG_IGN);
  ChildShared sh;
  sh.pipe.fd = write_fd;
  sh.threads = o.threads;

  try {
    pmem::set_backend(pmem::Backend::kSimLatency);
    pmem::set_sim_latency(10, 10);
    const auto per_shard = std::max<std::size_t>(
        o.keys / static_cast<std::size_t>(o.shards), 64);
    const kv::KeyRange range{0, static_cast<Key>(o.keys + o.keys / 8)};
    StoreT store = StoreT::open(o.file, o.capacity_mb << 20,
                                static_cast<std::uint32_t>(o.shards),
                                per_shard, range);

    if (!o.unsafe_ack) {
      // Ack plumbing: pre snapshots what is about to become durable,
      // post (after the msync) turns the snapshot into A-lines. Both run
      // under the store's checkpoint serialization.
      store.set_checkpoint_hooks(
          [&sh] {
            for (int t = 0; t < sh.threads; ++t) {
              sh.snapshot[t] =
                  sh.completed[t].load(std::memory_order_acquire);
            }
          },
          [&sh] {
            for (int t = 0; t < sh.threads; ++t) {
              if (sh.snapshot[t] > sh.acked[t]) {
                sh.acked[t] = sh.snapshot[t];
                sh.pipe.line("A %d %llu\n", t,
                             static_cast<unsigned long long>(sh.acked[t]));
              }
            }
          });
      if (o.durability != kv::DurabilityMode::kNever) {
        store.set_durability_mode(o.durability,
                                  std::chrono::milliseconds(40));
      }
    }

    std::atomic<bool> pool_full{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < o.threads; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + t + 1);
        const std::uint64_t stripe =
            o.keys / static_cast<std::uint64_t>(o.threads);
        auto pick_key = [&]() -> Key {
          return static_cast<Key>(
              t + o.threads * static_cast<int>(rng() % stripe));
        };
        std::map<Key, std::uint64_t> vseq;  // per-key version counter
        std::uint64_t seq = 0;
        std::deque<DeferredOp> lagged;  // seeded-bug queue

        auto apply_put = [&](Key k, std::uint64_t vs) {
          store.put(k, make_value(k, vs));
        };
        auto done = [&](std::uint64_t s) {
          sh.pipe.line("D %d %llu\n", t, static_cast<unsigned long long>(s));
          sh.completed[t].store(s, std::memory_order_release);
          if (!o.unsafe_ack && o.durability == kv::DurabilityMode::kAlways) {
            store.note_write_commit();
          }
        };
        auto drain_one_lagged = [&] {
          const DeferredOp d = lagged.front();
          lagged.pop_front();
          if (d.is_put) {
            apply_put(d.key, d.vseq);
          } else {
            store.remove(d.key);
          }
          sh.pipe.line("D %d %llu\n", t,
                       static_cast<unsigned long long>(d.seq));
        };
        // --inject: a mutation refused by the full pool emits an F-line
        // (those seqs never join the ack floor — a refused op promised
        // nothing; a multi-op may have landed a prefix, so its elements
        // stay "in-flight": any per-key post-state is acceptable) and
        // the workload keeps running at the brim. Without --inject a
        // bad_alloc escapes to the park-for-the-kill handler below.
        auto attempt = [&](std::uint64_t lo, std::uint64_t hi,
                           auto&& fn) -> bool {
          if (!o.inject) {
            fn();
            return true;
          }
          try {
            fn();
            return true;
          } catch (const std::bad_alloc&) {
            sh.pipe.line("F %d %llu %llu\n", t,
                         static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(hi));
            return false;
          }
        };

        try {
          for (;;) {
            const std::uint32_t r = static_cast<std::uint32_t>(rng() % 100);
            if (o.unsafe_ack) {
              // SEEDED BUG: acknowledge at issue time, apply ~16 ops
              // later. A kill inside the window loses acked writes.
              const Key k = pick_key();
              const bool is_put = r < 75;
              const std::uint64_t vs = is_put ? ++vseq[k] : 0;
              ++seq;
              if (is_put) {
                sh.pipe.line("I %d %llu P %lld %llu\n", t,
                             static_cast<unsigned long long>(seq),
                             static_cast<long long>(k),
                             static_cast<unsigned long long>(vs));
              } else {
                sh.pipe.line("I %d %llu R %lld\n", t,
                             static_cast<unsigned long long>(seq),
                             static_cast<long long>(k));
              }
              sh.pipe.line("A %d %llu\n", t,
                           static_cast<unsigned long long>(seq));
              lagged.push_back({is_put, k, vs, seq});
              if (lagged.size() > 16) drain_one_lagged();
              continue;
            }
            if (r < 45) {  // single put
              const Key k = pick_key();
              const std::uint64_t vs = ++vseq[k];
              ++seq;
              sh.pipe.line("I %d %llu P %lld %llu\n", t,
                           static_cast<unsigned long long>(seq),
                           static_cast<long long>(k),
                           static_cast<unsigned long long>(vs));
              if (!attempt(seq, seq, [&] { apply_put(k, vs); })) continue;
              done(seq);
            } else if (r < 62) {  // multi_put, batch of 6
              char buf[6 * 48];
              int n = 0;
              std::vector<std::pair<Key, std::string>> owned;
              owned.reserve(6);
              for (int i = 0; i < 6; ++i) {
                const Key k = pick_key();
                const std::uint64_t vs = ++vseq[k];
                ++seq;
                n += std::snprintf(buf + n, sizeof(buf) - n,
                                   "I %d %llu P %lld %llu\n", t,
                                   static_cast<unsigned long long>(seq),
                                   static_cast<long long>(k),
                                   static_cast<unsigned long long>(vs));
                owned.emplace_back(k, make_value(k, vs));
              }
              sh.pipe.send(buf, static_cast<std::size_t>(n));
              std::vector<std::pair<Key, std::string_view>> kvs;
              kvs.reserve(owned.size());
              for (const auto& [k, v] : owned) kvs.emplace_back(k, v);
              if (!attempt(seq - 5, seq,
                           [&] { store.multi_put(kvs); })) {
                continue;
              }
              done(seq);
            } else if (r < 76) {  // single remove
              const Key k = pick_key();
              ++seq;
              sh.pipe.line("I %d %llu R %lld\n", t,
                           static_cast<unsigned long long>(seq),
                           static_cast<long long>(k));
              if (!attempt(seq, seq, [&] { store.remove(k); })) continue;
              done(seq);
            } else if (r < 84) {  // multi_remove, batch of 4
              char buf[4 * 40];
              int n = 0;
              std::vector<Key> ks;
              for (int i = 0; i < 4; ++i) {
                const Key k = pick_key();
                ++seq;
                n += std::snprintf(buf + n, sizeof(buf) - n,
                                   "I %d %llu R %lld\n", t,
                                   static_cast<unsigned long long>(seq),
                                   static_cast<long long>(k));
                ks.push_back(k);
              }
              sh.pipe.send(buf, static_cast<std::size_t>(n));
              if (!attempt(seq - 3, seq,
                           [&] { store.multi_remove(ks); })) {
                continue;
              }
              done(seq);
            } else if (r < 94) {  // reads keep traversal paths hot
              (void)store.get(pick_key());
            } else {
              std::vector<Key> ks;
              for (int i = 0; i < 6; ++i) ks.push_back(pick_key());
              (void)store.multi_get(ks);
            }
          }
        } catch (const std::bad_alloc&) {
          pool_full.store(true, std::memory_order_release);
          // Stop issuing; keep the process alive for the kill so the
          // parent still sees a SIGKILL exit (full pools are a sizing
          // problem, not a verification failure).
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
      });
    }

    // kNever still needs explicit sync points for acks to ride on.
    if (!o.unsafe_ack && o.durability == kv::DurabilityMode::kNever) {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        store.checkpoint();
      }
    }
    for (auto& w : workers) w.join();  // unreachable: workers run forever
    _exit(0);
  } catch (const std::exception& e) {
    char buf[240];
    const int n =
        std::snprintf(buf, sizeof(buf), "E %.200s\n", e.what());
    sh.pipe.send(buf, static_cast<std::size_t>(n > 0 ? n : 0));
    _exit(3);
  }
}

// ------------------------------------------------------------- verifier

struct ExpectOp {
  bool is_put = false;
  std::uint64_t vseq = 0;
  bool acked = false;
};

struct Expect {
  std::uint64_t keys = 0;
  std::map<Key, std::vector<ExpectOp>> per_key;  // program order per key
  std::size_t acked_total = 0;
};

std::optional<Expect> load_expect(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  Expect e;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == 'U') {
      std::sscanf(line, "U %llu", reinterpret_cast<unsigned long long*>(
                                      &e.keys));
    } else if (line[0] == 'O') {
      char kind = 0;
      long long key = 0;
      unsigned long long vseq = 0;
      int acked = 0;
      if (std::sscanf(line, "O %lld %c %llu %d", &key, &kind, &vseq,
                      &acked) == 4) {
        e.per_key[static_cast<Key>(key)].push_back(
            {kind == 'P', vseq, acked != 0});
        if (acked != 0) ++e.acked_total;
      }
    }
  }
  std::fclose(f);
  return e;
}

/// Post-crash image check. Exit codes: 0 contract holds, 1 violation,
/// 4 could not remap the region (caller re-execs for fresh ASLR).
template <class StoreT>
int verify_image(const Options& o) {
  const auto expect = load_expect(o.expect_file);
  if (!expect) {
    std::fprintf(stderr, "verify: cannot read %s\n", o.expect_file.c_str());
    return 1;
  }

  pmem::set_backend(pmem::Backend::kSimLatency);
  pmem::set_sim_latency(0, 0);
  const auto per_shard = std::max<std::size_t>(
      expect->keys / static_cast<std::size_t>(o.shards), 64);
  const kv::KeyRange range{
      0, static_cast<Key>(expect->keys + expect->keys / 8)};

  std::optional<StoreT> store;
  try {
    store.emplace(StoreT::open(o.file, o.capacity_mb << 20,
                               static_cast<std::uint32_t>(o.shards),
                               per_shard, range));
  } catch (const std::exception& e) {
    if (std::strstr(e.what(), "could not re-map") != nullptr) return 4;
    if (expect->acked_total == 0) {
      // Killed before anything was acknowledged — e.g. mid-creation. A
      // rejected image loses nothing the store ever promised to keep.
      std::printf("verify: open rejected (%s); no acked ops — ok\n",
                  e.what());
      return 0;
    }
    std::fprintf(stderr,
                 "verify: VIOLATION: open() rejected an image holding %zu "
                 "acked ops: %s\n",
                 expect->acked_total, e.what());
    return 1;
  }

  int violations = 0;
  std::size_t present = 0;
  std::map<Key, std::string> probed;  // present keys -> recovered value

  for (Key k = 0; k < static_cast<Key>(expect->keys); ++k) {
    const auto recovered = store->get(k);
    if (recovered) {
      ++present;
      probed.emplace(k, *recovered);
    }
    const auto it = expect->per_key.find(k);
    const std::size_t n = it == expect->per_key.end() ? 0 : it->second.size();

    // Allowed states: the post-state of any op at or after the acked
    // floor; "absent" additionally when no op on this key was acked.
    int floor = -1;
    if (n != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (it->second[i].acked) floor = static_cast<int>(i);
      }
    }
    bool ok = false;
    if (floor == -1 && !recovered) ok = true;
    for (std::size_t i = (floor < 0 ? 0 : static_cast<std::size_t>(floor));
         !ok && i < n; ++i) {
      const ExpectOp& op = it->second[i];
      if (op.is_put) {
        ok = recovered && *recovered == make_value(k, op.vseq);
      } else {
        ok = !recovered;
      }
    }
    if (ok) continue;

    ++violations;
    if (violations == 21) {
      std::fprintf(stderr, "verify: ... further violations suppressed\n");
    }
    if (violations > 20) continue;  // keep counting keys, stop printing
    // Classify: rolled back past the floor, lost, or torn.
    const char* kind = "torn/corrupt value";
    if (!recovered) {
      kind = "acknowledged write lost";
    } else if (n != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const ExpectOp& op = it->second[i];
        if (op.is_put && *recovered == make_value(k, op.vseq)) {
          kind = "acknowledged write rolled back";
          break;
        }
      }
    }
    std::fprintf(stderr,
                 "verify: VIOLATION key=%lld: %s (ops=%zu floor=%d "
                 "recovered=%s)\n",
                 static_cast<long long>(k), kind, n, floor,
                 recovered ? recovered->substr(0, 40).c_str() : "<absent>");
  }

  if (store->size() != present) {
    std::fprintf(stderr,
                 "verify: VIOLATION: size()=%zu but %zu keys probe as "
                 "present\n",
                 store->size(), present);
    ++violations;
  }

  if constexpr (StoreT::kOrdered) {
    // scan() must agree with point lookups: strictly ascending, no key
    // outside the universe, exact values, nothing missing or extra.
    std::map<Key, std::string> scanned;
    Key start = std::numeric_limits<Key>::min();
    bool ascending = true;
    for (;;) {
      const auto chunk = store->scan(start, 512);
      for (const auto& [k, v] : chunk) {
        if (!scanned.empty() && k <= scanned.rbegin()->first) {
          ascending = false;
        }
        scanned.emplace(k, v);
      }
      if (chunk.size() < 512) break;
      start = chunk.back().first + 1;
    }
    if (!ascending) {
      std::fprintf(stderr, "verify: VIOLATION: scan order not ascending\n");
      ++violations;
    }
    if (scanned != probed) {
      std::fprintf(stderr,
                   "verify: VIOLATION: scan() (%zu keys) disagrees with "
                   "point lookups (%zu keys)\n",
                   scanned.size(), probed.size());
      ++violations;
    }
  }

  if (violations == 0) {
    std::printf("verify: ok (%zu keys present, %zu acked ops honored)\n",
                present, expect->acked_total);
  }
  return violations == 0 ? 0 : 1;
}

// ----------------------------------------------------- parent: ack log

struct IterLog {
  // Per thread/connection, ops in seq order (seq = index + 1).
  std::vector<std::vector<ExpectOp>> ops;
  std::vector<std::vector<Key>> op_keys;
  std::vector<std::uint64_t> done_floor;
  std::vector<std::uint64_t> acked_floor;
  // Seqs refused by a full pool (--inject): excluded from the floors —
  // a later D covering their seq range must not promise them durable.
  std::vector<std::set<std::uint64_t>> failed;
  std::size_t failed_total = 0;
  std::string child_error;

  explicit IterLog(int threads)
      : ops(threads), op_keys(threads), done_floor(threads, 0),
        acked_floor(threads, 0), failed(threads) {}

  void parse_line(const char* line) {
    int t = 0;
    unsigned long long seq = 0, vseq = 0;
    long long key = 0;
    if (line[0] == 'I') {
      char kind = 0;
      if (std::sscanf(line, "I %d %llu %c %lld %llu", &t, &seq, &kind, &key,
                      &vseq) >= 4 &&
          t >= 0 && t < static_cast<int>(ops.size())) {
        // Seqs are dense per thread; I-lines arrive in order.
        ops[t].push_back({kind == 'P', vseq, false});
        op_keys[t].push_back(static_cast<Key>(key));
      }
    } else if (line[0] == 'D') {
      if (std::sscanf(line, "D %d %llu", &t, &seq) == 2 && t >= 0 &&
          t < static_cast<int>(ops.size())) {
        done_floor[t] = std::max<std::uint64_t>(done_floor[t], seq);
      }
    } else if (line[0] == 'A') {
      if (std::sscanf(line, "A %d %llu", &t, &seq) == 2 && t >= 0 &&
          t < static_cast<int>(ops.size())) {
        acked_floor[t] = std::max<std::uint64_t>(acked_floor[t], seq);
      }
    } else if (line[0] == 'F') {
      unsigned long long lo = 0, hi = 0;
      if (std::sscanf(line, "F %d %llu %llu", &t, &lo, &hi) == 3 &&
          t >= 0 && t < static_cast<int>(ops.size()) && lo >= 1 &&
          lo <= hi && hi - lo < 64) {
        for (unsigned long long s2 = lo; s2 <= hi; ++s2) {
          failed[t].insert(s2);
        }
        ++failed_total;
      }
    } else if (line[0] == 'E') {
      child_error = line + 2;
    }
  }

  /// Fold floors into per-op acked flags. SIGKILL keeps the page cache,
  /// so applied (D) implies survives-reopen just like acked (A) does.
  void seal() {
    for (std::size_t t = 0; t < ops.size(); ++t) {
      const std::uint64_t floor = std::max(done_floor[t], acked_floor[t]);
      for (std::size_t i = 0; i < ops[t].size() && i < floor; ++i) {
        if (failed[t].count(i + 1) != 0) continue;  // refused, not covered
        ops[t][i].acked = true;
      }
    }
  }

  std::size_t acked_total() const {
    std::size_t n = 0;
    for (const auto& v : ops) {
      for (const auto& op : v) n += op.acked ? 1 : 0;
    }
    return n;
  }

  std::size_t issued_total() const {
    std::size_t n = 0;
    for (const auto& v : ops) n += v.size();
    return n;
  }

  bool write_expect(const std::string& path, std::uint64_t keys) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "U %llu\n", static_cast<unsigned long long>(keys));
    for (std::size_t t = 0; t < ops.size(); ++t) {
      for (std::size_t i = 0; i < ops[t].size(); ++i) {
        const ExpectOp& op = ops[t][i];
        std::fprintf(f, "O %lld %c %llu %d\n",
                     static_cast<long long>(op_keys[t][i]),
                     op.is_put ? 'P' : 'R',
                     static_cast<unsigned long long>(op.vseq),
                     op.acked ? 1 : 0);
      }
    }
    return std::fclose(f) == 0;
  }
};

// ----------------------------------------------------- parent: plumbing

int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return status;
}

/// Read ack lines until `deadline`, then SIGKILL `pid` and drain to EOF.
/// Returns false on a premature child exit (EOF before the kill).
/// `refusal_kill_ms >= 0` re-bases the deadline to that many ms after
/// the first F-line lands (capped by the passed deadline, which then
/// acts as the never-exhausted fallback).
bool drain_pipe(int fd, pid_t pid, std::chrono::steady_clock::time_point
                                        deadline,
                IterLog& log, int refusal_kill_ms = -1) {
  std::string buf;
  char chunk[4096];
  bool killed = false;
  bool premature = false;
  bool refusal_seen = false;
  for (;;) {
    if (refusal_kill_ms >= 0 && !refusal_seen && log.failed_total > 0) {
      refusal_seen = true;
      const auto trigger = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(refusal_kill_ms);
      if (trigger < deadline) deadline = trigger;
    }
    if (!killed) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        ::kill(pid, SIGKILL);
        killed = true;
      } else {
        struct pollfd p = {fd, POLLIN, 0};
        const int ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count());
        const int r = ::poll(&p, 1, std::max(ms, 1));
        if (r == 0) continue;  // timed out: kill on the next pass
        if (r < 0) {
          if (errno == EINTR) continue;
          break;
        }
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      if (!killed) premature = true;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0, nl;
    while ((nl = buf.find('\n', pos)) != std::string::npos) {
      buf[nl] = '\0';
      log.parse_line(buf.c_str() + pos);
      pos = nl + 1;
    }
    buf.erase(0, pos);
  }
  if (!killed) ::kill(pid, SIGKILL);
  return !premature;
}

/// fork+exec ourselves in --verify mode; retries remap collisions (exit
/// 4) with fresh address spaces. Returns 0 pass, 1 violation, -1 error.
int run_verifier(const char* self, const Options& o,
                 const std::string& expect_path) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      const std::string file_arg = "--file=" + o.file;
      const std::string expect_arg = "--expect=" + expect_path;
      const std::string layout_arg = "--layout=" + o.layout;
      const std::string shards_arg = "--shards=" + std::to_string(o.shards);
      const std::string cap_arg =
          "--capacity-mb=" + std::to_string(o.capacity_mb);
      const char* argv[] = {self,
                            "--verify",
                            file_arg.c_str(),
                            expect_arg.c_str(),
                            layout_arg.c_str(),
                            shards_arg.c_str(),
                            cap_arg.c_str(),
                            nullptr};
      ::execv(self, const_cast<char**>(argv));
      _exit(127);
    }
    const int status = wait_child(pid);
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 0) return 0;
      if (code == 1) return 1;
      if (code == 4) continue;  // remap collision: reroll ASLR
      std::fprintf(stderr, "flit-crashtest: verifier exited with %d\n",
                   code);
      return -1;
    }
    std::fprintf(stderr, "flit-crashtest: verifier died (status %d)\n",
                 status);
    return -1;
  }
  std::fprintf(stderr,
               "flit-crashtest: verifier could not remap the region after "
               "6 attempts\n");
  return -1;
}

// ------------------------------------------------------- api-mode iter

/// One kill/reopen/verify round. Returns 0 ok, 1 violation, -1 error.
int run_api_iteration(const char* self, const Options& o,
                      std::uint64_t iter_seed, std::mt19937_64& rng,
                      std::size_t& acked_accum, std::size_t& oos_accum) {
  pmem::FileRegion::destroy(o.file);

  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    if (o.layout == "ordered") {
      run_workload_child<OrderedStore>(o, iter_seed, fds[1]);
    } else {
      run_workload_child<HashedStore>(o, iter_seed, fds[1]);
    }
  }
  ::close(fds[1]);

  const int kill_ms = o.kill_min_ms +
                      static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                   o.kill_max_ms -
                                                   o.kill_min_ms + 1));
  IterLog log(o.threads);
  // Inject mode: kill_ms counts from the first refusal, with a generous
  // fallback so a workload that never exhausts still dies (and then
  // fails the oos_accum check at the end of main).
  const bool killed_running =
      o.inject ? drain_pipe(fds[0], pid,
                            std::chrono::steady_clock::now() +
                                std::chrono::seconds(10),
                            log, kill_ms)
               : drain_pipe(fds[0], pid,
                            std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(kill_ms),
                            log);
  ::close(fds[0]);
  const int status = wait_child(pid);

  if (!log.child_error.empty()) {
    std::fprintf(stderr, "flit-crashtest: workload child failed: %s\n",
                 log.child_error.c_str());
    return -1;
  }
  if (!killed_running || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr,
                 "flit-crashtest: child exited on its own (status %d) — "
                 "expected to die by SIGKILL\n",
                 status);
    return -1;
  }

  log.seal();
  acked_accum += log.acked_total();
  oos_accum += log.failed_total;
  const std::string expect_path = o.file + ".expect";
  if (!log.write_expect(expect_path, o.keys)) return -1;
  if (o.verbose) {
    std::printf(o.inject ? "  kill@brim+%dms issued=%zu acked=%zu oos=%zu\n"
                         : "  kill@%dms issued=%zu acked=%zu oos=%zu\n",
                kill_ms, log.issued_total(), log.acked_total(),
                log.failed_total);
  }
  return run_verifier(self, o, expect_path);
}

// ------------------------------------------------------- net-mode iter

int run_net_iteration(const char* self, const Options& o,
                      std::uint64_t iter_seed, std::mt19937_64& rng,
                      std::size_t& acked_accum) {
  pmem::FileRegion::destroy(o.file);
  net::ignore_sigpipe();

  // Spawn flit_server with its stdout on a pipe; parse the listen line.
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string file_arg = "--file=" + o.file;
    const std::string layout_arg = "--layout=" + o.layout;
    const std::string keys_arg = "--keys=" + std::to_string(o.keys);
    const std::string shards_arg = "--shards=" + std::to_string(o.shards);
    const std::string cap_arg =
        "--capacity-mb=" + std::to_string(o.capacity_mb);
    const char* argv[] = {o.server.c_str(), "--port=0",
                          "--durability=always", "--flush-ms=1000",
                          file_arg.c_str(),     layout_arg.c_str(),
                          keys_arg.c_str(),     shards_arg.c_str(),
                          cap_arg.c_str(),      nullptr};
    ::execv(o.server.c_str(), const_cast<char**>(argv));
    _exit(127);
  }
  ::close(fds[1]);

  std::uint16_t port = 0;
  {
    std::FILE* f = ::fdopen(fds[0], "r");
    char line[512];
    while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned p = 0;
      if (std::sscanf(line, "flit-server: listening on %*[0-9.]:%u", &p) ==
          1) {
        port = static_cast<std::uint16_t>(p);
        break;
      }
    }
    if (f != nullptr) std::fclose(f);  // also closes fds[0]
  }
  if (port == 0) {
    std::fprintf(stderr, "flit-crashtest: flit_server did not come up\n");
    ::kill(pid, SIGKILL);
    wait_child(pid);
    return -1;
  }

  // Pipelined SET/DEL load; a reply received == the op is acked (the
  // server checkpoints each batch before flushing its replies).
  IterLog log(o.threads);
  std::atomic<bool> conn_error{false};
  std::vector<std::thread> conns;
  for (int c = 0; c < o.threads; ++c) {
    conns.emplace_back([&, c] {
      std::mt19937_64 crng(iter_seed * 0xD1B54A32D192ED03ull + c + 1);
      const std::uint64_t stripe =
          o.keys / static_cast<std::uint64_t>(o.threads);
      std::map<Key, std::uint64_t> vseq;
      try {
        net::Client cl = net::Client::connect("127.0.0.1", port);
        std::vector<std::string> key_strs(
            static_cast<std::size_t>(o.pipeline));
        std::vector<std::string> vals(static_cast<std::size_t>(o.pipeline));
        for (;;) {
          const std::size_t first = log.ops[c].size();
          for (int i = 0; i < o.pipeline; ++i) {
            const Key k = static_cast<Key>(
                c + o.threads * static_cast<int>(crng() % stripe));
            key_strs[i] = std::to_string(k);
            if (crng() % 100 < 75) {
              const std::uint64_t vs = ++vseq[k];
              vals[i] = make_value(k, vs);
              cl.enqueue({"SET", key_strs[i], vals[i]});
              log.ops[c].push_back({true, vs, false});
            } else {
              cl.enqueue({"DEL", key_strs[i]});
              log.ops[c].push_back({false, 0, false});
            }
            log.op_keys[c].push_back(k);
          }
          cl.flush();
          for (int i = 0; i < o.pipeline; ++i) {
            const net::Reply r = cl.read_reply();
            if (r.is_error()) throw std::runtime_error("reply: " + r.str);
            log.ops[c][first + static_cast<std::size_t>(i)].acked = true;
          }
        }
      } catch (const std::exception& e) {
        // EOF/EPIPE after the kill is the expected way out; a reply-level
        // error is not.
        if (std::strncmp(e.what(), "reply:", 6) == 0) {
          std::fprintf(stderr, "flit-crashtest: conn %d: %s\n", c,
                       e.what());
          conn_error.store(true, std::memory_order_release);
        }
      }
    });
  }

  const int kill_ms = o.kill_min_ms +
                      static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                   o.kill_max_ms -
                                                   o.kill_min_ms + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(kill_ms));
  ::kill(pid, SIGKILL);
  for (auto& t : conns) t.join();
  wait_child(pid);
  if (conn_error.load(std::memory_order_acquire)) return -1;

  // No seal(): net-mode acks come only from replies, there is no D
  // channel (the server's internal progress is invisible — exactly what
  // a client sees).
  acked_accum += log.acked_total();
  const std::string expect_path = o.file + ".expect";
  if (!log.write_expect(expect_path, o.keys)) return -1;
  if (o.verbose) {
    std::printf("  kill@%dms issued=%zu acked=%zu\n", kill_ms,
                log.issued_total(), log.acked_total());
  }
  return run_verifier(self, o, expect_path);
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);

  if (o.verify) {
    try {
      return o.layout == "ordered" ? verify_image<OrderedStore>(o)
                                   : verify_image<HashedStore>(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "verify: fatal: %s\n", e.what());
      return 1;
    }
  }

  if (o.server.empty()) o.server = sibling_path(argv[0], "flit_server");
  o.unsafe_ack =
      core::Failpoints::instance().should_fail("bug.unsafe_ack", 0) != 0;
  if (o.seed == 0) {
    o.seed = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
    if (o.seed == 0) o.seed = 1;
  }
  std::mt19937_64 rng(o.seed);

  std::printf(
      "flit-crashtest: mode=%s layout=%s durability=%s iters=%d "
      "threads=%d keys=%llu seed=%llu%s\n",
      o.mode.c_str(), o.layout.c_str(), kv::to_string(o.durability),
      o.iters, o.threads, static_cast<unsigned long long>(o.keys),
      static_cast<unsigned long long>(o.seed),
      o.unsafe_ack ? " [bug.unsafe_ack seeded bug active]" : "");
  std::fflush(stdout);

  int violations = 0;
  int errors = 0;
  std::size_t acked_accum = 0;
  std::size_t oos_accum = 0;
  for (int i = 0; i < o.iters; ++i) {
    const std::uint64_t iter_seed = rng();
    const int r = o.mode == "net"
                      ? run_net_iteration(argv[0], o, iter_seed, rng,
                                          acked_accum)
                      : run_api_iteration(argv[0], o, iter_seed, rng,
                                          acked_accum, oos_accum);
    if (r == 1) {
      ++violations;
      std::fprintf(stderr,
                   "flit-crashtest: iteration %d FAILED (seed=%llu, "
                   "iter_seed=%llu)\n",
                   i, static_cast<unsigned long long>(o.seed),
                   static_cast<unsigned long long>(iter_seed));
      if (!o.expect_violation) break;  // keep the image for a post-mortem
    } else if (r < 0) {
      ++errors;
      std::fprintf(stderr,
                   "flit-crashtest: iteration %d errored (seed=%llu)\n", i,
                   static_cast<unsigned long long>(o.seed));
      break;
    }
  }

  const bool keep_image = violations != 0 && !o.expect_violation;
  if (!keep_image) {
    pmem::FileRegion::destroy(o.file);
    (void)::unlink((o.file + ".expect").c_str());
  }

  if (errors != 0) {
    std::fprintf(stderr, "flit-crashtest: aborted on a harness error\n");
    return 1;
  }
  if (o.expect_violation) {
    if (violations == 0) {
      std::fprintf(stderr,
                   "flit-crashtest: expected the seeded bug to be caught, "
                   "but every iteration passed\n");
      return 1;
    }
    std::printf("flit-crashtest: seeded bug detected in %d/%d iterations "
                "— detector works\n",
                violations, o.iters);
    return 0;
  }
  if (violations != 0) {
    std::fprintf(stderr,
                 "flit-crashtest: DURABILITY CONTRACT VIOLATED "
                 "(seed=%llu; image kept at %s)\n",
                 static_cast<unsigned long long>(o.seed), o.file.c_str());
    return 1;
  }
  if (acked_accum == 0) {
    std::fprintf(stderr,
                 "flit-crashtest: no op was ever acknowledged across %d "
                 "iterations — ack plumbing is broken\n",
                 o.iters);
    return 1;
  }
  if (o.inject && oos_accum == 0) {
    std::fprintf(stderr,
                 "flit-crashtest: --inject never hit OutOfSpace across %d "
                 "iterations — capacity too generous to test exhaustion\n",
                 o.iters);
    return 1;
  }
  if (o.inject) {
    std::printf("flit-crashtest: ok — %d kills at the brim, %zu acked ops "
                "verified, %zu refusals, 0 violations (seed=%llu)\n",
                o.iters, acked_accum, oos_accum,
                static_cast<unsigned long long>(o.seed));
    return 0;
  }
  std::printf("flit-crashtest: ok — %d kills, %zu acked ops verified, 0 "
              "violations (seed=%llu)\n",
              o.iters, acked_accum,
              static_cast<unsigned long long>(o.seed));
  return 0;
}
