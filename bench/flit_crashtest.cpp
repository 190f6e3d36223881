// flit-crashtest — whole-process crash harness for the durable KV store.
//
// The persistency tests under tests/ simulate crashes by discarding
// volatile state inside one process. This harness kills a REAL process
// (SIGKILL, no cleanup, no destructors) at a randomized point in a mixed
// workload against a file-backed store, reopens the image in a fresh
// process, and checks it against LinCheck's durable rule
// (check::check_durable): every completed write survives, every
// in-flight write lands whole or not at all, and nothing is torn.
//
// The workload child streams one line per issued op and per progress
// step to the parent (the ack protocol is in crash_log.hpp). A-lines are
// emitted from the store's checkpoint post-hook using a pre-hook
// snapshot of each thread's completed sequence number, so an ack never
// races ahead of the msync that covers the op:
//   - always:   every write calls note_write_commit() -> checkpoint,
//   - everysec: the store's flusher thread checkpoints on its interval,
//   - never:    the harness runs its own checkpoint() ticker (explicit
//               sync points), acks ride on those.
// SIGKILL keeps the page cache, so the harness checks ack accounting and
// crash atomicity, not media loss (that needs a power-fail rig; see
// EXPERIMENTS.md).
//
// After the kill, the parent turns the stream into a check::History
// (crash_log.hpp) and fork+execs itself with --verify: a fresh address
// space gets fresh ASLR, so the region's recorded base is almost always
// free (exit code 4 reports the rare remap collision and the parent
// re-execs). The verifier reopens the image, writes one `key value_id`
// line per present key to <file>.recovered, and runs the store's
// self-checks, which compare two read paths with each other: size()
// against the probed count and, on the ordered layout, scan() against
// point lookups. A last self-check tests the allocator mark the reopen
// repaired: up to 256 fresh keys with 1 KiB values (bump allocations,
// which land on any live record the mark missed), then a close and a
// clean reopen that must read every probed key unchanged, every fresh
// key intact, and size() = probed + written. The parent then judges the
// recovered map with check_durable and prints each finding under
// LinCheck's class name.
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
// SIGKILL lands on a store operating at the brim. A refused mutation
// emits an F-line and stays in flight — a refused op promised nothing —
// while the workload keeps going: removes recycle space and later puts
// land in it, so the kill samples the full degrade/recycle cycle. The
// parent SIGKILLs a randomized --kill-min/max-ms after the *first
// observed refusal*, so the brim is reached on loaded CI machines and
// fast workstations alike; a 10 s fallback caps a workload that never
// exhausts, and the run fails if no iteration ever hit OutOfSpace.
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
#include <string>
#include <thread>
#include <vector>

#include "check/linearizer.hpp"
#include "core/failpoint.hpp"
#include "core/modes.hpp"
#include "crash_log.hpp"
#include "kv/store.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "pmem/backend.hpp"
#include "pmem/file_region.hpp"
#include "pmem/pool.hpp"

namespace {

using namespace flit;
using crashtest::AckLog;
using crashtest::IssuedOp;
using crashtest::Key;
using crashtest::make_value;

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
  bool verify = false;  // internal: the harness exec's itself with this
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
  if (o.keys < static_cast<std::uint64_t>(o.threads)) {
    // Each thread (net mode: connection) owns a stripe of the keys.
    usage_error("--keys must be at least --threads");
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

/// The workload child and the verifier open the image with one geometry.
template <class StoreT>
StoreT open_store(const Options& o) {
  const auto per_shard = std::max<std::size_t>(
      o.keys / static_cast<std::size_t>(o.shards), 64);
  const kv::KeyRange range{0, static_cast<Key>(o.keys + o.keys / 8)};
  return StoreT::open(o.file, o.capacity_mb << 20,
                      static_cast<std::uint32_t>(o.shards), per_shard, range);
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
    StoreT store = open_store<StoreT>(o);

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
        std::deque<std::pair<std::uint64_t, IssuedOp>> lagged;  // seeded bug

        auto next_op = [&](bool is_put) -> IssuedOp {
          const Key k = pick_key();
          return {is_put, k, is_put ? ++vseq[k] : 0};
        };
        // One pipe write carries the whole batch's I-lines.
        auto issue = [&](const std::vector<IssuedOp>& batch) {
          char buf[6 * 72];
          int n = 0;
          for (const IssuedOp& op : batch) {
            n += crashtest::issue_line(buf + n, sizeof(buf) - n, t, ++seq,
                                       op);
          }
          sh.pipe.send(buf, static_cast<std::size_t>(n));
        };
        // Single ops use put/remove, batches multi_put/multi_remove.
        auto apply = [&](const std::vector<IssuedOp>& batch) {
          if (batch.size() == 1 && batch[0].is_put) {
            store.put(batch[0].key, make_value(batch[0].key, batch[0].vseq));
          } else if (batch.size() == 1) {
            store.remove(batch[0].key);
          } else if (batch[0].is_put) {
            std::vector<std::string> vals;
            for (const IssuedOp& op : batch) {
              vals.push_back(make_value(op.key, op.vseq));
            }
            std::vector<std::pair<Key, std::string_view>> kvs;
            for (std::size_t i = 0; i < batch.size(); ++i) {
              kvs.emplace_back(batch[i].key, vals[i]);
            }
            store.multi_put(kvs);
          } else {
            std::vector<Key> ks;
            for (const IssuedOp& op : batch) ks.push_back(op.key);
            store.multi_remove(ks);
          }
        };
        auto done = [&](std::uint64_t s) {
          sh.pipe.line("D %d %llu\n", t, static_cast<unsigned long long>(s));
          sh.completed[t].store(s, std::memory_order_release);
          if (!o.unsafe_ack && o.durability == kv::DurabilityMode::kAlways) {
            store.note_write_commit();
          }
        };
        // --inject: a mutation refused by the full pool emits an F-line
        // (those ops stay in flight — a refused op promised nothing, and
        // a multi-op may have landed a prefix) and the workload keeps
        // running at the brim. Without --inject a bad_alloc escapes to
        // the park-for-the-kill handler below.
        auto attempt = [&](const std::vector<IssuedOp>& batch) -> bool {
          try {
            apply(batch);
            return true;
          } catch (const std::bad_alloc&) {
            if (!o.inject) throw;
            sh.pipe.line("F %d %llu %llu\n", t,
                         static_cast<unsigned long long>(seq + 1 -
                                                         batch.size()),
                         static_cast<unsigned long long>(seq));
            return false;
          }
        };

        try {
          for (;;) {
            const std::uint32_t r = static_cast<std::uint32_t>(rng() % 100);
            if (o.unsafe_ack) {
              // SEEDED BUG: acknowledge at issue time, apply ~16 ops
              // later. A kill inside the window loses acked writes.
              const IssuedOp op = next_op(r < 75);
              issue({op});
              sh.pipe.line("A %d %llu\n", t,
                           static_cast<unsigned long long>(seq));
              lagged.emplace_back(seq, op);
              if (lagged.size() > 16) {
                apply({lagged.front().second});
                done(lagged.front().first);
                lagged.pop_front();
              }
              continue;
            }
            if (r >= 84) {  // reads keep traversal paths hot
              if (r < 94) {
                (void)store.get(pick_key());
              } else {
                std::vector<Key> ks;
                for (int i = 0; i < 6; ++i) ks.push_back(pick_key());
                (void)store.multi_get(ks);
              }
              continue;
            }
            // put, multi_put of 6, remove, multi_remove of 4
            const int width = r < 45 ? 1 : r < 62 ? 6 : r < 76 ? 1 : 4;
            std::vector<IssuedOp> batch;
            for (int i = 0; i < width; ++i) batch.push_back(next_op(r < 62));
            issue(batch);
            if (attempt(batch)) done(seq);
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

/// The repaired allocator mark, tested on a real crash image: only a
/// SIGKILLed image holds nodes that are marked but still linked and
/// claimed values, which the dirty open's record bound must skip. Writes
/// up to 256 fresh keys (k >= o.keys) with 1 KiB values — stopping at
/// the first OutOfSpace, as --inject runs at the brim — then closes,
/// reopens cleanly and compares every key with `probed` and the fresh
/// writes. Returns the number of violations (each printed with its key),
/// or -1 when the region could not be re-mapped.
template <class StoreT>
int verify_mark(const Options& o, std::optional<StoreT>& store,
                const std::map<Key, std::string>& probed) {
  std::map<Key, std::string> fresh;
  for (Key k = static_cast<Key>(o.keys); fresh.size() < 256; ++k) {
    std::string v = "fresh " + std::to_string(k);
    v.resize(1024, '.');
    try {
      store->put(k, v);
    } catch (const kv::OutOfSpace&) {
      break;
    }
    fresh.emplace(k, std::move(v));
  }
  store.reset();  // close()
  try {
    store.emplace(open_store<StoreT>(o));
  } catch (const std::exception& e) {
    if (std::strstr(e.what(), "could not re-map") != nullptr) return -1;
    std::fprintf(stderr, "verify: VIOLATION: clean reopen rejected: %s\n",
                 e.what());
    return 1;
  }
  int violations = 0;
  for (Key k = 0; k < static_cast<Key>(o.keys); ++k) {
    const auto v = store->get(k);
    const auto it = probed.find(k);
    const bool same =
        it == probed.end()
            ? !v.has_value()
            : v && check::value_id(*v) == check::value_id(it->second);
    if (!same) {
      std::fprintf(stderr,
                   "verify: VIOLATION: key %lld changed after fresh writes "
                   "and a clean reopen\n",
                   static_cast<long long>(k));
      ++violations;
    }
  }
  for (const auto& [k, v] : fresh) {
    if (store->get(k) != v) {
      std::fprintf(stderr,
                   "verify: VIOLATION: fresh key %lld not read back "
                   "byte-exact\n",
                   static_cast<long long>(k));
      ++violations;
    }
  }
  if (store->size() != probed.size() + fresh.size()) {
    std::fprintf(stderr,
                 "verify: VIOLATION: size()=%zu after the clean reopen, "
                 "expected %zu probed + %zu written\n",
                 store->size(), probed.size(), fresh.size());
    ++violations;
  }
  return violations;
}

/// Reopen the crash image, write one `key value_id` line per present key
/// to <file>.recovered for the parent to judge, and run the store's
/// self-checks (the last one, verify_mark, writes to the image after
/// .recovered is complete). Exit codes: 0 self-checks pass, 1 self-check
/// violation, 3 I/O error or a failed re-map on the clean reopen, 4 could
/// not remap the region (the parent re-execs for fresh ASLR), 5 open()
/// rejected the image.
template <class StoreT>
int verify_image(const Options& o) {
  pmem::set_backend(pmem::Backend::kSimLatency);
  pmem::set_sim_latency(0, 0);
  std::optional<StoreT> store;
  try {
    store.emplace(open_store<StoreT>(o));
  } catch (const std::exception& e) {
    if (std::strstr(e.what(), "could not re-map") != nullptr) return 4;
    std::printf("verify: open rejected the image: %s\n", e.what());
    return 5;
  }

  std::FILE* out = std::fopen((o.file + ".recovered").c_str(), "w");
  if (out == nullptr) return 3;
  std::map<Key, std::string> probed;  // present keys -> recovered value
  for (Key k = 0; k < static_cast<Key>(o.keys); ++k) {
    if (auto v = store->get(k)) {
      std::fprintf(out, "%lld %llu\n", static_cast<long long>(k),
                   static_cast<unsigned long long>(check::value_id(*v)));
      probed.emplace(k, std::move(*v));
    }
  }
  if (std::fclose(out) != 0) return 3;

  int violations = 0;
  if (store->size() != probed.size()) {
    std::fprintf(stderr,
                 "verify: VIOLATION: size()=%zu but %zu keys probe as "
                 "present\n",
                 store->size(), probed.size());
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
  const int mark_violations = verify_mark(o, store, probed);
  if (mark_violations < 0) return 3;
  violations += mark_violations;
  return violations == 0 ? 0 : 1;
}

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
                AckLog& log, int refusal_kill_ms) {
  std::string buf;
  char chunk[4096];
  bool killed = false;
  bool premature = false;
  bool refusal_seen = false;
  for (;;) {
    if (refusal_kill_ms >= 0 && !refusal_seen && log.refusals > 0) {
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
/// 4) with fresh address spaces. Returns the verifier's verdict (0, 1 or
/// 5; see verify_image), or -1 on a harness error.
int run_verifier(const char* self, const Options& o) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      const std::string file_arg = "--file=" + o.file;
      const std::string layout_arg = "--layout=" + o.layout;
      const std::string shards_arg = "--shards=" + std::to_string(o.shards);
      const std::string cap_arg =
          "--capacity-mb=" + std::to_string(o.capacity_mb);
      const std::string keys_arg = "--keys=" + std::to_string(o.keys);
      const std::string threads_arg =
          "--threads=" + std::to_string(o.threads);
      const char* argv[] = {self, "--verify", file_arg.c_str(),
                            layout_arg.c_str(), shards_arg.c_str(),
                            cap_arg.c_str(), keys_arg.c_str(),
                            threads_arg.c_str(), nullptr};
      ::execv(self, const_cast<char**>(argv));
      _exit(127);
    }
    const int status = wait_child(pid);
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 0 || code == 1 || code == 5) return code;
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

/// Judge one killed iteration: reopen the image in the verifier, then
/// check what it recovered against the ack log with check_durable.
/// Returns 0 ok, 1 violation, -1 harness error.
int judge_iteration(const char* self, const Options& o, const AckLog& log,
                    int kill_ms, std::size_t& completed_accum) {
  const crashtest::CrashHistory ch = crashtest::build_history(log);
  if (!ch.error.empty()) {
    std::fprintf(stderr, "flit-crashtest: %s\n", ch.error.c_str());
    return -1;
  }
  completed_accum += ch.completed;
  if (o.verbose) {
    std::printf("  kill@%s%dms ops=%zu completed=%zu refusals=%zu\n",
                o.inject ? "brim+" : "", kill_ms, ch.history.events.size(),
                ch.completed, log.refusals);
  }

  const int verdict = run_verifier(self, o);
  if (verdict < 0) return -1;
  if (verdict == 1) return 1;  // the verifier printed what failed
  if (verdict == 5) {
    // E.g. killed mid-creation: a rejected image loses nothing if the
    // store never promised anything.
    if (ch.completed == 0) return 0;
    std::fprintf(stderr,
                 "flit-crashtest: VIOLATION: open() rejected an image "
                 "holding %zu completed ops\n",
                 ch.completed);
    return 1;
  }

  std::map<std::int64_t, std::uint64_t> recovered;
  std::FILE* f = std::fopen((o.file + ".recovered").c_str(), "r");
  if (f == nullptr) return -1;
  long long k = 0;
  unsigned long long id = 0;
  while (std::fscanf(f, "%lld %llu", &k, &id) == 2) recovered[k] = id;
  std::fclose(f);

  const auto findings = check::check_durable(ch.history, ch.cut, recovered);
  for (std::size_t i = 0; i < findings.size() && i < 20; ++i) {
    std::fprintf(stderr, "flit-crashtest: VIOLATION %s key=%lld: %s\n",
                 check::to_string(findings[i].cls),
                 static_cast<long long>(findings[i].key),
                 findings[i].detail.c_str());
  }
  if (findings.size() > 20) {
    std::fprintf(stderr, "flit-crashtest: ... %zu more findings\n",
                 findings.size() - 20);
  }
  return findings.empty() ? 0 : 1;
}

int draw_kill_ms(const Options& o, std::mt19937_64& rng) {
  return o.kill_min_ms +
         static_cast<int>(rng() % static_cast<std::uint64_t>(
                                      o.kill_max_ms - o.kill_min_ms + 1));
}

// ------------------------------------------------------- api-mode iter

/// One kill/reopen/verify round. Returns 0 ok, 1 violation, -1 error.
int run_api_iteration(const char* self, const Options& o,
                      std::uint64_t iter_seed, std::mt19937_64& rng,
                      std::size_t& completed_accum, std::size_t& oos_accum) {
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

  const int kill_ms = draw_kill_ms(o, rng);
  AckLog log(o.threads);
  // Inject mode: kill_ms counts from the first refusal, with a generous
  // fallback so a workload that never exhausts still dies (and then
  // fails the oos_accum check at the end of main).
  const auto now = std::chrono::steady_clock::now();
  const bool killed_running = drain_pipe(
      fds[0], pid,
      o.inject ? now + std::chrono::seconds(10)
               : now + std::chrono::milliseconds(kill_ms),
      log, o.inject ? kill_ms : -1);
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
  oos_accum += log.refusals;
  return judge_iteration(self, o, log, kill_ms, completed_accum);
}

// ------------------------------------------------------- net-mode iter

int run_net_iteration(const char* self, const Options& o,
                      std::uint64_t iter_seed, std::mt19937_64& rng,
                      std::size_t& completed_accum) {
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
  // server checkpoints each batch before flushing its replies). Each
  // connection records only its own slot of the log. There is no D
  // channel: the server's internal progress is invisible, exactly what
  // a client sees.
  AckLog log(o.threads);
  std::atomic<bool> conn_error{false};
  std::vector<std::thread> conns;
  for (int c = 0; c < o.threads; ++c) {
    conns.emplace_back([&, c] {
      std::mt19937_64 crng(iter_seed * 0xD1B54A32D192ED03ull + c + 1);
      const std::uint64_t stripe =
          o.keys / static_cast<std::uint64_t>(o.threads);
      std::map<Key, std::uint64_t> vseq;
      std::vector<IssuedOp>& ops = log.ops[c];
      try {
        net::Client cl = net::Client::connect("127.0.0.1", port);
        std::vector<std::string> key_strs(
            static_cast<std::size_t>(o.pipeline));
        std::vector<std::string> vals(static_cast<std::size_t>(o.pipeline));
        for (;;) {
          for (int i = 0; i < o.pipeline; ++i) {
            const Key k = static_cast<Key>(
                c + o.threads * static_cast<int>(crng() % stripe));
            key_strs[i] = std::to_string(k);
            if (crng() % 100 < 75) {
              const std::uint64_t vs = ++vseq[k];
              vals[i] = make_value(k, vs);
              cl.enqueue({"SET", key_strs[i], vals[i]});
              ops.push_back({true, k, vs});
            } else {
              cl.enqueue({"DEL", key_strs[i]});
              ops.push_back({false, k, 0});
            }
          }
          cl.flush();
          const std::size_t first = ops.size() - o.pipeline;
          for (int i = 0; i < o.pipeline; ++i) {
            const net::Reply r = cl.read_reply();
            if (r.is_error()) throw std::runtime_error("reply: " + r.str);
            log.floor[c] = first + static_cast<std::size_t>(i) + 1;
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

  const int kill_ms = draw_kill_ms(o, rng);
  std::this_thread::sleep_for(std::chrono::milliseconds(kill_ms));
  ::kill(pid, SIGKILL);
  for (auto& t : conns) t.join();
  wait_child(pid);
  if (conn_error.load(std::memory_order_acquire)) return -1;
  return judge_iteration(self, o, log, kill_ms, completed_accum);
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
  std::size_t completed_accum = 0;
  std::size_t oos_accum = 0;
  for (int i = 0; i < o.iters; ++i) {
    const std::uint64_t iter_seed = rng();
    const int r = o.mode == "net"
                      ? run_net_iteration(argv[0], o, iter_seed, rng,
                                          completed_accum)
                      : run_api_iteration(argv[0], o, iter_seed, rng,
                                          completed_accum, oos_accum);
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
    (void)::unlink((o.file + ".recovered").c_str());
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
  if (completed_accum == 0) {
    std::fprintf(stderr,
                 "flit-crashtest: no op ever completed across %d "
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
    std::printf("flit-crashtest: ok — %d kills at the brim, %zu completed "
                "ops verified, %zu refusals, 0 violations (seed=%llu)\n",
                o.iters, completed_accum, oos_accum,
                static_cast<unsigned long long>(o.seed));
    return 0;
  }
  std::printf("flit-crashtest: ok — %d kills, %zu completed ops verified, "
              "0 violations (seed=%llu)\n",
              o.iters, completed_accum,
              static_cast<unsigned long long>(o.seed));
  return 0;
}
