// flit-server — the durable KV store behind the network front-end.
//
// Serves the RESP-like protocol (see src/net/server.hpp for the command
// set) over a kv::Store (hashed layout) or kv::OrderedStore (ordered;
// adds SCAN), NVTraverse method, flit-HT words. Pipelined requests are
// grouped into the batched multi-op path per readiness event, so fence
// coalescing shows up on real connections — flit_loadgen measures it.
//
//   ./flit_server                          # hashed, port 0 (ephemeral)
//   ./flit_server --layout=ordered --port=7379
//   ./flit_server --file=/mnt/pmem/kv.img --durability=always
//
// Flags:
//   --host=A --port=N       listen address (default 127.0.0.1:0; the
//                           chosen port is printed — parse the line
//                           "flit-server: listening on HOST:PORT ...")
//   --workers=N             epoll worker threads (default 2, at most 254)
//   --shards=N              store shards (default 8)
//   --layout=hashed|ordered store backend (default hashed)
//   --keys=N                expected keyspace (sizes buckets; sets the
//                           ordered partition range [0, N + N/8))
//   --file=PATH             file-backed store (durable across restarts)
//   --durability=MODE       never | everysec | always (default never;
//                           only meaningful with --file)
//   --flush-ms=N            everysec flusher interval in milliseconds
//                           (default 1000; smoke tests shrink it so a
//                           checkpoint lands within the test window)
//   --capacity-mb=N         pool/file capacity (default 1024)
//   --failpoints=LIST       arm failpoint sites (site=trigger[@errno];...)
//                           after the store is built — unlike the
//                           FLIT_FAILPOINTS env var, which would also
//                           fire during store construction and kill the
//                           boot. Requires a checked build.
//   --max-conns=N           shed new connections past N open (0 = no
//                           cap; default 4096)
//   --idle-timeout-ms=N     close connections idle longer than N ms
//                           (0 = never; default 0)
//   --hw                    real clwb/sfence backend instead of the
//                           simulated-latency one
//
// SIGINT/SIGTERM (or a SHUTDOWN command) stop the server cleanly:
// in-flight replies flush, a file-backed store close()s (final msync +
// clean-shutdown mark).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "core/modes.hpp"
#include "kv/store.hpp"
#include "net/server.hpp"
#include "pmem/backend.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace {

using namespace flit;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int workers = 2;
  int shards = 8;
  bool ordered = false;
  std::uint64_t keys = 1'000'000;
  std::string file;
  kv::DurabilityMode durability = kv::DurabilityMode::kNever;
  long flush_ms = 1000;
  std::size_t capacity_mb = 1024;
  std::size_t max_conns = 4096;
  int idle_timeout_ms = 0;
  std::string failpoints;
  bool hw = false;
};

const char* arg_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "flit-server: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = arg_value(a, "--host")) {
      o.host = v;
    } else if (const char* v = arg_value(a, "--port")) {
      o.port = std::atoi(v);
    } else if (const char* v = arg_value(a, "--workers")) {
      o.workers = std::atoi(v);
    } else if (const char* v = arg_value(a, "--shards")) {
      o.shards = std::atoi(v);
    } else if (const char* v = arg_value(a, "--layout")) {
      if (std::strcmp(v, "ordered") == 0) {
        o.ordered = true;
      } else if (std::strcmp(v, "hashed") != 0) {
        usage_error("--layout must be hashed or ordered");
      }
    } else if (const char* v = arg_value(a, "--keys")) {
      o.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--file")) {
      o.file = v;
    } else if (const char* v = arg_value(a, "--durability")) {
      const auto m = kv::parse_durability_mode(v);
      if (!m) usage_error("--durability must be never, everysec or always");
      o.durability = *m;
    } else if (const char* v = arg_value(a, "--flush-ms")) {
      o.flush_ms = std::atol(v);
    } else if (const char* v = arg_value(a, "--capacity-mb")) {
      o.capacity_mb = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--failpoints")) {
      o.failpoints = v;
    } else if (const char* v = arg_value(a, "--max-conns")) {
      o.max_conns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--idle-timeout-ms")) {
      o.idle_timeout_ms = std::atoi(v);
    } else if (std::strcmp(a, "--hw") == 0) {
      o.hw = true;
    } else {
      usage_error(std::string("unknown flag ") + a);
    }
  }
  if (o.port < 0 || o.port > 65535) usage_error("--port out of range");
  if (o.workers < 1 || o.shards < 1 || o.keys == 0 || o.capacity_mb == 0) {
    usage_error("--workers/--shards/--keys/--capacity-mb must be positive");
  }
  // Each worker claims an EBR thread slot, as may the listener (main)
  // thread and the kEverySec flusher.
  constexpr int kMaxWorkers = static_cast<int>(recl::Ebr::kMaxThreads) - 2;
  if (o.workers > kMaxWorkers) {
    usage_error("--workers must be at most " + std::to_string(kMaxWorkers));
  }
  if (o.durability != kv::DurabilityMode::kNever && o.file.empty()) {
    usage_error("--durability needs a file-backed store (--file=PATH)");
  }
  if (o.flush_ms <= 0) usage_error("--flush-ms must be positive");
  if (o.idle_timeout_ms < 0) usage_error("--idle-timeout-ms must be >= 0");
  if (!o.failpoints.empty() && !core::kChecked) {
    usage_error("--failpoints needs a checked build "
                "(cmake --preset checked)");
  }
  return o;
}

// Signal path: SIGINT/SIGTERM route to Server::shutdown(), which is an
// atomic store plus eventfd writes — async-signal-safe.
std::atomic<void (*)()> g_shutdown{nullptr};

void on_signal(int) {
  if (auto* f = g_shutdown.load(std::memory_order_acquire)) f();
}

template <class StoreT>
StoreT make_store(const Options& o) {
  const auto per_shard = std::max<std::size_t>(
      o.keys / static_cast<std::size_t>(o.shards), 64);
  kv::KeyRange range{0, static_cast<std::int64_t>(o.keys + o.keys / 8)};
  if (!o.file.empty()) {
    return StoreT::open(o.file, o.capacity_mb << 20,
                        static_cast<std::uint32_t>(o.shards), per_shard,
                        range);
  }
  pmem::Pool::instance().reinit(o.capacity_mb << 20);
  return StoreT(static_cast<std::uint32_t>(o.shards), per_shard, range);
}

template <class StoreT>
int serve(const Options& o) {
  StoreT store = make_store<StoreT>(o);
  store.set_durability_mode(o.durability,
                            std::chrono::milliseconds(o.flush_ms));
  if (!o.failpoints.empty()) {
    // Armed only now — the store (and its prefilled buckets) is already
    // built, so injected faults land on served requests, not on boot.
    const std::size_t n =
        core::Failpoints::instance().arm_from_list(o.failpoints);
    std::printf("flit-server: armed %zu failpoint site(s): %s\n", n,
                o.failpoints.c_str());
  }

  net::ServerConfig cfg;
  cfg.host = o.host;
  cfg.port = static_cast<std::uint16_t>(o.port);
  cfg.workers = o.workers;
  cfg.max_value_bytes = kv::Record::kMaxValueBytes;
  cfg.max_connections = o.max_conns;
  cfg.idle_timeout_ms = o.idle_timeout_ms;
  net::Server<StoreT> server(store, cfg);

  static net::Server<StoreT>* g_server = nullptr;
  g_server = &server;
  g_shutdown.store(+[] { g_server->shutdown(); },
                   std::memory_order_release);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf(
      "flit-server: listening on %s:%u layout=%s workers=%d shards=%d "
      "durability=%s backend=%s %s\n",
      o.host.c_str(), server.port(), StoreT::kOrdered ? "ordered" : "hashed",
      o.workers, o.shards, kv::to_string(o.durability),
      pmem::to_string(pmem::backend()),
      o.file.empty() ? "(pool-backed)" : o.file.c_str());
  std::fflush(stdout);

  server.run();
  g_shutdown.store(nullptr, std::memory_order_release);

  const net::ServerStats& s = server.stats();
  std::printf(
      "flit-server: stopped. connections=%llu requests=%llu "
      "batched_keys=%llu scalar_ops=%llu protocol_errors=%llu "
      "checkpoints=%llu shed=%llu idle_timeouts=%llu keys=%zu\n",
      static_cast<unsigned long long>(s.connections.load()),
      static_cast<unsigned long long>(s.requests.load()),
      static_cast<unsigned long long>(s.batched_keys.load()),
      static_cast<unsigned long long>(s.scalar_ops.load()),
      static_cast<unsigned long long>(s.protocol_errors.load()),
      static_cast<unsigned long long>(store.checkpoints()),
      static_cast<unsigned long long>(s.shed_connections.load()),
      static_cast<unsigned long long>(s.idle_timeouts.load()),
      store.size());
  store.close();  // flusher stops; file-backed: final msync + clean mark
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  pmem::set_backend(o.hw ? pmem::Backend::kHardware
                         : pmem::Backend::kSimLatency);
  pmem::set_sim_latency(90, 60);  // ~Optane clwb / sfence ballpark
  try {
    return o.ordered ? serve<kv::OrderedStore<HashedWords, NVTraverse>>(o)
                     : serve<kv::Store<HashedWords, NVTraverse>>(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flit-server: fatal: %s\n", e.what());
    return 1;
  }
}
