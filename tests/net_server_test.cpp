// End-to-end tests for the epoll network front-end (src/net/server.hpp)
// over real loopback sockets: command semantics, pipelining → multi-op
// batching, torn frames arriving over the wire, protocol errors closing
// the connection, partial-write resumption under large replies, the
// SIGPIPE paper cut (a peer vanishing mid-conversation must not kill the
// process), and clean SHUTDOWN.
#include "net/server.hpp"

#include <chrono>
#include <memory>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "core/modes.hpp"
#include "kv/store.hpp"
#include "net/client.hpp"
#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit::net {
namespace {

using HashedKv = kv::Store<HashedWords, NVTraverse>;
using OrderedKv = kv::OrderedStore<HashedWords, NVTraverse>;

/// A live server on an ephemeral loopback port, torn down on scope exit.
template <class StoreT>
struct Harness {
  StoreT store;
  Server<StoreT> server;
  std::thread runner;

  explicit Harness(StoreT s, ServerConfig cfg = {})
      : store(std::move(s)), server(store, cfg) {
    runner = std::thread([this] { server.run(); });
  }

  ~Harness() {
    server.shutdown();
    if (runner.joinable()) runner.join();
  }

  Client connect() { return Client::connect("127.0.0.1", server.port()); }
};

class NetServerTest : public test::PmemTest {
 protected:
  static HashedKv hashed() { return HashedKv(4, 256); }
  static OrderedKv ordered() {
    return OrderedKv(4, 64, kv::KeyRange{0, 1 << 20});
  }
};

TEST_F(NetServerTest, SetGetDelRoundTrip) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  EXPECT_TRUE(c.command({"SET", "1", "one"}).ok());
  Reply r = c.command({"GET", "1"});
  ASSERT_EQ(r.type, Reply::Type::kBulk);
  EXPECT_EQ(r.str, "one");
  EXPECT_EQ(c.command({"DEL", "1"}).integer, 1);
  EXPECT_TRUE(c.command({"GET", "1"}).is_null());
  EXPECT_EQ(c.command({"DEL", "1"}).integer, 0);
  EXPECT_EQ(c.command({"PING"}).str, "PONG");
}

TEST_F(NetServerTest, PipelinedRunsBecomeMultiOps) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  constexpr int kN = 48;
  for (int i = 0; i < kN; ++i) {
    c.enqueue({"SET", std::to_string(i), "v" + std::to_string(i)});
  }
  c.flush();
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(c.read_reply().ok());
  for (int i = 0; i < kN; ++i) c.enqueue({"GET", std::to_string(i)});
  c.flush();
  for (int i = 0; i < kN; ++i) {
    const Reply r = c.read_reply();
    ASSERT_EQ(r.type, Reply::Type::kBulk) << i;
    EXPECT_EQ(r.str, "v" + std::to_string(i));
  }
  // The bursts must have gone down the batched multi-op path: the exact
  // split depends on readiness-event timing, but with 2×48 pipelined
  // same-command requests at least some runs batch.
  EXPECT_GT(h.server.stats().batched_keys.load(), 0u);
  // Replies stay in request order across a mixed run boundary: a GET
  // pipelined after a SET of the same key sees the SET.
  c.enqueue({"SET", "7", "old"});
  c.enqueue({"GET", "7"});
  c.enqueue({"SET", "7", "new"});
  c.enqueue({"GET", "7"});
  c.flush();
  EXPECT_TRUE(c.read_reply().ok());
  EXPECT_EQ(c.read_reply().str, "old");
  EXPECT_TRUE(c.read_reply().ok());
  EXPECT_EQ(c.read_reply().str, "new");
}

TEST_F(NetServerTest, MsetMgetMdel) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  EXPECT_TRUE(c.command({"MSET", "10", "a", "11", "b", "12", "c"}).ok());
  const Reply r = c.command({"MGET", "10", "12", "999", "11"});
  ASSERT_EQ(r.type, Reply::Type::kArray);
  ASSERT_EQ(r.elems.size(), 4u);
  EXPECT_EQ(r.elems[0].str, "a");
  EXPECT_EQ(r.elems[1].str, "c");
  EXPECT_TRUE(r.elems[2].is_null());
  EXPECT_EQ(r.elems[3].str, "b");
  EXPECT_EQ(c.command({"MDEL", "10", "11", "999"}).integer, 2);
  EXPECT_TRUE(c.command({"GET", "10"}).is_null());
  EXPECT_EQ(c.command({"GET", "12"}).str, "c");
}

TEST_F(NetServerTest, CommandErrorsAreRecoverable) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  EXPECT_TRUE(c.command({"NOSUCH", "1"}).is_error());
  EXPECT_TRUE(c.command({"GET", "not-a-number"}).is_error());
  EXPECT_TRUE(c.command({"GET"}).is_error());                // arity
  EXPECT_TRUE(c.command({"SET", "1"}).is_error());           // arity
  EXPECT_TRUE(
      c.command({"SET", "9223372036854775807", "v"}).is_error());  // reserved
  EXPECT_TRUE(
      c.command({"SET", "-9223372036854775808", "v"}).is_error());
  // A command error never poisons the connection.
  EXPECT_TRUE(c.command({"SET", "5", "fine"}).ok());
  EXPECT_EQ(c.command({"GET", "5"}).str, "fine");
  // In a pipelined GET run, an invalid element gets its error in place
  // while the valid neighbours still batch and answer correctly.
  c.enqueue({"GET", "5"});
  c.enqueue({"GET", "bogus"});
  c.enqueue({"GET", "5"});
  c.flush();
  EXPECT_EQ(c.read_reply().str, "fine");
  EXPECT_TRUE(c.read_reply().is_error());
  EXPECT_EQ(c.read_reply().str, "fine");
}

TEST_F(NetServerTest, MultiKeyCommandsAreAllOrNothing) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  ASSERT_TRUE(c.command({"SET", "21", "keep"}).ok());
  // A bad key anywhere in an M-command gets one error for the whole
  // command and applies nothing. The PING pipelined behind each proves
  // the reply count: exactly one reply per command.
  c.enqueue({"MSET", "20", "a", "bogus", "b"});
  c.enqueue({"PING"});
  c.enqueue({"MGET", "21", "bogus"});
  c.enqueue({"PING"});
  c.enqueue({"MDEL", "21", "9223372036854775807"});
  c.enqueue({"PING"});
  c.flush();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(c.read_reply().is_error()) << i;
    EXPECT_EQ(c.read_reply().str, "PONG") << i;
  }
  EXPECT_TRUE(c.command({"GET", "20"}).is_null());
  EXPECT_EQ(c.command({"GET", "21"}).str, "keep");
  // A lone DEL validates like any element of a DEL run.
  EXPECT_TRUE(c.command({"DEL"}).is_error());
  EXPECT_TRUE(c.command({"DEL", "bogus"}).is_error());
  EXPECT_EQ(c.command({"DEL", "21"}).integer, 1);
}

TEST_F(NetServerTest, UnknownCommandErrorKeepsReplyFraming) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  // The command word is binary-safe; echoing its CR LF into the one-line
  // error would split the reply in two and shift every later reply.
  const Reply r = c.command({"X\r\n+OK"});
  EXPECT_TRUE(r.is_error()) << r.str;
  EXPECT_EQ(c.command({"PING"}).str, "PONG");
  // The echo is bounded, whatever the length of the command word.
  const Reply big = c.command({std::string(1 << 20, 'Z')});
  ASSERT_TRUE(big.is_error());
  EXPECT_LT(big.str.size(), 256u);
  EXPECT_EQ(c.command({"PING"}).str, "PONG");
}

TEST_F(NetServerTest, ScanOnOrderedLayout) {
  Harness<OrderedKv> h(ordered());
  Client c = h.connect();
  for (int k = 0; k < 30; ++k) {
    ASSERT_TRUE(
        c.command({"SET", std::to_string(k), "s" + std::to_string(k)}).ok());
  }
  const Reply r = c.command({"SCAN", "10", "5"});
  ASSERT_EQ(r.type, Reply::Type::kArray);
  ASSERT_EQ(r.elems.size(), 10u);  // 5 (key, value) pairs
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.elems[static_cast<std::size_t>(2 * i)].str,
              std::to_string(10 + i));
    EXPECT_EQ(r.elems[static_cast<std::size_t>(2 * i + 1)].str,
              "s" + std::to_string(10 + i));
  }
  // Sentinel start keys are legal scan origins.
  const Reply lo = c.command({"SCAN", "-9223372036854775808", "3"});
  ASSERT_EQ(lo.elems.size(), 6u);
  EXPECT_EQ(lo.elems[0].str, "0");
  EXPECT_TRUE(c.command({"SCAN", "0", "999999999"}).is_error());  // too long

  // A scan wider than the request-side argv bound still parses on the
  // client: the reply bound follows the server's SCAN limit.
  for (int k = 30; k < 2000; ++k) {
    c.enqueue({"SET", std::to_string(k), "s" + std::to_string(k)});
  }
  c.flush();
  for (int k = 30; k < 2000; ++k) ASSERT_TRUE(c.read_reply().ok()) << k;
  const Reply wide = c.command({"SCAN", "0", "2000"});
  ASSERT_EQ(wide.type, Reply::Type::kArray);
  ASSERT_EQ(wide.elems.size(), 4000u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(wide.elems[static_cast<std::size_t>(2 * i)].str,
              std::to_string(i));
    ASSERT_EQ(wide.elems[static_cast<std::size_t>(2 * i + 1)].str,
              "s" + std::to_string(i));
  }
}

TEST_F(NetServerTest, ScanOnHashedLayoutIsAnError) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  const Reply r = c.command({"SCAN", "0", "5"});
  ASSERT_TRUE(r.is_error());
  EXPECT_NE(r.str.find("ordered"), std::string::npos);
}

TEST_F(NetServerTest, TornFramesOverTheWire) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  std::string wire;
  append_request(wire, {"SET", "77", "torn"});
  append_request(wire, {"GET", "77"});
  // Dribble the two pipelined frames one byte at a time through the real
  // socket; the server-side incremental parser must reassemble them.
  for (const char ch : wire) {
    write_all(c.fd(), &ch, 1);
  }
  EXPECT_TRUE(c.read_reply().ok());
  EXPECT_EQ(c.read_reply().str, "torn");
}

TEST_F(NetServerTest, InlineCommandsOverTheWire) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  const std::string wire = "SET 3 inline-value\r\nGET 3\r\nPING\r\n";
  write_all(c.fd(), wire.data(), wire.size());
  EXPECT_TRUE(c.read_reply().ok());
  EXPECT_EQ(c.read_reply().str, "inline-value");
  EXPECT_EQ(c.read_reply().str, "PONG");
}

TEST_F(NetServerTest, MalformedFrameGetsErrorThenClose) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  // Valid request pipelined ahead of garbage: the valid one must still
  // answer, then the -ERR diagnostic, then EOF.
  std::string wire;
  append_request(wire, {"PING"});
  wire += "*borked\r\n";
  write_all(c.fd(), wire.data(), wire.size());
  EXPECT_EQ(c.read_reply().str, "PONG");
  EXPECT_TRUE(c.read_reply().is_error());
  EXPECT_THROW(c.read_reply(), std::runtime_error);  // connection closed
  // The server as a whole keeps serving.
  Client c2 = h.connect();
  EXPECT_EQ(c2.command({"PING"}).str, "PONG");
  EXPECT_GT(h.server.stats().protocol_errors.load(), 0u);
}

TEST_F(NetServerTest, PartialWriteResumption) {
  // Pipeline GETs whose replies vastly exceed the socket buffer while the
  // client reads nothing: the server must park the overflow, register for
  // EPOLLOUT, and resume — byte-perfect — once the client drains.
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  const std::string big(512 << 10, 'x');  // 512 KiB
  ASSERT_TRUE(c.command({"SET", "1", big}).ok());
  constexpr int kReads = 24;  // ~12 MiB of replies
  for (int i = 0; i < kReads; ++i) c.enqueue({"GET", "1"});
  c.flush();
  for (int i = 0; i < kReads; ++i) {
    const Reply r = c.read_reply();
    ASSERT_EQ(r.type, Reply::Type::kBulk) << i;
    ASSERT_EQ(r.str.size(), big.size()) << i;
    EXPECT_EQ(r.str, big) << i;
  }
}

TEST_F(NetServerTest, PeerVanishingMidReplyDoesNotKillTheServer) {
  // The SIGPIPE paper cut: the client pipelines requests with large
  // replies and disconnects without reading. The worker's writes hit a
  // dead socket (EPIPE) — the process must survive and keep serving.
  Harness<HashedKv> h(hashed());
  {
    Client c = h.connect();
    const std::string big(256 << 10, 'y');
    ASSERT_TRUE(c.command({"SET", "2", big}).ok());
    for (int i = 0; i < 16; ++i) c.enqueue({"GET", "2"});
    c.flush();
    // Drop the connection with the replies still in flight.
  }
  Client c2 = h.connect();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c2.command({"PING"}).str, "PONG");
  }
  EXPECT_EQ(c2.command({"GET", "2"}).str, std::string(256 << 10, 'y'));
}

/// CPU time (user + system) of the whole process, server threads included.
double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

TEST_F(NetServerTest, HalfClosedPeerDoesNotSpinItsWorker) {
  // A client that half-closes (SHUT_WR) with replies still unread: its
  // socket is at EOF, so it stays readable. The worker must stop reading
  // it and only wait for the socket to drain, not spin on EPOLLIN.
  ServerConfig cfg;
  cfg.workers = 1;
  Harness<HashedKv> h(hashed(), cfg);
  Client c = h.connect();
  const std::string big(512 << 10, 'h');  // 512 KiB
  ASSERT_TRUE(c.command({"SET", "1", big}).ok());
  constexpr int kReads = 24;  // ~12 MiB of replies, more than fit in flight
  for (int i = 0; i < kReads; ++i) c.enqueue({"GET", "1"});
  c.flush();
  ASSERT_EQ(::shutdown(c.fd(), SHUT_WR), 0);
  // Let the worker execute the GETs and see the EOF before measuring:
  // wait for the requests, then (for up to 2 s, so a slow sanitizer
  // build is not measured mid-copy) for a 50 ms slice that is idle.
  for (int spin = 0; spin < 500; ++spin) {
    if (h.server.stats().requests.load() >= 1 + kReads) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int slice = 0; slice < 40; ++slice) {
    const double before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (process_cpu_seconds() - before < 0.01) break;
  }
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double burned = process_cpu_seconds() - cpu0;
  EXPECT_LT(burned, 0.1) << "a half-closed peer kept its worker busy";
  // Every reply still arrives intact, then EOF.
  for (int i = 0; i < kReads; ++i) {
    const Reply r = c.read_reply();
    ASSERT_EQ(r.type, Reply::Type::kBulk) << i;
    ASSERT_EQ(r.str, big) << i;
  }
  EXPECT_THROW((void)c.read_reply(), std::runtime_error);
}

TEST_F(NetServerTest, StatsAndDurabilityCounters) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  ASSERT_TRUE(c.command({"SET", "4", "v"}).ok());
  const Reply r = c.command({"STATS"});
  ASSERT_EQ(r.type, Reply::Type::kBulk);
  EXPECT_NE(r.str.find("layout=hashed"), std::string::npos);
  EXPECT_NE(r.str.find("requests="), std::string::npos);
  EXPECT_NE(r.str.find("pfences="), std::string::npos);
  EXPECT_NE(r.str.find("keys=1"), std::string::npos);
}

TEST_F(NetServerTest, StatsCountsLoneAndBatchedKeys) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  // A lone GET is a run of one (scalar_ops); an MGET's keys are batched.
  EXPECT_TRUE(c.command({"GET", "1"}).is_null());
  EXPECT_EQ(c.command({"MGET", "1", "2", "3"}).elems.size(), 3u);
  const Reply r = c.command({"STATS"});
  EXPECT_NE(r.str.find(" batched_keys=3 scalar_ops=1 "), std::string::npos)
      << r.str;
}

TEST_F(NetServerTest, ShutdownCommandStopsTheServer) {
  auto h = std::make_unique<Harness<HashedKv>>(hashed());
  Client c = h->connect();
  ASSERT_TRUE(c.command({"SET", "9", "bye"}).ok());
  EXPECT_TRUE(c.command({"SHUTDOWN"}).ok());
  h->runner.join();  // run() must return on its own
  EXPECT_FALSE(h->runner.joinable());
  h.reset();
  // The store survives the server: data written before SHUTDOWN is there.
}

TEST_F(NetServerTest, ManyConnectionsRoundRobin) {
  ServerConfig cfg;
  cfg.workers = 3;
  Harness<HashedKv> h(hashed(), cfg);
  std::vector<Client> clients;
  for (int i = 0; i < 9; ++i) clients.push_back(h.connect());
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(
        clients[static_cast<std::size_t>(i)]
            .command({"SET", std::to_string(100 + i), "c" + std::to_string(i)})
            .ok());
  }
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(
        clients[static_cast<std::size_t>(i)]
            .command({"GET", std::to_string(100 + i)})
            .str,
        "c" + std::to_string(i));
  }
  EXPECT_EQ(h.server.stats().connections.load(), 9u);
}

// --- overload protection & degraded modes -----------------------------------

TEST_F(NetServerTest, MaxConnectionsShedsTheExcess) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_connections = 3;
  Harness<HashedKv> h(hashed(), cfg);

  std::vector<Client> keep;
  for (int i = 0; i < 3; ++i) {
    keep.push_back(h.connect());
    ASSERT_EQ(keep.back().command({"PING"}).str, "PONG");
  }
  // The 4th connection is accepted and immediately closed (shed): the
  // client observes EOF on its first round trip, never a hang.
  {
    Client extra = h.connect();
    EXPECT_THROW((void)extra.command({"PING"}), std::runtime_error);
  }
  // Waiting for the shed counter (not a fixed sleep): the close happens
  // on the listener thread an instant after connect() returns.
  for (int spin = 0; spin < 200; ++spin) {
    if (h.server.stats().shed_connections.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(h.server.stats().shed_connections.load(), 1u);
  // The connections under the cap keep serving...
  for (auto& c : keep) EXPECT_EQ(c.command({"PING"}).str, "PONG");
  // ...and closing one frees a slot for a newcomer.
  keep.pop_back();
  for (int spin = 0; spin < 200; ++spin) {
    if (h.server.stats().open_connections.load() < 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client fresh = h.connect();
  EXPECT_EQ(fresh.command({"PING"}).str, "PONG");
}

TEST_F(NetServerTest, IdleConnectionsAreReapedActiveOnesAreNot) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.idle_timeout_ms = 150;
  Harness<HashedKv> h(hashed(), cfg);

  Client idle = h.connect();
  Client busy = h.connect();
  ASSERT_EQ(idle.command({"PING"}).str, "PONG");

  // `busy` keeps talking through several full timeout windows — the
  // wheel must lazily re-bucket it, never reap it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool idle_closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    EXPECT_EQ(busy.command({"PING"}).str, "PONG");
    pollfd pfd{idle.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) > 0 && (pfd.revents & (POLLIN | POLLHUP))) {
      char byte;
      bool would_block = false;
      if (read_some(idle.fd(), &byte, 1, would_block) == 0) {
        idle_closed = true;  // EOF: the server reaped it
        break;
      }
    }
  }
  EXPECT_TRUE(idle_closed) << "idle connection outlived its timeout";
  EXPECT_GE(h.server.stats().idle_timeouts.load(), 1u);
  EXPECT_EQ(busy.command({"PING"}).str, "PONG");
}

TEST_F(NetServerTest, PoolExhaustionMapsToOutOfSpacePerRequest) {
  const std::string path =
      "/tmp/flit_net_server_oos_" + std::to_string(::getpid()) + ".pmem";
  pmem::FileRegion::destroy(path);
  {
    ServerConfig cfg;
    cfg.workers = 1;
    Harness<HashedKv> h(HashedKv::open(path, 2 << 20, 2, 64), cfg);
    Client c = h.connect();

    // Fill through the wire until the pool refuses.
    const std::string big(8 << 10, 'z');
    int k = 0;
    Reply fail;
    for (; k < 4096; ++k) {
      fail = c.command({"SET", std::to_string(k), big});
      if (fail.is_error()) break;
    }
    ASSERT_LT(k, 4096) << "a 2 MiB store should not take 4096 8 KiB SETs";
    ASSERT_GT(k, 0);
    EXPECT_NE(fail.str.find("OUT_OF_SPACE"), std::string::npos) << fail.str;

    // Per-request degradation: the same connection still answers reads
    // and deletes.
    EXPECT_EQ(c.command({"GET", "0"}).str, big);
    EXPECT_EQ(c.command({"DEL", "0"}).integer, 1);
    EXPECT_EQ(c.command({"DEL", "1"}).integer, 1);
    EXPECT_EQ(c.command({"GET", "0"}).type, Reply::Type::kNull);
    // (Instant reuse of the freed space is NOT asserted here: these 8 KiB
    // records exceed the pool's recycled size classes, and EBR only scans
    // its limbo every kScanThreshold retires — far more than two DELs.
    // Recycle-after-delete semantics are covered by exhaustion_test,
    // which drains the limbo explicitly.)
    // Exhaustion stays per-request: the next big SET fails the same way
    // while the connection keeps serving.
    EXPECT_NE(c.command({"SET", "0", big})
                  .str.find("OUT_OF_SPACE"),
              std::string::npos);
    EXPECT_EQ(c.command({"GET", "2"}).str, big);

    // health= stays ok: out-of-space is not a durability failure.
    const Reply stats = c.command({"STATS"});
    EXPECT_NE(stats.str.find("health=ok"), std::string::npos);
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(NetServerTest, StatsCarriesOverloadAndHealthFields) {
  Harness<HashedKv> h(hashed());
  Client c = h.connect();
  const Reply r = c.command({"STATS"});
  ASSERT_EQ(r.type, Reply::Type::kBulk);
  for (const char* field :
       {"health=ok", "open_conns=", "shed_conns=", "idle_timeouts=",
        "accept_backoffs=", "injected_faults="}) {
    EXPECT_NE(r.str.find(field), std::string::npos) << field;
  }
}

// Failpoint-armed regression (checked preset only): a kAlways commit
// whose msync fails must withdraw the event's acknowledgements — never
// ack a write the store could not make durable — and latch READONLY.
TEST_F(NetServerTest, CommitFailureWithdrawsAcksAndLatchesReadOnly) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  const std::string path =
      "/tmp/flit_net_server_ro_" + std::to_string(::getpid()) + ".pmem";
  pmem::FileRegion::destroy(path);
  core::Failpoints::instance().disarm_all();
  pmem::reset_durability_health();
  {
    ServerConfig cfg;
    cfg.workers = 1;
    HashedKv store = HashedKv::open(path, 4 << 20, 2, 64);
    store.set_durability_mode(kv::DurabilityMode::kAlways);
    Harness<HashedKv> h(std::move(store), cfg);
    Client c = h.connect();
    ASSERT_TRUE(c.command({"SET", "1", "acked-durable"}).ok());

    ASSERT_TRUE(core::Failpoints::instance().arm_from_spec(
        "pmem.msync=every:1@EIO"));
    // The SET applies, but its commit-point msync fails: the reply is
    // withdrawn and replaced by one READONLY diagnostic, then EOF.
    const Reply r = c.command({"SET", "2", "never-acked"});
    ASSERT_TRUE(r.is_error()) << r.str;
    EXPECT_NE(r.str.find("READONLY"), std::string::npos) << r.str;
    EXPECT_THROW((void)c.read_reply(), std::runtime_error);  // closed
    core::Failpoints::instance().disarm_all();

    // Reconnect: mutations are refused up front, reads still served.
    Client c2 = h.connect();
    const Reply put = c2.command({"SET", "3", "x"});
    ASSERT_TRUE(put.is_error());
    EXPECT_NE(put.str.find("READONLY"), std::string::npos);
    EXPECT_EQ(c2.command({"GET", "1"}).str, "acked-durable");
    const Reply stats = c2.command({"STATS"});
    EXPECT_NE(stats.str.find("health=readonly"), std::string::npos)
        << stats.str;
    EXPECT_NE(stats.str.find("injected_faults="), std::string::npos);
  }
  core::Failpoints::instance().disarm_all();
  pmem::reset_durability_health();
  pmem::FileRegion::destroy(path);
}

}  // namespace
}  // namespace flit::net
