// server.hpp — the epoll network front-end over the sharded KV store.
//
// One listener, N workers. The listener thread (the caller of run())
// accepts connections and deals them round-robin to workers; each worker
// owns a level-triggered epoll instance, its connections' buffers, and
// nothing else — no locks on the data path (the only cross-thread
// touchpoint is the eventfd-signaled adoption queue new connections
// arrive through).
//
// Per readiness event a worker drains the socket into the connection's
// incremental RequestParser, then executes *every* fully parsed request
// before writing anything back. This is where the network layer becomes
// the batch former for the PR 5 multi-op path: consecutive runs of the
// same command inside one pipelined burst are grouped into a single
// multi_get / multi_put / multi_remove (singleton runs fall back to the
// scalar ops), so a client pipelining k SETs pays the coalesced-fence
// batched-put bill (two pfences per run) instead of k scalar commits.
// Grouping only ever merges *adjacent* same-command requests, so the
// per-connection sequential semantics are byte-identical to scalar
// execution — a GET pipelined after a SET of the same key always sees
// the SET (replies stay in request order, runs never reorder across a
// different command).
//
// Commands (keys are int64 decimal; INT64_MIN/INT64_MAX reserved):
//
//   PING                        +PONG
//   SET k v                     +OK
//   GET k                       $len v | $-1
//   DEL k                       :1 | :0
//   MSET k v [k v ...]          +OK
//   MGET k [k ...]              *n of ($len v | $-1)
//   MDEL k [k ...]              :removed
//   SCAN start n                *2m of (key, value) — ordered layout only
//   STATS                       $len "requests=... pfences=..." telemetry
//   SHUTDOWN                    +OK, then the server stops cleanly
//
// Durability: after the writes of a readiness event commit — and before
// any reply is flushed — the server invokes the store's durability-mode
// hook (see kv::DurabilityMode), so `always` mode means "acknowledged ⇒
// msync-durable". Protocol errors get one final -ERR reply and the
// connection is closed (framing is lost); command errors (-ERR bad key,
// wrong arity) are per-request and the connection lives on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <poll.h>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/failpoint.hpp"
#include "kv/errors.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "pmem/stats.hpp"

namespace flit::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port())
  int workers = 2;
  int backlog = 128;
  ProtocolLimits limits{};
  /// Largest value SET accepts (kv::Record::kMaxValueBytes upstream; the
  /// parser's max_bulk_bytes usually binds first).
  std::size_t max_value_bytes = std::size_t{1} << 26;
  /// A connection whose unsent replies exceed this is a dead/stuck reader
  /// and is dropped rather than allowed to balloon the process. Below the
  /// bound the server degrades first: past max_out_buffer/2 it stops
  /// *reading* the connection (TCP backpressure reaches the client) and
  /// only keeps flushing, so the close is the last rung, not the first.
  std::size_t max_out_buffer = std::size_t{64} << 20;
  /// Overload protection: connections past this cap are accepted and
  /// immediately closed (shed) so the backlog cannot silt up with
  /// connections nobody will serve. 0 = uncapped.
  std::size_t max_connections = 4096;
  /// Idle-connection reaping: a connection with no inbound traffic for
  /// this long is closed by its worker's timer wheel (slow-loris /
  /// abandoned-peer defense). 0 = never (the default; tests and the
  /// bench server opt in).
  int idle_timeout_ms = 0;
  /// Cap on the listener's exponential accept backoff after fd-pressure
  /// failures (EMFILE/ENFILE/ENOBUFS/ENOMEM): 1 ms doubling up to this.
  int accept_backoff_max_ms = 200;
};

/// Process-wide serving counters (relaxed; read by STATS and tests).
// persist-lint: allow(serving statistics — heap-resident, zeroed at start)
struct ServerStats {
  std::atomic<std::uint64_t> connections{0};  ///< accepted, lifetime
  std::atomic<std::uint64_t> requests{0};     ///< commands executed
  std::atomic<std::uint64_t> batched_keys{0};  ///< keys via multi-ops
  std::atomic<std::uint64_t> scalar_ops{0};    ///< keys via scalar ops
  std::atomic<std::uint64_t> protocol_errors{0};
  // Overload/degradation telemetry (see ISSUE: robustness runs must be
  // diffable like perf runs — these feed the STATS reply's shed_conns=,
  // idle_timeouts=, accept_backoffs= fields).
  std::atomic<std::uint64_t> open_connections{0};   ///< gauge, not lifetime
  std::atomic<std::uint64_t> shed_connections{0};   ///< over max_connections
  std::atomic<std::uint64_t> idle_timeouts{0};      ///< reaped by the wheel
  std::atomic<std::uint64_t> accept_backoffs{0};    ///< fd-pressure episodes
};

/// The epoll front-end over a kv::Store or kv::OrderedStore; SCAN is
/// served only by the ordered layout (KV::kOrdered).
template <class KV>
class Server {
 public:
  Server(KV& store, ServerConfig cfg)
      : store_(store), cfg_(std::move(cfg)) {
    if (cfg_.workers < 1) cfg_.workers = 1;
    ignore_sigpipe();
    listen_fd_ = listen_tcp(cfg_.host, cfg_.port, cfg_.backlog);
    port_ = local_port(listen_fd_.get());
    stop_event_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!stop_event_.valid()) {
      throw std::runtime_error("net: eventfd failed");
    }
    workers_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i) {
      workers_.push_back(std::make_unique<Worker>(*this));
    }
  }

  ~Server() {
    shutdown();
    join_workers();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  const ServerStats& stats() const noexcept { return stats_; }

  /// Accept loop; blocks the calling thread until shutdown() (or a
  /// SHUTDOWN command) stops the server, then joins the workers.
  void run() {
    for (auto& w : workers_) w->start();
    std::size_t next = 0;
    int backoff_ms = 0;  // nonzero while recovering from fd pressure
    while (!stop_.load(std::memory_order_acquire)) {
      if (backoff_ms > 0) {
        // fd pressure (EMFILE and friends): the listener is
        // level-triggered, so polling it while we cannot accept would
        // spin. Watch only the stop event for the backoff interval.
        pollfd pfd{stop_event_.get(), POLLIN, 0};
        if (::poll(&pfd, 1, backoff_ms) < 0 && errno != EINTR) {
          throw std::runtime_error(std::string("net: poll: ") +
                                   std::strerror(errno));
        }
        if (stop_.load(std::memory_order_acquire)) break;
      } else {
        pollfd pfds[2] = {{listen_fd_.get(), POLLIN, 0},
                          {stop_event_.get(), POLLIN, 0}};
        if (::poll(pfds, 2, -1) < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error(std::string("net: poll: ") +
                                   std::strerror(errno));
        }
        if (!(pfds[0].revents & POLLIN)) continue;
      }
      for (;;) {
        int transient = 0;
        SocketFd conn = accept_nonblocking(listen_fd_.get(), &transient);
        if (!conn.valid()) {
          if (transient == EMFILE || transient == ENFILE ||
              transient == ENOBUFS || transient == ENOMEM) {
            // Exponential backoff: stop draining the backlog until fds
            // free up; clients wait in the (bounded) listen queue.
            backoff_ms = backoff_ms > 0
                             ? std::min(backoff_ms * 2,
                                        cfg_.accept_backoff_max_ms)
                             : 1;
            stats_.accept_backoffs.fetch_add(1, std::memory_order_relaxed);
          }
          // ECONNABORTED/EPROTO: that one connection died; keep draining.
          break;
        }
        backoff_ms = 0;
        if (cfg_.max_connections > 0 &&
            stats_.open_connections.load(std::memory_order_relaxed) >=
                cfg_.max_connections) {
          // Shed: accept-and-close beats leaving the connection in the
          // backlog — the client learns immediately instead of hanging.
          stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
          continue;  // SocketFd dtor closes
        }
        set_nodelay(conn.get());
        stats_.connections.fetch_add(1, std::memory_order_relaxed);
        stats_.open_connections.fetch_add(1, std::memory_order_relaxed);
        workers_[next]->adopt(std::move(conn));
        next = (next + 1) % workers_.size();
      }
    }
    join_workers();
  }

  /// Stop accepting, wake every worker, drain and exit. Safe from any
  /// thread (including a worker executing SHUTDOWN) and from a signal
  /// handler (an atomic store plus eventfd writes).
  void shutdown() noexcept {
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    if (stop_event_.valid()) {
      [[maybe_unused]] ssize_t r =
          ::write(stop_event_.get(), &one, sizeof(one));
    }
    for (auto& w : workers_) w->wake();
  }

 private:
  // --- per-worker event loop ------------------------------------------------

  struct Conn {
    SocketFd fd;
    RequestParser parser;
    std::string out;
    std::size_t out_pos = 0;
    bool want_write = false;   ///< EPOLLOUT currently registered
    bool closing = false;      ///< flush remaining replies, then close
    bool read_paused = false;  ///< EPOLLIN dropped: output backpressure
    /// Last inbound traffic; the timer wheel reaps connections idle past
    /// cfg_.idle_timeout_ms.
    std::chrono::steady_clock::time_point last_active{};
    /// Adoption token: wheel entries carry (fd, token) so a reused fd
    /// number never inherits a stale expiry from its predecessor.
    std::uint64_t token = 0;

    explicit Conn(SocketFd f, const ProtocolLimits& lim)
        : fd(std::move(f)), parser(lim) {}
  };

  struct Worker {
    explicit Worker(Server& s) : server(s) {
      epfd.reset(::epoll_create1(EPOLL_CLOEXEC));
      wakefd.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
      if (!epfd.valid() || !wakefd.valid()) {
        throw std::runtime_error("net: epoll/eventfd setup failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = wakefd.get();
      if (::epoll_ctl(epfd.get(), EPOLL_CTL_ADD, wakefd.get(), &ev) != 0) {
        throw std::runtime_error("net: epoll_ctl(wakefd) failed");
      }
    }

    void start() {
      th = std::thread([this] { server.worker_loop(*this); });
    }

    /// Listener-side: hand over an accepted connection.
    void adopt(SocketFd fd) {
      {
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back(fd.release());
      }
      wake();
    }

    void wake() noexcept {
      const std::uint64_t one = 1;
      if (wakefd.valid()) {
        [[maybe_unused]] ssize_t r =
            ::write(wakefd.get(), &one, sizeof(one));
      }
    }

    Server& server;
    SocketFd epfd, wakefd;
    std::thread th;
    std::mutex mu;
    std::vector<int> pending;  // adopted fds, guarded by mu
    std::unordered_map<int, std::unique_ptr<Conn>> conns;

    // Coarse idle-timeout wheel (only consulted when cfg_.idle_timeout_ms
    // > 0): each adopted connection is dropped into the slot one full
    // timeout ahead; when the sweep reaches the slot, entries whose
    // connection has been active since are lazily re-bucketed instead of
    // tracked on every request — the hot path only stamps last_active.
    static constexpr std::size_t kWheelSlots = 16;
    std::vector<std::vector<std::pair<int, std::uint64_t>>> wheel{
        kWheelSlots};
    std::size_t wheel_pos = 0;
    std::uint64_t next_token = 1;
    std::chrono::steady_clock::time_point last_tick{};
  };

  void join_workers() {
    for (auto& w : workers_) {
      if (w->th.joinable()) w->th.join();
    }
  }

  /// One wheel slot spans tick_ms; the full wheel spans roughly one
  /// timeout, so an idle connection is reaped within ~2 timeouts worst
  /// case (coarse by design — idle reaping needs no precision).
  int tick_ms() const noexcept {
    return std::clamp(cfg_.idle_timeout_ms / int(Worker::kWheelSlots), 10,
                      250);
  }

  void worker_loop(Worker& w) {
    epoll_event events[64];
    std::vector<Request> reqs;
    const bool reap_idle = cfg_.idle_timeout_ms > 0;
    const auto tick = std::chrono::milliseconds(tick_ms());
    w.last_tick = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(w.epfd.get(), events, 64,
                                 reap_idle ? tick_ms() : -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failed; abandon the worker
      }
      for (int i = 0; i < n; ++i) {
        if (stop_.load(std::memory_order_acquire)) break;
        const int fd = events[i].data.fd;
        if (fd == w.wakefd.get()) {
          drain_wake(w);
          continue;
        }
        const auto it = w.conns.find(fd);
        if (it == w.conns.end()) continue;  // closed earlier this batch
        Conn& c = *it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(w, fd);
          continue;
        }
        bool alive = true;
        if (events[i].events & EPOLLIN) {
          alive = handle_readable(w, c, reqs);
        }
        if (alive && (events[i].events & EPOLLOUT)) {
          alive = flush(w, c);
        }
        if (!alive) close_conn(w, fd);
      }
      if (reap_idle) {
        // Elapsed-time driven, not per-wakeup: a busy worker whose
        // epoll_wait returns early still advances the wheel on schedule.
        const auto now = std::chrono::steady_clock::now();
        while (now - w.last_tick >= tick) {
          w.last_tick += tick;
          sweep_wheel_slot(w, now);
        }
      }
    }
    stats_.open_connections.fetch_sub(w.conns.size(),
                                      std::memory_order_relaxed);
    w.conns.clear();  // SocketFd dtors close everything
  }

  /// Advance the wheel one slot and expire (or lazily re-bucket) its
  /// entries. Entries whose (fd, token) no longer matches a live
  /// connection are stale leftovers of a closed/reused fd: dropped.
  void sweep_wheel_slot(Worker& w,
                        std::chrono::steady_clock::time_point now) {
    w.wheel_pos = (w.wheel_pos + 1) % Worker::kWheelSlots;
    auto slot = std::move(w.wheel[w.wheel_pos]);
    w.wheel[w.wheel_pos].clear();
    const auto timeout = std::chrono::milliseconds(cfg_.idle_timeout_ms);
    for (const auto& [fd, token] : slot) {
      const auto it = w.conns.find(fd);
      if (it == w.conns.end() || it->second->token != token) continue;
      Conn& c = *it->second;
      const auto expires = c.last_active + timeout;
      if (expires <= now) {
        stats_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        close_conn(w, fd);
        continue;
      }
      // Saw traffic since enqueue: re-bucket at (about) its new expiry.
      const auto remain_ticks =
          std::chrono::duration_cast<std::chrono::milliseconds>(expires -
                                                                now)
              .count() /
          tick_ms();
      const std::size_t ahead = std::clamp<std::size_t>(
          static_cast<std::size_t>(remain_ticks) + 1, 1,
          Worker::kWheelSlots - 1);
      w.wheel[(w.wheel_pos + ahead) % Worker::kWheelSlots].emplace_back(
          fd, token);
    }
  }

  void drain_wake(Worker& w) {
    std::uint64_t junk;
    while (::read(w.wakefd.get(), &junk, sizeof(junk)) > 0) {
    }
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lk(w.mu);
      adopted.swap(w.pending);
    }
    for (const int fd : adopted) {
      auto conn = std::make_unique<Conn>(SocketFd(fd), cfg_.limits);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(w.epfd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
        stats_.open_connections.fetch_sub(1, std::memory_order_relaxed);
        continue;  // conn dtor closes the fd
      }
      conn->last_active = std::chrono::steady_clock::now();
      conn->token = w.next_token++;
      if (cfg_.idle_timeout_ms > 0) {
        // First expiry check one full wheel revolution out.
        w.wheel[(w.wheel_pos + Worker::kWheelSlots - 1) %
                Worker::kWheelSlots]
            .emplace_back(fd, conn->token);
      }
      w.conns.emplace(fd, std::move(conn));
    }
  }

  void close_conn(Worker& w, int fd) {
    (void)::epoll_ctl(w.epfd.get(), EPOLL_CTL_DEL, fd, nullptr);
    if (w.conns.erase(fd) > 0) {  // SocketFd dtor closes
      stats_.open_connections.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Re-register the connection's epoll interest from its want_write /
  /// read_paused flags. Returns false when epoll_ctl itself failed.
  bool update_interest(Worker& w, Conn& c) {
    epoll_event ev{};
    ev.events = (c.read_paused ? 0u : static_cast<unsigned>(EPOLLIN)) |
                (c.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
    ev.data.fd = c.fd.get();
    return ::epoll_ctl(w.epfd.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) == 0;
  }

  /// Drain the socket, execute every complete request, flush replies.
  /// Returns false when the connection should be closed.
  bool handle_readable(Worker& w, Conn& c, std::vector<Request>& reqs) {
    char buf[64 << 10];
    bool saw_eof = false;
    for (;;) {
      bool would_block = false;
      const ssize_t r = read_some(c.fd.get(), buf, sizeof(buf), would_block);
      if (r > 0) {
        c.last_active = std::chrono::steady_clock::now();
        c.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
        continue;
      }
      if (would_block) break;
      saw_eof = true;  // r == 0
      break;
    }

    reqs.clear();
    Request req;
    ParseStatus st;
    while ((st = c.parser.next(req)) == ParseStatus::kOk) {
      reqs.push_back(std::move(req));
    }
    bool shutdown_after = false;
    if (!reqs.empty()) execute_batch(c, reqs, shutdown_after);
    if (st == ParseStatus::kError) {
      // Framing is lost: one final diagnostic, then close after flushing.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      append_error(c.out, "ERR " + c.parser.error());
      c.closing = true;
    }
    if (saw_eof) c.closing = true;
    if (c.out.size() - c.out_pos > cfg_.max_out_buffer) return false;
    if (!c.closing && !c.read_paused &&
        c.out.size() - c.out_pos > cfg_.max_out_buffer / 2) {
      // Degrade before dropping: stop reading so TCP backpressure reaches
      // the slow reader; only crossing max_out_buffer itself closes.
      c.read_paused = true;
      if (!update_interest(w, c)) return false;
    }
    const bool alive = flush(w, c);
    if (shutdown_after) {
      // Best effort: the +OK should reach the client before the process
      // stops accepting writes. flush() already pushed what the socket
      // would take.
      shutdown();
      return false;
    }
    return alive;
  }

  /// Write out what the socket will take; keep EPOLLOUT interest in sync.
  /// Returns false when the connection is finished (flushed-and-closing,
  /// or the peer is gone).
  bool flush(Worker& w, Conn& c) {
    while (c.out_pos < c.out.size()) {
      bool would_block = false;
      const ssize_t r = write_some(c.fd.get(), c.out.data() + c.out_pos,
                                   c.out.size() - c.out_pos, would_block);
      if (r > 0) {
        c.out_pos += static_cast<std::size_t>(r);
        continue;
      }
      if (!would_block) return false;  // peer closed mid-write
      if (!c.want_write) {
        c.want_write = true;
        if (!update_interest(w, c)) return false;
      }
      return true;  // resume on EPOLLOUT
    }
    c.out.clear();
    c.out_pos = 0;
    const bool resume_read = c.read_paused && !c.closing;
    if (c.want_write || resume_read) {
      c.want_write = false;
      c.read_paused = false;  // drained: backpressure over
      if (!update_interest(w, c)) return false;
    }
    return !c.closing;
  }

  // --- command execution ----------------------------------------------------

  enum class Cmd {
    kGet,
    kSet,
    kDel,
    kMget,
    kMset,
    kMdel,
    kScan,
    kPing,
    kStats,
    kShutdown,
    kUnknown,
  };

  static Cmd classify(const Request& r) noexcept {
    std::string up = r.argv[0];
    for (char& ch : up) {
      if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
    }
    if (up == "GET") return Cmd::kGet;
    if (up == "SET") return Cmd::kSet;
    if (up == "DEL") return Cmd::kDel;
    if (up == "MGET") return Cmd::kMget;
    if (up == "MSET") return Cmd::kMset;
    if (up == "MDEL") return Cmd::kMdel;
    if (up == "SCAN") return Cmd::kScan;
    if (up == "PING") return Cmd::kPing;
    if (up == "STATS") return Cmd::kStats;
    if (up == "SHUTDOWN") return Cmd::kShutdown;
    return Cmd::kUnknown;
  }

  static bool reserved_key(std::int64_t k) noexcept {
    return k == std::numeric_limits<std::int64_t>::min() ||
           k == std::numeric_limits<std::int64_t>::max();
  }

  /// Validate one key argument; sets `err` (reply text) on failure.
  static std::optional<std::int64_t> parse_key(const std::string& s,
                                               std::string& err) {
    const auto k = detail::parse_i64(s);
    if (!k) {
      err = "ERR key is not an int64";
      return std::nullopt;
    }
    if (reserved_key(*k)) {
      err = "ERR INT64_MIN/INT64_MAX are reserved";
      return std::nullopt;
    }
    return k;
  }

  /// Execute every request of one readiness event: adjacent same-command
  /// runs of GET/SET/DEL collapse into one multi-op (length 1 runs stay
  /// scalar), everything else executes one by one. Replies are appended
  /// in request order. The durability hook runs once, after all of the
  /// event's writes and before the caller flushes replies.
  void execute_batch(Conn& c, std::vector<Request>& reqs,
                     bool& shutdown_after) {
    stats_.requests.fetch_add(reqs.size(), std::memory_order_relaxed);
    // Replies appended past this mark are withdrawn if the commit-point
    // durability hook fails: "acknowledged ⇒ durable" must hold even
    // when msync stops cooperating.
    const std::size_t out_mark = c.out.size();
    bool wrote = false;
    std::size_t i = 0;
    while (i < reqs.size()) {
      const Cmd cmd = classify(reqs[i]);
      if (cmd == Cmd::kGet || cmd == Cmd::kSet || cmd == Cmd::kDel) {
        std::size_t j = i + 1;
        while (j < reqs.size() && classify(reqs[j]) == cmd) ++j;
        const std::span<Request> run(reqs.data() + i, j - i);
        switch (cmd) {
          case Cmd::kGet:
            run_gets(c, run);
            break;
          case Cmd::kSet:
            run_sets(c, run, wrote);
            break;
          default:
            run_dels(c, run, wrote);
            break;
        }
        i = j;
        continue;
      }
      execute_single(c, reqs[i], cmd, wrote, shutdown_after);
      ++i;
    }
    if (wrote) {
      try {
        store_.note_write_commit();
      } catch (const std::exception&) {
        // The event's writes cannot be acknowledged as durable (kAlways
        // msync failed; the store has latched read-only). The reply
        // stream no longer corresponds to the request stream if we just
        // substitute errors, so withdraw every reply of this event,
        // send one diagnostic, and close — the client re-syncs on
        // reconnect and sees per-request -ERR READONLY from then on.
        c.out.resize(out_mark);
        append_error(c.out,
                     "ERR READONLY commit failed; acknowledgements "
                     "withdrawn, closing");
        c.closing = true;
      }
    }
  }

  /// A run of GETs: one multi_get (scalar get for a singleton). Requests
  /// that fail validation get their error reply in place; the valid rest
  /// still batch.
  void run_gets(Conn& c, std::span<Request> run) {
    if (run.size() == 1) {
      std::string err;
      const Request& r = run[0];
      if (r.argv.size() != 2) {
        append_error(c.out, "ERR GET expects: GET key");
        return;
      }
      const auto k = parse_key(r.argv[1], err);
      if (!k) {
        append_error(c.out, err);
        return;
      }
      stats_.scalar_ops.fetch_add(1, std::memory_order_relaxed);
      const auto v = store_.get(*k);
      if (v) {
        append_bulk(c.out, *v);
      } else {
        append_null(c.out);
      }
      return;
    }
    std::vector<std::int64_t> keys;
    std::vector<std::string> errs(run.size());
    std::vector<std::size_t> slot(run.size(), SIZE_MAX);
    keys.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i].argv.size() != 2) {
        errs[i] = "ERR GET expects: GET key";
        continue;
      }
      const auto k = parse_key(run[i].argv[1], errs[i]);
      if (!k) continue;
      slot[i] = keys.size();
      keys.push_back(*k);
    }
    stats_.batched_keys.fetch_add(keys.size(), std::memory_order_relaxed);
    const auto vals = store_.multi_get(keys);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (slot[i] == SIZE_MAX) {
        append_error(c.out, errs[i]);
      } else if (vals[slot[i]]) {
        append_bulk(c.out, *vals[slot[i]]);
      } else {
        append_null(c.out);
      }
    }
  }

  /// A run of SETs: one multi_put. Validation (arity, key syntax,
  /// reserved keys, value size) happens before anything is applied, so a
  /// bad element costs only its own error reply.
  void run_sets(Conn& c, std::span<Request> run, bool& wrote) {
    if (run.size() == 1) {
      const Request& r = run[0];
      std::string err;
      if (r.argv.size() != 3) {
        append_error(c.out, "ERR SET expects: SET key value");
        return;
      }
      const auto k = parse_key(r.argv[1], err);
      if (!k) {
        append_error(c.out, err);
        return;
      }
      if (r.argv[2].size() > cfg_.max_value_bytes) {
        append_error(c.out, "ERR value too large");
        return;
      }
      stats_.scalar_ops.fetch_add(1, std::memory_order_relaxed);
      if (!apply_store(c, [&] { store_.put(*k, r.argv[2]); }, &wrote)) {
        return;
      }
      append_simple(c.out, "OK");
      return;
    }
    std::vector<std::pair<std::int64_t, std::string_view>> kvs;
    std::vector<std::string> errs(run.size());
    std::vector<bool> valid(run.size(), false);
    kvs.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Request& r = run[i];
      if (r.argv.size() != 3) {
        errs[i] = "ERR SET expects: SET key value";
        continue;
      }
      const auto k = parse_key(r.argv[1], errs[i]);
      if (!k) continue;
      if (r.argv[2].size() > cfg_.max_value_bytes) {
        errs[i] = "ERR value too large";
        continue;
      }
      valid[i] = true;
      kvs.emplace_back(*k, std::string_view(r.argv[2]));
    }
    stats_.batched_keys.fetch_add(kvs.size(), std::memory_order_relaxed);
    std::string batch_err;
    const bool applied =
        apply_store_err(batch_err, [&] { store_.multi_put(kvs); }, &wrote);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (!valid[i]) {
        append_error(c.out, errs[i]);
      } else if (applied) {
        append_simple(c.out, "OK");
      } else {
        append_error(c.out, batch_err);
      }
    }
  }

  /// A run of DELs: one multi_remove.
  void run_dels(Conn& c, std::span<Request> run, bool& wrote) {
    if (run.size() == 1) {
      const Request& r = run[0];
      std::string err;
      if (r.argv.size() != 2) {
        append_error(c.out, "ERR DEL expects: DEL key");
        return;
      }
      const auto k = parse_key(r.argv[1], err);
      if (!k) {
        append_error(c.out, err);
        return;
      }
      stats_.scalar_ops.fetch_add(1, std::memory_order_relaxed);
      bool removed = false;
      if (!apply_store(c, [&] { removed = store_.remove(*k); }, &wrote)) {
        return;
      }
      append_integer(c.out, removed ? 1 : 0);
      return;
    }
    std::vector<std::int64_t> keys;
    std::vector<std::string> errs(run.size());
    std::vector<std::size_t> slot(run.size(), SIZE_MAX);
    keys.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i].argv.size() != 2) {
        errs[i] = "ERR DEL expects: DEL key";
        continue;
      }
      const auto k = parse_key(run[i].argv[1], errs[i]);
      if (!k) continue;
      slot[i] = keys.size();
      keys.push_back(*k);
    }
    stats_.batched_keys.fetch_add(keys.size(), std::memory_order_relaxed);
    std::vector<bool> removed;
    std::string batch_err;
    const bool applied = apply_store_err(
        batch_err, [&] { removed = store_.multi_remove(keys); }, &wrote);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (slot[i] == SIZE_MAX) {
        append_error(c.out, errs[i]);
      } else if (applied) {
        append_integer(c.out, removed[slot[i]] ? 1 : 0);
      } else {
        append_error(c.out, batch_err);
      }
    }
  }

  void execute_single(Conn& c, const Request& r, Cmd cmd, bool& wrote,
                      bool& shutdown_after) {
    std::string err;
    switch (cmd) {
      case Cmd::kPing:
        append_simple(c.out, "PONG");
        return;
      case Cmd::kMget: {
        if (r.argv.size() < 2) {
          append_error(c.out, "ERR MGET expects: MGET key [key ...]");
          return;
        }
        std::vector<std::int64_t> keys;
        keys.reserve(r.argv.size() - 1);
        for (std::size_t i = 1; i < r.argv.size(); ++i) {
          const auto k = parse_key(r.argv[i], err);
          if (!k) {
            append_error(c.out, err);
            return;
          }
          keys.push_back(*k);
        }
        stats_.batched_keys.fetch_add(keys.size(),
                                      std::memory_order_relaxed);
        const auto vals = store_.multi_get(keys);
        append_array_header(c.out, vals.size());
        for (const auto& v : vals) {
          if (v) {
            append_bulk(c.out, *v);
          } else {
            append_null(c.out);
          }
        }
        return;
      }
      case Cmd::kMset: {
        if (r.argv.size() < 3 || r.argv.size() % 2 != 1) {
          append_error(c.out, "ERR MSET expects: MSET key value [k v ...]");
          return;
        }
        std::vector<std::pair<std::int64_t, std::string_view>> kvs;
        kvs.reserve((r.argv.size() - 1) / 2);
        for (std::size_t i = 1; i + 1 < r.argv.size(); i += 2) {
          const auto k = parse_key(r.argv[i], err);
          if (!k) {
            append_error(c.out, err);
            return;
          }
          if (r.argv[i + 1].size() > cfg_.max_value_bytes) {
            append_error(c.out, "ERR value too large");
            return;
          }
          kvs.emplace_back(*k, std::string_view(r.argv[i + 1]));
        }
        stats_.batched_keys.fetch_add(kvs.size(), std::memory_order_relaxed);
        if (!apply_store(c, [&] { store_.multi_put(kvs); }, &wrote)) return;
        append_simple(c.out, "OK");
        return;
      }
      case Cmd::kMdel: {
        if (r.argv.size() < 2) {
          append_error(c.out, "ERR MDEL expects: MDEL key [key ...]");
          return;
        }
        std::vector<std::int64_t> keys;
        keys.reserve(r.argv.size() - 1);
        for (std::size_t i = 1; i < r.argv.size(); ++i) {
          const auto k = parse_key(r.argv[i], err);
          if (!k) {
            append_error(c.out, err);
            return;
          }
          keys.push_back(*k);
        }
        stats_.batched_keys.fetch_add(keys.size(),
                                      std::memory_order_relaxed);
        std::vector<bool> removed;
        if (!apply_store(
                c, [&] { removed = store_.multi_remove(keys); }, &wrote)) {
          return;
        }
        std::int64_t count = 0;
        for (const bool b : removed) count += b ? 1 : 0;
        append_integer(c.out, count);
        return;
      }
      case Cmd::kScan: {
        if constexpr (KV::kOrdered) {
          if (r.argv.size() != 3) {
            append_error(c.out, "ERR SCAN expects: SCAN start count");
            return;
          }
          // The start key may be a sentinel (scan(INT64_MIN) = smallest
          // keys), so it skips the reserved-key check.
          const auto start = detail::parse_i64(r.argv[1]);
          const auto count = detail::parse_i64(r.argv[2]);
          if (!start || !count || *count < 0) {
            append_error(c.out, "ERR SCAN start/count must be integers");
            return;
          }
          if (static_cast<std::uint64_t>(*count) > kMaxScanPairs) {
            append_error(c.out, "ERR SCAN count too large");
            return;
          }
          scan_buf_.clear();
          store_.scan(*start, static_cast<std::size_t>(*count), scan_buf_);
          stats_.batched_keys.fetch_add(scan_buf_.size(),
                                        std::memory_order_relaxed);
          append_array_header(c.out, 2 * scan_buf_.size());
          for (const auto& [k, v] : scan_buf_) {
            append_bulk(c.out, std::to_string(k));
            append_bulk(c.out, v);
          }
        } else {
          append_error(c.out, "ERR SCAN requires the ordered layout");
        }
        return;
      }
      case Cmd::kStats: {
        const pmem::StatsSnapshot ps = pmem::stats_snapshot();
        const auto ckpts =
            static_cast<unsigned long long>(store_.checkpoints());
        const char* health = kv::to_string(store_.health());
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "layout=%s requests=%llu connections=%llu batched_keys=%llu "
            "scalar_ops=%llu protocol_errors=%llu pwbs=%llu pfences=%llu "
            "checkpoints=%llu keys=%llu health=%s open_conns=%llu "
            "shed_conns=%llu idle_timeouts=%llu accept_backoffs=%llu "
            "injected_faults=%llu",
            KV::kOrdered ? "ordered" : "hashed",
            load(stats_.requests), load(stats_.connections),
            load(stats_.batched_keys), load(stats_.scalar_ops),
            load(stats_.protocol_errors),
            static_cast<unsigned long long>(ps.pwbs),
            static_cast<unsigned long long>(ps.pfences), ckpts,
            static_cast<unsigned long long>(store_.size()), health,
            load(stats_.open_connections), load(stats_.shed_connections),
            load(stats_.idle_timeouts), load(stats_.accept_backoffs),
            static_cast<unsigned long long>(core::fp_total_injected()));
        append_bulk(c.out, buf);
        return;
      }
      case Cmd::kShutdown:
        append_simple(c.out, "OK");
        c.closing = true;
        shutdown_after = true;
        return;
      case Cmd::kUnknown:
      default:
        append_error(c.out, "ERR unknown command '" + r.argv[0] + "'");
        return;
    }
  }

  // persist-lint: allow(reads the volatile ServerStats counters above)
  static unsigned long long load(
      const std::atomic<std::uint64_t>& a) noexcept {
    return static_cast<unsigned long long>(
        a.load(std::memory_order_relaxed));
  }

  /// Run a store mutation, converting exceptions (pool exhaustion,
  /// length/argument errors that slipped past validation) into one -ERR
  /// reply. Returns false when the mutation threw — the server keeps
  /// serving; the store's documented partial-application rules apply.
  /// `mutated`, when given, is set whenever the store may have changed —
  /// on success, and on failures that can leave a partially applied batch
  /// (OutOfSpace fails element k with the prefix landed). It is NOT set
  /// for StoreReadOnly: that refusal happens up front, before anything is
  /// applied, so there is nothing for the commit hook to make durable —
  /// and calling checkpoint() on a latched store would just throw again
  /// and needlessly tear the connection down.
  template <class Fn>
  bool apply_store(Conn& c, Fn&& fn, bool* mutated = nullptr) {
    std::string err;
    if (apply_store_err(err, std::forward<Fn>(fn), mutated)) return true;
    append_error(c.out, err);
    return false;
  }

  /// Error-capturing variant for batched runs: the caller owes one reply
  /// per request of the run, so the diagnostic must be emitted per
  /// element, not appended once (which would desynchronize the pipeline
  /// by an extra reply).
  template <class Fn>
  bool apply_store_err(std::string& err, Fn&& fn, bool* mutated = nullptr) {
    try {
      fn();
      if (mutated != nullptr) *mutated = true;
      return true;
    } catch (const kv::OutOfSpace&) {
      // Pool exhausted: this mutation failed cleanly (strong exception
      // safety upstream); reads/deletes on this connection keep working.
      if (mutated != nullptr) *mutated = true;
      err = "ERR OUT_OF_SPACE store is full; reads and deletes still "
            "served";
      return false;
    } catch (const std::bad_alloc&) {
      if (mutated != nullptr) *mutated = true;
      err = "ERR out of persistent memory";
      return false;
    } catch (const kv::StoreReadOnly&) {
      // Durability latch (failed msync): mutations refused up front,
      // reads still answered from the in-memory index.
      err = "ERR READONLY store is degraded read-only (durability "
            "failure); reads still served";
      return false;
    } catch (const std::exception& e) {
      if (mutated != nullptr) *mutated = true;
      err = std::string("ERR ") + e.what();
      return false;
    }
  }

  KV& store_;
  ServerConfig cfg_;
  SocketFd listen_fd_;
  SocketFd stop_event_;
  std::uint16_t port_ = 0;
  // persist-lint: allow(shutdown latch — volatile process state)
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
  ServerStats stats_;
  /// SCAN scratch: per-thread because every worker runs SCANs for its
  /// own connections concurrently with the others.
  static thread_local std::vector<std::pair<std::int64_t, std::string>>
      scan_buf_;
};

template <class KV>
thread_local std::vector<std::pair<std::int64_t, std::string>>
    Server<KV>::scan_buf_;

}  // namespace flit::net
