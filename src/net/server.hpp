// server.hpp — the epoll network front-end over the sharded KV store.
//
// One listener, N workers. The listener thread (the caller of run())
// accepts connections and deals them round-robin to workers; each worker
// owns a level-triggered epoll instance, its connections' buffers, and
// nothing else — no locks on the data path (the only cross-thread
// touchpoint is the eventfd-signaled adoption queue new connections
// arrive through).
//
// Per readiness event a worker reads the socket into the connection's
// incremental RequestParser, then executes *every* fully parsed request
// before writing anything back. This is where the network layer becomes
// the batch former for the store's multi-op path: consecutive runs of
// the same command inside one pipelined burst are grouped into a single
// multi_get / multi_put / multi_remove (a lone request is a run of one),
// so a client pipelining k SETs pays the coalesced-fence batched-put
// bill (two pfences per run) instead of k separate commits.
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
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <poll.h>
#include <pthread.h>
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
  /// Overload protection: connections past this cap are accepted and
  /// immediately closed (shed) so the backlog cannot silt up with
  /// connections nobody will serve. 0 = uncapped.
  std::size_t max_connections = 4096;
  /// Idle-connection reaping: a connection with no inbound traffic for
  /// this long is closed by its worker's periodic idle scan (slow-loris /
  /// abandoned-peer defense). 0 = never (the default; tests and the
  /// bench server opt in).
  int idle_timeout_ms = 0;
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
  std::atomic<std::uint64_t> idle_timeouts{0};      ///< reaped when idle
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
    listen_fd_ = listen_tcp(cfg_.host, cfg_.port);
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
    for (std::size_t i = 0; i < workers_.size(); ++i) workers_[i]->start(i);
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
                             ? std::min(backoff_ms * 2, kAcceptBackoffMaxMs)
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
  /// Cap on the listener's exponential accept backoff after fd-pressure
  /// failures (EMFILE/ENFILE/ENOBUFS/ENOMEM): 1 ms doubling up to this.
  static constexpr int kAcceptBackoffMaxMs = 200;
  /// A connection whose unsent replies exceed this is a dead/stuck reader
  /// and is dropped rather than allowed to balloon the process. Below the
  /// bound the server degrades first: past half of it, it stops *reading*
  /// the connection (TCP backpressure reaches the client) and only keeps
  /// flushing, so the close is the last rung, not the first.
  static constexpr std::size_t kMaxOutBuffer = std::size_t{64} << 20;

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

  // --- per-worker event loop ------------------------------------------------

  struct Conn {
    SocketFd fd;
    RequestParser parser;
    std::string out;
    std::size_t out_pos = 0;
    bool want_write = false;   ///< EPOLLOUT currently registered
    bool closing = false;      ///< flush remaining replies, then close
    bool read_paused = false;  ///< EPOLLIN dropped: backpressure or closing
    /// Last inbound traffic; the idle scan reaps connections idle past
    /// cfg_.idle_timeout_ms.
    std::chrono::steady_clock::time_point last_active{};

    explicit Conn(SocketFd f) : fd(std::move(f)) {}
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

    /// Start worker `id`'s thread, named "flit-worker-<id>" (what top -H,
    /// gdb and /proc/<pid>/task/*/comm show).
    void start(std::size_t id) {
      th = std::thread([this, id] {
        char name[16];  // the kernel's limit, NUL included
        std::snprintf(name, sizeof(name), "flit-worker-%zu", id);
        ::pthread_setname_np(::pthread_self(), name);
        server.worker_loop(*this);
      });
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

    // Scratch reused across readiness events, so a warm worker serves
    // GET, MGET and SCAN without a heap allocation: the request slots the
    // parser fills (their argv views into one connection's parser buffer
    // die at its next feed, which comes only after the event executes),
    // each request's command, a run's per-request errors, keys and SET
    // pairs, and SCAN's pairs, whose strings keep their capacity.
    std::vector<Request> reqs;
    std::vector<Cmd> cmds;
    std::vector<const char*> errs;
    std::vector<std::int64_t> keys;
    std::vector<std::pair<std::int64_t, std::string_view>> kvs;
    std::vector<std::pair<std::int64_t, std::string>> scan_pairs;
  };

  void join_workers() {
    for (auto& w : workers_) {
      if (w->th.joinable()) w->th.join();
    }
  }

  /// The idle scan runs once per tick, a sixteenth of the timeout within
  /// [10, 250] ms, so an idle connection is reaped within one timeout plus
  /// one tick (coarse by design — idle reaping needs no precision). A scan
  /// of max_connections costs microseconds.
  int tick_ms() const noexcept {
    return std::clamp(cfg_.idle_timeout_ms / 16, 10, 250);
  }

  void worker_loop(Worker& w) {
    epoll_event events[64];
    const bool reap_idle = cfg_.idle_timeout_ms > 0;
    const auto tick = std::chrono::milliseconds(tick_ms());
    auto last_scan = std::chrono::steady_clock::now();
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
          alive = handle_readable(w, c);
        }
        if (alive && (events[i].events & EPOLLOUT)) {
          alive = flush(w, c);
        }
        if (!alive) close_conn(w, fd);
      }
      if (reap_idle) {
        // Elapsed-time driven, not per-wakeup: a busy worker whose
        // epoll_wait returns early scans once per tick, not per event.
        const auto now = std::chrono::steady_clock::now();
        if (now - last_scan >= tick) {
          last_scan = now;
          reap_idle_conns(w, now);
        }
      }
    }
    stats_.open_connections.fetch_sub(w.conns.size(),
                                      std::memory_order_relaxed);
    w.conns.clear();  // SocketFd dtors close everything
  }

  /// Close every connection with no inbound traffic for
  /// cfg_.idle_timeout_ms.
  void reap_idle_conns(Worker& w, std::chrono::steady_clock::time_point now) {
    const auto timeout = std::chrono::milliseconds(cfg_.idle_timeout_ms);
    for (auto it = w.conns.begin(); it != w.conns.end();) {
      const int fd = it->first;
      const bool idle = now - it->second->last_active >= timeout;
      ++it;  // advance first: close_conn's erase invalidates fd's entry
      if (idle) {
        stats_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        close_conn(w, fd);
      }
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
      auto conn = std::make_unique<Conn>(SocketFd(fd));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(w.epfd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
        stats_.open_connections.fetch_sub(1, std::memory_order_relaxed);
        continue;  // conn dtor closes the fd
      }
      conn->last_active = std::chrono::steady_clock::now();
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

  /// Read what the socket holds, execute every complete request, flush
  /// replies. Returns false when the connection should be closed.
  bool handle_readable(Worker& w, Conn& c) {
    char buf[64 << 10];
    bool saw_eof = false;
    for (;;) {
      bool would_block = false;
      const ssize_t r = read_some(c.fd.get(), buf, sizeof(buf), would_block);
      if (r > 0) {
        c.last_active = std::chrono::steady_clock::now();
        c.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
        // A short read emptied the socket. Reading again would only see
        // EAGAIN; bytes that arrive later, or an EOF, make the
        // level-triggered EPOLLIN report it again at the next wait.
        if (static_cast<std::size_t>(r) < sizeof(buf)) break;
        continue;
      }
      if (would_block) break;
      saw_eof = true;  // r == 0
      break;
    }

    std::size_t n = 0;  // requests parsed into w.reqs[0, n)
    ParseStatus st;
    for (;;) {
      if (n == w.reqs.size()) w.reqs.emplace_back();
      if ((st = c.parser.next(w.reqs[n])) != ParseStatus::kOk) break;
      ++n;
    }
    bool shutdown_after = false;
    if (n > 0) execute_batch(w, c, {w.reqs.data(), n}, shutdown_after);
    if (st == ParseStatus::kError) {
      // Framing is lost: one final diagnostic, then close after flushing.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      append_error(c.out, "ERR " + c.parser.error());
      c.closing = true;
    }
    if (saw_eof) c.closing = true;
    if (c.out.size() - c.out_pos > kMaxOutBuffer) return false;
    bool alive = flush(w, c);
    if (alive && !c.read_paused &&
        (c.closing || c.out.size() - c.out_pos > kMaxOutBuffer / 2)) {
      // Replies are still queued. A closing connection reads no more: a
      // peer at EOF stays readable, so level-triggered EPOLLIN would spin
      // the worker until the peer drained them. An open one degrades
      // before dropping: it stops reading so TCP backpressure reaches the
      // slow reader, and only crossing kMaxOutBuffer itself closes.
      c.read_paused = true;
      alive = update_interest(w, c);
    }
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

  /// The command word, matched case-insensitively.
  static Cmd classify(const Request& r) noexcept {
    static constexpr std::pair<std::string_view, Cmd> kWords[] = {
        {"GET", Cmd::kGet},   {"SET", Cmd::kSet},   {"DEL", Cmd::kDel},
        {"MGET", Cmd::kMget}, {"MSET", Cmd::kMset}, {"MDEL", Cmd::kMdel},
        {"SCAN", Cmd::kScan}, {"PING", Cmd::kPing}, {"STATS", Cmd::kStats},
        {"SHUTDOWN", Cmd::kShutdown}};
    const std::string_view name = r.argv[0];
    for (const auto& [word, cmd] : kWords) {
      if (name.size() == word.size() &&
          std::equal(name.begin(), name.end(), word.begin(),
                     [](char a, char b) {
                       return (a >= 'a' && a <= 'z' ? a - 'a' + 'A' : a) == b;
                     })) {
        return cmd;
      }
    }
    return Cmd::kUnknown;
  }

  /// Validate one key argument; on failure `err` points at the reply.
  static std::optional<std::int64_t> parse_key(std::string_view s,
                                               const char*& err) {
    const auto k = detail::parse_i64(s);
    if (!k) {
      err = "ERR key is not an int64";
      return std::nullopt;
    }
    if (KV::Shard_::reserved_key(*k)) {
      err = "ERR INT64_MIN/INT64_MAX are reserved";
      return std::nullopt;
    }
    return k;
  }

  /// The keys of an MGET or MDEL (stride 1), or of an MSET's key-value
  /// pairs (stride 2), all or nothing: a wrong argument count or one bad
  /// key fails the whole command, and `err` points at the reply.
  static bool parse_keys(const Request& r, std::size_t stride,
                         const char* usage, std::vector<std::int64_t>& keys,
                         const char*& err) {
    keys.clear();
    if (r.argv.size() < 1 + stride || (r.argv.size() - 1) % stride != 0) {
      err = usage;
      return false;
    }
    for (std::size_t i = 1; i < r.argv.size(); i += stride) {
      const auto k = parse_key(r.argv[i], err);
      if (!k) return false;
      keys.push_back(*k);
    }
    return true;
  }

  /// Execute every request of one readiness event: adjacent same-command
  /// runs of GET/SET/DEL collapse into one multi-op (a lone request is a
  /// run of one), everything else executes one by one. Replies are
  /// appended in request order. The durability hook runs once, after all
  /// of the event's writes and before the caller flushes replies.
  void execute_batch(Worker& w, Conn& c, std::span<const Request> reqs,
                     bool& shutdown_after) {
    stats_.requests.fetch_add(reqs.size(), std::memory_order_relaxed);
    // Replies appended past this mark are withdrawn if the commit-point
    // durability hook fails: "acknowledged ⇒ durable" must hold even
    // when msync stops cooperating.
    const std::size_t out_mark = c.out.size();
    bool wrote = false;
    w.cmds.clear();
    for (const Request& r : reqs) w.cmds.push_back(classify(r));
    std::size_t i = 0;
    while (i < reqs.size()) {
      const Cmd cmd = w.cmds[i];
      if (cmd == Cmd::kGet || cmd == Cmd::kSet || cmd == Cmd::kDel) {
        std::size_t j = i + 1;
        while (j < reqs.size() && w.cmds[j] == cmd) ++j;
        execute_run(w, c, cmd, reqs.subspan(i, j - i), wrote);
        i = j;
        continue;
      }
      execute_single(w, c, reqs[i], cmd, wrote, shutdown_after);
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

  /// A run of GETs, SETs or DELs: each request is validated on its own,
  /// the valid ones go to the store as one multi_get, multi_put or
  /// multi_remove, and the replies follow in request order. A request
  /// that fails validation gets its error in place and costs its
  /// neighbours nothing; a run with no valid request makes no store call.
  /// A GET run's values go from each record straight into the reply.
  void execute_run(Worker& w, Conn& c, Cmd cmd, std::span<const Request> run,
                   bool& wrote) {
    const std::size_t arity = cmd == Cmd::kSet ? 3 : 2;
    const char* usage = cmd == Cmd::kGet   ? "ERR GET expects: GET key"
                        : cmd == Cmd::kSet ? "ERR SET expects: SET key value"
                                           : "ERR DEL expects: DEL key";
    std::vector<const char*>& errs = w.errs;  // nullptr: valid
    errs.assign(run.size(), nullptr);
    w.keys.clear();
    w.kvs.clear();
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i].argv.size() != arity) {
        errs[i] = usage;
      } else if (const auto k = parse_key(run[i].argv[1], errs[i])) {
        w.keys.push_back(*k);
        if (cmd == Cmd::kSet) w.kvs.emplace_back(*k, run[i].argv[2]);
      }
    }
    // STATS: a run of one is a scalar op; a longer run's keys are batched.
    (run.size() == 1 ? stats_.scalar_ops : stats_.batched_keys)
        .fetch_add(w.keys.size(), std::memory_order_relaxed);
    if (cmd == Cmd::kGet) {
      // The replies are written while the multi_get runs, so the -ERRs of
      // the invalid requests ahead of each valid one go out first: `e` is
      // the first request not yet answered.
      std::size_t e = 0;
      const auto answer_errors = [&] {
        for (; e < errs.size() && errs[e] != nullptr; ++e) {
          append_error(c.out, errs[e]);
        }
      };
      if (!w.keys.empty()) {
        store_.multi_get(
            w.keys, [&](std::size_t, std::optional<std::string_view> v) {
              answer_errors();
              if (v) {
                append_bulk(c.out, *v);
              } else {
                append_null(c.out);
              }
              ++e;
            });
      }
      answer_errors();
      return;
    }
    std::vector<bool> removed;
    std::optional<std::string> store_err;  // shared by every valid request
    if (!w.keys.empty()) {
      if (cmd == Cmd::kSet) {
        store_err = apply_store([&] { store_.multi_put(w.kvs); }, wrote);
      } else {
        store_err = apply_store(
            [&] { removed = store_.multi_remove(w.keys); }, wrote);
      }
    }
    std::size_t v = 0;  // the next valid request's result
    for (const char* err : errs) {
      if (err != nullptr) {
        append_error(c.out, err);
      } else if (store_err) {
        append_error(c.out, *store_err);
      } else if (cmd == Cmd::kSet) {
        append_simple(c.out, "OK");
      } else {
        append_integer(c.out, removed[v++] ? 1 : 0);
      }
    }
  }

  void execute_single(Worker& w, Conn& c, const Request& r, Cmd cmd,
                      bool& wrote, bool& shutdown_after) {
    const char* err = nullptr;
    switch (cmd) {
      case Cmd::kPing:
        append_simple(c.out, "PONG");
        return;
      case Cmd::kMget: {
        if (!parse_keys(r, 1, "ERR MGET expects: MGET key [key ...]", w.keys,
                        err)) {
          break;
        }
        stats_.batched_keys.fetch_add(w.keys.size(),
                                      std::memory_order_relaxed);
        append_array_header(c.out, w.keys.size());
        store_.multi_get(
            w.keys, [&](std::size_t, std::optional<std::string_view> v) {
              if (v) {
                append_bulk(c.out, *v);
              } else {
                append_null(c.out);
              }
            });
        return;
      }
      case Cmd::kMset: {
        if (!parse_keys(r, 2, "ERR MSET expects: MSET key value [k v ...]",
                        w.keys, err)) {
          break;
        }
        w.kvs.clear();
        for (std::size_t i = 0; i < w.keys.size(); ++i) {
          w.kvs.emplace_back(w.keys[i], r.argv[2 * i + 2]);
        }
        stats_.batched_keys.fetch_add(w.kvs.size(),
                                      std::memory_order_relaxed);
        const auto store_err =
            apply_store([&] { store_.multi_put(w.kvs); }, wrote);
        if (store_err) {
          append_error(c.out, *store_err);
        } else {
          append_simple(c.out, "OK");
        }
        return;
      }
      case Cmd::kMdel: {
        if (!parse_keys(r, 1, "ERR MDEL expects: MDEL key [key ...]", w.keys,
                        err)) {
          break;
        }
        stats_.batched_keys.fetch_add(w.keys.size(),
                                      std::memory_order_relaxed);
        std::vector<bool> removed;
        const auto store_err = apply_store(
            [&] { removed = store_.multi_remove(w.keys); }, wrote);
        if (store_err) {
          append_error(c.out, *store_err);
        } else {
          append_integer(c.out,
                         std::count(removed.begin(), removed.end(), true));
        }
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
          // scan() overwrites the worker's pairs in place, so their
          // strings' capacity carries over from the last SCAN.
          store_.scan(*start, static_cast<std::size_t>(*count),
                      w.scan_pairs);
          stats_.batched_keys.fetch_add(w.scan_pairs.size(),
                                        std::memory_order_relaxed);
          append_array_header(c.out, 2 * w.scan_pairs.size());
          for (const auto& [k, v] : w.scan_pairs) {
            char key[20];  // sign and 19 digits
            const char* end = std::to_chars(key, key + sizeof(key), k).ptr;
            append_bulk(c.out, std::string_view(key, end));
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
        append_unknown_command(c.out, r.argv[0]);
        return;
    }
    append_error(c.out, err);  // an M-command's arguments failed to parse
  }

  /// The command word is binary-safe but the error reply is one line, so
  /// the echo turns control bytes into spaces (a CR LF would split the
  /// reply in two and shift every later reply) and is capped in length.
  static void append_unknown_command(std::string& out, std::string_view name) {
    constexpr std::size_t kMaxEcho = 128;
    std::string msg = "ERR unknown command '";
    for (const char ch : name.substr(0, kMaxEcho)) {
      msg += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
    }
    msg += '\'';
    append_error(out, msg);
  }

  // persist-lint: allow(reads the volatile ServerStats counters above)
  static unsigned long long load(
      const std::atomic<std::uint64_t>& a) noexcept {
    return static_cast<unsigned long long>(
        a.load(std::memory_order_relaxed));
  }

  /// Run a store mutation, converting exceptions (pool exhaustion,
  /// length/argument errors that slipped past validation) into the text
  /// of an -ERR reply; nullopt when it completed. The server keeps
  /// serving; the store's documented partial-application rules apply.
  /// `wrote` is set whenever the store may have changed — on success, and
  /// on failures that can leave a partially applied batch (OutOfSpace
  /// fails element k with the prefix landed). It is NOT set for
  /// StoreReadOnly: that refusal happens up front, before anything is
  /// applied, so there is nothing for the commit hook to make durable —
  /// and calling checkpoint() on a latched store would just throw again
  /// and needlessly tear the connection down.
  template <class Fn>
  static std::optional<std::string> apply_store(Fn&& fn, bool& wrote) {
    try {
      fn();
      wrote = true;
      return std::nullopt;
    } catch (const kv::OutOfSpace&) {
      // Pool exhausted: this mutation failed cleanly (strong exception
      // safety upstream); reads/deletes on this connection keep working.
      wrote = true;
      return "ERR OUT_OF_SPACE store is full; reads and deletes still "
             "served";
    } catch (const std::bad_alloc&) {
      wrote = true;
      return "ERR out of persistent memory";
    } catch (const kv::StoreReadOnly&) {
      // Durability latch (failed msync): mutations refused up front,
      // reads still answered from the in-memory index.
      return "ERR READONLY store is degraded read-only (durability "
             "failure); reads still served";
    } catch (const std::exception& e) {
      wrote = true;
      return std::string("ERR ") + e.what();
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
};

}  // namespace flit::net
