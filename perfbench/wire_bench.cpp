// wire_bench.cpp — the load generator for the wire workload.
//
//   perfbench_wire load --port=P --keys=N
//   perfbench_wire run --port=P --server-pid=PID --keys=N --seed=S
//       --seconds=F --warmup=F --trace=0|1 --sample-out=PATH
//       [--trace-out=PREFIX]
//
// `load` fills keys 0..N-1 with pipelined SETs. `run` drives YCSB B
// (95% GET / 5% SET, zipfian theta 0.99, 100 B values) over two
// connections, one thread each. Closed loop: a connection enqueues a
// round of 16 requests (GETs first, then SETs, so the server runs
// them as one multi_get and one multi_put), flushes it, and busy-polls
// its non-blocking socket until every reply is in. Each request's
// latency is its round's time from flush to last reply.
//
// Connection c SETs only keys with k % 2 == c, so it knows the exact
// version of those keys and checks it on every GET of them; every GET
// checks the key stamp and filler. STATS is sampled at the edges of the
// timed phase for the server's pwb/pfence and batching counters, and
// /proc gives the server's CPU time and peak RSS.
#include <fstream>
#include <optional>
#include <thread>

#include "bench_util/workload.hpp"
#include "bench_util/ycsb.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"

namespace {

using namespace flit;
using namespace perfbench;
using bench::Rng;
using bench::Zipfian;

constexpr unsigned kConns = 2;
constexpr std::uint64_t kRoundDepth = 16;  // requests per timed round
constexpr std::uint64_t kLoadDepth = 256;  // SETs per loading round
constexpr std::uint64_t kSpanEvery = 16;
constexpr std::size_t kSampleKeys = 2000;

net::Client connect(const Flags& f) {
  return net::Client::connect(
      "127.0.0.1", static_cast<std::uint16_t>(std::stoi(f.need("port"))));
}

/// The value of `name=` in a STATS reply.
std::uint64_t stat_field(const std::string& text, const char* name) {
  const std::string hay = " " + text;
  const std::string needle = std::string(" ") + name + "=";
  const std::size_t at = hay.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error(std::string("STATS lacks ") + name);
  }
  return std::strtoull(hay.c_str() + at + needle.size(), nullptr, 10);
}

int load(const Flags& f) {
  const std::uint64_t keys = f.u64("keys", 1'000'000);
  std::vector<std::uint64_t> failed(kConns, 0);
  ThreadGroup threads;
  for (unsigned c = 0; c < kConns; ++c) {
    threads.spawn([&, c] {
      net::Client cl = connect(f);
      net::set_nonblocking(cl.fd(), true);  // busy-poll the replies
      std::string val, key;
      const auto lo = static_cast<Key>(keys * c / kConns);
      const auto hi = static_cast<Key>(keys * (c + 1) / kConns);
      for (Key k = lo; k < hi;) {
        std::uint64_t n = 0;
        for (; n < kLoadDepth && k < hi; ++n, ++k) {
          fill_value(val, k, 0);
          key = std::to_string(k);
          cl.enqueue({"SET", key, val});
        }
        cl.flush();
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!cl.read_reply().ok()) ++failed[c];
        }
      }
    });
  }
  threads.join();
  JsonLine j;
  j.u64("attempted", keys);
  std::uint64_t total = 0;
  for (const std::uint64_t n : failed) total += n;
  j.u64("failed", total);
  j.print();
  return 0;
}

struct Shared {
  explicit Shared(const Windows& w) : win(w) {}
  const Windows& win;
  std::uint64_t timed_span = 0;
};

struct Conn {
  int id = 0;
  std::vector<Recorder> lat;  // request latency per timed window
  std::uint64_t timed_ops = 0;
  std::uint64_t attempted = 0, failed = 0;
  CallStats send, wait;  // traced rounds only
  std::uint64_t traced_rounds = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> version;  // owned keys: k / kConns
};

struct Op {
  Key k;
  bool set;
  std::optional<std::uint64_t> expect;  // GETs of owned keys
};

void conn_loop(const Flags& f, const Zipfian& zipf, Shared& sh, Conn& c,
               std::uint64_t seed) {
  pin_to_cpu(static_cast<unsigned>(c.id));
  net::Client cl = connect(f);
  net::set_nonblocking(cl.fd(), true);  // read_reply() now busy-polls
  Rng rng(stream_seed(seed, c.id));
  const auto C = static_cast<Key>(kConns);
  const auto N = static_cast<Key>(zipf.n());
  const std::uint32_t flush_name = Tracer::id("net.flush");
  const std::uint32_t replies_name = Tracer::id("net.replies");
  std::vector<Op> ops;
  std::vector<std::string> keys(kRoundDepth), vals(kRoundDepth);

  for (;;) {
    const int win = sh.win.now();
    if (win >= sh.win.count()) break;
    const bool in_timed = win >= 0;
    const bool traced = in_timed && sh.win.traced(win);

    // Build the round: GETs first, then SETs on this connection's keys.
    ops.clear();
    for (std::uint64_t i = 0; i < kRoundDepth; ++i) {
      Key k = static_cast<Key>(zipf.next_scrambled(rng));
      if (rng.next_unit() < 0.95) {
        ops.push_back({k, false, std::nullopt});
      } else {
        k = k - k % C + c.id;
        if (k >= N) k -= C;
        ops.push_back({k, true, std::nullopt});
      }
    }
    std::stable_partition(ops.begin(), ops.end(),
                          [](const Op& o) { return !o.set; });
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& o = ops[i];
      keys[i] = std::to_string(o.k);
      auto& ver = c.version[static_cast<std::size_t>(o.k / C)];
      if (o.set) {
        fill_value(vals[i], o.k, ++ver);
        cl.enqueue({"SET", keys[i], vals[i]});
      } else {
        if (o.k % C == c.id) o.expect = ver;
        cl.enqueue({"GET", keys[i]});
      }
    }

    const std::uint64_t t0 = now_ns();
    cl.flush();
    const std::uint64_t t1 = now_ns();
    std::uint64_t bad = 0;
    for (const Op& o : ops) {
      const net::Reply r = cl.read_reply();
      const bool ok = o.set ? r.ok()
                            : r.type == net::Reply::Type::kBulk &&
                                  value_ok(o.k, r.str, o.expect);
      if (!ok) ++bad;
    }
    const std::uint64_t t2 = now_ns();

    c.attempted += ops.size();
    c.failed += bad;
    if (in_timed) {
      c.timed_ops += ops.size();
      c.lat[static_cast<std::size_t>(win)].record(t2 - t0, ops.size());
    }
    if (traced) {
      c.send.lat.record(t1 - t0);
      c.wait.lat.record(t2 - t1);
      if (++c.traced_rounds % kSpanEvery == 0) {
        const auto th = static_cast<std::uint32_t>(c.id + 1);
        c.spans.push_back({flush_name, th, t0, t1, 0, sh.timed_span, 0, 0});
        c.spans.push_back({replies_name, th, t1, t2, 0, sh.timed_span, 0, 0});
      }
    }
  }
}

struct ServerSample {
  std::string stats;
  double cpu_s = 0;
  double client_cpu_s = 0;
};

ServerSample sample_server(net::Client& control, const std::string& pid,
                           Tracer& tr) {
  const std::uint64_t span = tr.open("net.stats");
  const net::Reply r = control.command({"STATS"});
  tr.close(span);
  if (r.type != net::Reply::Type::kBulk) {
    throw std::runtime_error("STATS failed: " + r.str);
  }
  return {r.str, proc_cpu_s(pid), self_cpu_s()};
}

int run(const Flags& f) {
  const std::uint64_t keys = f.u64("keys", 1'000'000);
  const std::uint64_t seed = f.u64("seed", 1);
  const bool trace = f.u64("trace", 0) != 0;
  const double seconds = f.f64("seconds", 10);
  const double warmup = f.f64("warmup", 2);
  const std::string pid = f.need("server-pid");
  const Zipfian zipf(keys, 0.99);

  Tracer tr;
  net::Client control = connect(f);
  Windows win(seconds, trace);
  Shared sh(win);
  std::vector<Conn> cs(kConns);
  for (unsigned i = 0; i < kConns; ++i) {
    cs[i].id = static_cast<int>(i);
    cs[i].lat.resize(static_cast<std::size_t>(win.count()));
    cs[i].version.assign(keys / kConns + 1, 0);
  }
  const std::uint64_t warm_span = tr.open("phase.warmup");
  ThreadGroup threads;
  for (unsigned i = 0; i < kConns; ++i) {
    threads.spawn([&, i] { conn_loop(f, zipf, sh, cs[i], seed); });
  }
  pin_to_cpu(kConns);  // the window ticks stay off the connections' CPUs
  ServerSample s0;
  try {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    tr.close(warm_span);
    sh.timed_span = tr.open("phase.timed");
    s0 = sample_server(control, pid, tr);
    win.run([] {});
  } catch (...) {
    win.stop();  // let the connections finish so the group can join
    throw;
  }
  threads.join();
  const ServerSample s1 = sample_server(control, pid, tr);
  tr.close(sh.timed_span);

  std::vector<const std::vector<Recorder>*> lats;
  std::uint64_t timed_ops = 0, attempted = 0, failed = 0;
  CallStats send, wait;
  for (const Conn& c : cs) {
    lats.push_back(&c.lat);
    timed_ops += c.timed_ops;
    send.merge(c.send);
    wait.merge(c.wait);
    attempted += c.attempted;
    failed += c.failed;
  }
  const WindowSummary sum(win, lats);
  const auto delta = [&](const char* name) {
    return static_cast<double>(stat_field(s1.stats, name) -
                               stat_field(s0.stats, name));
  };
  ++attempted;
  if (stat_field(s1.stats, "keys") != keys) ++failed;

  {
    std::ofstream out(f.need("sample-out"));
    Rng rng(seed ^ 0x5A5A5A5Aull);
    for (std::size_t i = 0; i < kSampleKeys; ++i) {
      const auto k = static_cast<Key>(rng.next_below(keys));
      const Conn& owner = cs[static_cast<std::size_t>(k) % kConns];
      out << k << ' ' << owner.version[static_cast<std::size_t>(k) / kConns]
          << '\n';
    }
  }

  const double server_cpu_s = s1.cpu_s - s0.cpu_s;
  JsonLine j;
  j.u64("attempted", attempted);
  j.u64("failed", failed);
  j.u64("live_keys", keys);
  j.num("throughput_ops", sum.rate);
  j.num("p50_us", sum.p50_us);
  j.num("p99_us", sum.p99_us);
  j.num("pwbs_per_op", delta("pwbs") / timed_ops);
  j.num("pfences_per_op", delta("pfences") / timed_ops);
  j.num("peak_rss_mb", peak_rss_mb(pid));
  if (trace) {
    j.num("trace.overhead", sum.traced_rate / sum.rate - 1.0);
    j.num("net.server_cpu_us_per_op", server_cpu_s * 1e6 / timed_ops);
    j.num("net.client_cpu_us_per_op",
          (s1.client_cpu_s - s0.client_cpu_s) * 1e6 / timed_ops);
    const double batched = delta("batched_keys");
    j.num("net.batched_share", batched / (batched + delta("scalar_ops")));
    j.num("net.round_send_us", send.lat.mean_ns() / 1e3);
    j.num("net.round_wait_us", wait.lat.mean_ns() / 1e3);
    j.num("pmem.persist_share",
          (delta("pwbs") * kPwbNs + delta("pfences") * kPfenceNs) /
              (server_cpu_s * 1e9));
    const std::string prefix = f.str("trace-out");
    if (!prefix.empty()) {
      std::vector<const std::vector<Span>*> bufs = {&tr.phases()};
      for (const Conn& c : cs) bufs.push_back(&c.spans);
      Tracer::write(prefix + ".spans.csv", bufs);
    }
  }
  j.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_wire load|run --flags...\n");
    return 2;
  }
  try {
    const Flags f(argc, argv, 2);
    const std::string cmd = argv[1];
    if (cmd == "load") return load(f);
    if (cmd == "run") return run(f);
    std::fprintf(stderr, "perfbench_wire: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_wire: %s\n", e.what());
    return 1;
  }
}
