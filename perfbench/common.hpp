// common.hpp — pieces shared by the perfbench programs: a fine-grained
// latency recorder, the span tracer, /proc readers, flag parsing and the
// one-line JSON result writer.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "pmem/stats.hpp"

namespace perfbench {

/// The kSimLatency delays every flit bench runs with (pmem/backend.hpp).
constexpr std::uint32_t kPwbNs = 90, kPfenceNs = 60;

/// Seed of generator stream `i` (one per worker thread) of a run's seed.
inline std::uint64_t stream_seed(std::uint64_t seed, int i) noexcept {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i) + 1;
}

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear latency recorder with 128 linear sub-buckets per power of
/// two, so a reported percentile is within 0.8% of the true sample
/// (bench_util's LatencyHistogram uses 16, ~6%, which is coarser than the
/// bounds the benchmark checks). Values are nanoseconds; single-threaded,
/// merged after the workers join.
class Recorder {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr std::size_t kSlots = (64 - kSubBits) * kSub + kSub;

  void record(std::uint64_t v, std::uint64_t weight = 1) {
    counts_[slot(v)] += weight;
    total_ += weight;
    sum_ += v * weight;
  }

  void merge(const Recorder& o) {
    for (std::size_t i = 0; i < kSlots; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const noexcept { return total_; }
  double mean_ns() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / total_;
  }

  /// Value at quantile q in (0, 1]: the midpoint of the bucket holding
  /// the ceil(q * count)-th sample; 0 when empty.
  double quantile_ns(double q) const noexcept {
    if (total_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (rank < 1) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kSlots - 1);
  }

 private:
  static std::size_t slot(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const unsigned shift = e - kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub +
                                    ((v >> shift) - kSub));
  }
  static double midpoint(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    const double lo = static_cast<double>((kSub + i % kSub) << shift);
    return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kSlots, 0);
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

/// The timed phase, cut into fixed windows. Throughput and latency are
/// reported as medians over windows, so a short stall of the machine
/// moves one window rather than the run's figure. In a trace run the
/// windows alternate untraced and traced, so both kinds see the same
/// drift and their rates give trace.overhead. The main thread drives
/// run(); workers read now() before each op and record into that window.
class Windows {
 public:
  static constexpr double kWindowS = 0.25;

  Windows(double seconds, bool alternate)
      : n_(std::max(1, static_cast<int>(seconds / kWindowS + 0.5))),
        alternate_(alternate),
        start_ns_(static_cast<std::size_t>(n_) + 1, 0) {}

  int count() const noexcept { return n_; }
  /// -1 before the timed phase, count() once it is over.
  int now() const noexcept { return cur_.load(std::memory_order_acquire); }
  bool traced(int w) const noexcept { return alternate_ && w % 2 == 1; }
  double seconds(int w) const noexcept {
    return static_cast<double>(start_ns_[w + 1] - start_ns_[w]) / 1e9;
  }
  double total_seconds() const noexcept {
    return static_cast<double>(start_ns_[n_] - start_ns_[0]) / 1e9;
  }

  /// End the phase at once (error path): workers see now() == count().
  void stop() noexcept { cur_.store(n_, std::memory_order_release); }

  /// Run the timed phase on the calling thread; `tick` runs every ~1 ms.
  template <class Tick>
  void run(Tick&& tick) {
    for (int w = 0; w <= n_; ++w) {
      start_ns_[w] = now_ns();
      cur_.store(w, std::memory_order_release);
      if (w == n_) break;
      const std::uint64_t end =
          start_ns_[w] + static_cast<std::uint64_t>(kWindowS * 1e9);
      while (now_ns() < end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        tick();
      }
    }
  }

 private:
  int n_;
  bool alternate_;
  std::atomic<int> cur_{-1};
  std::vector<std::uint64_t> start_ns_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Per-window latency recorders of all workers, merged window by window:
/// the median over untraced windows of each window's rate, p50 and p99,
/// and the median rate of the traced windows.
struct WindowSummary {
  double rate = 0, p50_us = 0, p99_us = 0, traced_rate = 0;

  WindowSummary(const Windows& win,
                const std::vector<const std::vector<Recorder>*>& per_worker) {
    std::vector<double> rates, p50s, p99s, traced_rates;
    for (int w = 0; w < win.count(); ++w) {
      Recorder merged;
      for (const auto* recs : per_worker) merged.merge((*recs)[w]);
      const double r = static_cast<double>(merged.count()) / win.seconds(w);
      if (win.traced(w)) {
        traced_rates.push_back(r);
        continue;
      }
      rates.push_back(r);
      p50s.push_back(merged.quantile_ns(0.50) / 1e3);
      p99s.push_back(merged.quantile_ns(0.99) / 1e3);
    }
    rate = median(rates);
    p50_us = median(p50s);
    p99_us = median(p99s);
    traced_rate = median(traced_rates);
  }
};

/// One traced call into a layer: which call, when, under which phase
/// span, on which thread, and the calling thread's pwb/pfence deltas.
/// Phase spans carry an id (> 0) that call spans name as their parent;
/// call spans are leaves (id 0).
struct Span {
  std::uint32_t name;  // index into Tracer::names()
  std::uint32_t thread;
  std::uint64_t start_ns, end_ns;
  std::uint64_t id, parent;  // parent 0 = root
  std::uint64_t pwbs, pfences;
};

/// The calling thread's persistence counters (pmem/stats.hpp keeps them
/// per thread; a span's counts are the delta across the call).
inline flit::pmem::StatsSnapshot thread_counts() noexcept {
  const auto& ts = flit::pmem::detail::tls_stats();
  flit::pmem::StatsSnapshot s;
  s.pwbs = ts.pwbs;
  s.pfences = ts.pfences;
  s.empty_pfences = ts.empty_pfences;
  return s;
}

/// Span sink. Every thread owns one buffer (no sharing on the hot path);
/// write() merges them into one CSV at exit.
class Tracer {
 public:
  /// Phase spans of the calling (main) thread: open() returns the new
  /// span's id, close() stamps its end.
  std::uint64_t open(const char* name, std::uint64_t parent = 0) {
    phases_.push_back({id(name), 0, now_ns(), 0, phases_.size() + 1, parent,
                       0, 0});
    return phases_.size();
  }
  void close(std::uint64_t span_id) { phases_[span_id - 1].end_ns = now_ns(); }
  const std::vector<Span>& phases() const { return phases_; }

  static const std::vector<std::string>& names() {
    static const std::vector<std::string> n = {
        "phase.setup", "phase.warmup", "phase.timed", "kv.get",
        "kv.put",      "kv.scan",      "kv.open",     "kv.close",
        "net.flush",   "net.replies",  "net.stats"};
    return n;
  }
  static std::uint32_t id(const char* name) {
    const auto& n = names();
    for (std::size_t i = 0; i < n.size(); ++i) {
      if (n[i] == name) return static_cast<std::uint32_t>(i);
    }
    throw std::logic_error(std::string("unknown span name ") + name);
  }

  static void write(const std::string& path,
                    const std::vector<const std::vector<Span>*>& buffers) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write trace file " + path);
    }
    std::fprintf(f, "name,thread,start_ns,end_ns,id,parent,pwbs,pfences\n");
    for (const auto* buf : buffers) {
      for (const Span& s : *buf) {
        std::fprintf(f, "%s,%u,%llu,%llu,%llu,%llu,%llu,%llu\n",
                     names()[s.name].c_str(), s.thread,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.pwbs),
                     static_cast<unsigned long long>(s.pfences));
      }
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> phases_;
};

/// Aggregate of one call site's spans: duration distribution plus the
/// persistence instructions the calls issued.
struct CallStats {
  Recorder lat;
  std::uint64_t pwbs = 0, pfences = 0, items = 0;

  void merge(const CallStats& o) {
    lat.merge(o.lat);
    pwbs += o.pwbs;
    pfences += o.pfences;
    items += o.items;
  }
  double per_call(std::uint64_t v) const {
    return lat.count() == 0 ? 0.0 : static_cast<double>(v) / lat.count();
  }
  /// Mean span time minus the modeled persistence time of the same calls.
  double self_us(double pwb_ns, double pfence_ns) const {
    if (lat.count() == 0) return 0.0;
    return (lat.mean_ns() - per_call(pwbs) * pwb_ns -
            per_call(pfences) * pfence_ns) / 1e3;
  }
};

// --- payloads --------------------------------------------------------------

using Key = std::int64_t;
constexpr std::size_t kValueBytes = 100;

/// The payload for (k, version): an 8-byte key stamp, an 8-byte version,
/// then filler (bench_util's ycsb_value layout), written into a reused
/// buffer so the generators do not allocate per op.
inline void fill_value(std::string& buf, Key k, std::uint64_t version) {
  buf.assign(kValueBytes, static_cast<char>('a' + (k & 0xF)));
  std::memcpy(buf.data(), &k, sizeof(k));
  std::memcpy(buf.data() + 8, &version, sizeof(version));
}

/// Length, stamp and filler check; `version` is checked when known.
inline bool value_ok(Key k, std::string_view v,
                     std::optional<std::uint64_t> version) {
  if (v.size() != kValueBytes) return false;
  Key stamp;
  std::memcpy(&stamp, v.data(), sizeof(stamp));
  if (stamp != k) return false;
  if (version) {
    std::uint64_t ver;
    std::memcpy(&ver, v.data() + 8, sizeof(ver));
    if (ver != *version) return false;
  }
  const char fill = static_cast<char>('a' + (k & 0xF));
  for (std::size_t i = 16; i < kValueBytes; ++i) {
    if (v[i] != fill) return false;
  }
  return true;
}

// --- /proc --------------------------------------------------------------

/// Peak resident set (VmHWM of /proc/<pid>/status), in MB.
inline double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

/// utime + stime of /proc/<pid>/stat, in seconds.
inline double proc_cpu_s(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  // Fields after the parenthesized comm start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream fields(s.substr(rp + 1));
  std::string tok;
  std::uint64_t ticks = 0;
  for (int i = 3; i <= 15 && fields >> tok; ++i) {
    if (i >= 14) ticks += std::strtoull(tok.c_str(), nullptr, 10);
  }
  return static_cast<double>(ticks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// This process's user + system CPU time, in seconds (microsecond
/// resolution, unlike /proc's clock ticks).
inline double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Threads whose first exception is rethrown by join() on the caller's
/// thread instead of terminating the process.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  template <class F>
  void spawn(F f) {
    threads_.emplace_back([this, f = std::move(f)] {
      try {
        f();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }

  void join() {
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::exception_ptr error_;  // guarded by mu_ until join()
};

/// Pin the calling thread to the i-th CPU the process may run on.
inline void pin_to_cpu(unsigned i) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i % cpus.size()], &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
}

// --- flags and output ----------------------------------------------------

/// --name=value flags; a value-less flag reads as "1".
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + a);
      const std::size_t eq = a.find('=');
      std::string value = eq == std::string::npos ? std::string(1, '1')
                                                  : a.substr(eq + 1);
      kv_.insert_or_assign(a.substr(2, eq - 2), std::move(value));
    }
  }
  std::string str(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? dflt : it->second;
  }
  std::string need(const std::string& k) const {
    const auto it = kv_.find(k);
    if (it == kv_.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::uint64_t u64(const std::string& k, std::uint64_t dflt) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? dflt
                           : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double f64(const std::string& k, double dflt) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Flat JSON object of named numbers, printed as one line; run.py reads
/// the last line of each program's stdout.
class JsonLine {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(k, buf);
  }
  void u64(const std::string& k, std::uint64_t v) {
    add(k, std::to_string(v));
  }
  void raw(const std::string& k, const std::string& json) { add(k, json); }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

}  // namespace perfbench
