#include "check/lincheck.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

namespace flit::check {

const char* to_string(LifetimeViolation v) noexcept {
  switch (v) {
    case LifetimeViolation::kEarlyReclaim: return "early reclamation";
    case LifetimeViolation::kUseAfterFree: return "use after free";
    case LifetimeViolation::kUnprotectedDeref: return "unprotected deref";
    case LifetimeViolation::kStaleDeref: return "post-grace deref";
  }
  return "unknown";
}

// --- Recorder --------------------------------------------------------------

namespace {

struct Log {
  // Owner thread appends; the mutex only serializes against the quiescent
  // snapshot()/reset(), so the fast path takes an uncontended lock.
  std::mutex mu;
  std::vector<Event> events;
  std::vector<ScanEvent> scans;
};

// persist-lint: allow(checker bookkeeping — heap-resident, never durable)
struct RecorderState {
  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> tick{1};
  std::mutex registry_mu;
  std::vector<std::shared_ptr<Log>> logs;
};

// Immortal, like PersistCheck::Impl: hook calls may still arrive during
// static destruction of test fixtures' worker helpers.
RecorderState& rec() {
  static RecorderState* s = new RecorderState();
  return *s;
}

Log& tls_log() {
  thread_local std::shared_ptr<Log> log = [] {
    auto l = std::make_shared<Log>();
    RecorderState& s = rec();
    std::lock_guard<std::mutex> lk(s.registry_mu);
    s.logs.push_back(l);
    return l;
  }();
  return *log;
}

}  // namespace

Recorder& Recorder::instance() {
  static Recorder* r = new Recorder();
  return *r;
}

void Recorder::arm() noexcept {
  rec().armed.store(true, std::memory_order_seq_cst);
}
void Recorder::disarm() noexcept {
  rec().armed.store(false, std::memory_order_seq_cst);
}
bool Recorder::armed() const noexcept {
  return rec().armed.load(std::memory_order_seq_cst);
}

std::uint64_t Recorder::now() const noexcept {
  return rec().tick.load(std::memory_order_seq_cst);
}

std::uint64_t Recorder::begin() noexcept {
  RecorderState& s = rec();
  if (!s.armed.load(std::memory_order_seq_cst)) return kNoTick;
  // seq_cst so the tick order is a legal global order of the stamping
  // instants: if op A responds before op B is invoked in real time, A's
  // resp tick is smaller than B's inv tick.
  return s.tick.fetch_add(1, std::memory_order_seq_cst);
}

void Recorder::end(std::uint64_t inv, Op op, std::int64_t key,
                   std::uint64_t value, bool flag) {
  if (inv == kNoTick) return;
  const std::uint64_t resp = rec().tick.fetch_add(1, std::memory_order_seq_cst);
  Log& l = tls_log();
  std::lock_guard<std::mutex> lk(l.mu);
  l.events.push_back({inv, resp, key, value, op, flag});
}

void Recorder::end_scan(std::uint64_t inv, std::int64_t start,
                        std::size_t limit,
                        std::vector<std::pair<std::int64_t, std::uint64_t>>
                            out) {
  if (inv == kNoTick) return;
  const std::uint64_t resp = rec().tick.fetch_add(1, std::memory_order_seq_cst);
  Log& l = tls_log();
  std::lock_guard<std::mutex> lk(l.mu);
  l.scans.push_back({inv, resp, start, limit, std::move(out)});
}

History Recorder::snapshot() const {
  RecorderState& s = rec();
  History h;
  std::lock_guard<std::mutex> lk(s.registry_mu);
  for (const std::shared_ptr<Log>& l : s.logs) {
    std::lock_guard<std::mutex> llk(l->mu);
    h.events.insert(h.events.end(), l->events.begin(), l->events.end());
    h.scans.insert(h.scans.end(), l->scans.begin(), l->scans.end());
  }
  return h;
}

void Recorder::reset() {
  RecorderState& s = rec();
  std::lock_guard<std::mutex> lk(s.registry_mu);
  for (const std::shared_ptr<Log>& l : s.logs) {
    std::lock_guard<std::mutex> llk(l->mu);
    l->events.clear();
    l->scans.clear();
  }
  s.tick.store(1, std::memory_order_seq_cst);
}

// --- Lifetime --------------------------------------------------------------

namespace {

struct LifetimeEntry {
  std::uint64_t retire_epoch = 0;
  const char* site = "";
  bool freed = false;
};

struct LifetimeState {
  // Exact node addresses; ordered so on_alloc can erase the recycled range.
  std::shared_mutex mu;
  std::map<std::uintptr_t, LifetimeEntry> retired;

  // persist-lint: allow(violation counters — checker state, never durable)
  std::atomic<std::uint64_t> counts[kLifetimeViolationKinds] = {};
  std::once_flag atexit_once;

  static constexpr std::size_t kMaxDiags = 32;
  std::mutex diag_mu;
  std::vector<std::string> diags;
  const char* first_site = "";

  void report(LifetimeViolation v, const char* site, const void* p) {
    counts[static_cast<int>(v)].fetch_add(1, std::memory_order_acq_rel);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "LinCheck: %s at %s (node %p)",
                  to_string(v), site, p);
    std::fprintf(stderr, "%s\n", buf);
    std::lock_guard<std::mutex> lk(diag_mu);
    if (diags.empty()) first_site = site;
    if (diags.size() < kMaxDiags) diags.emplace_back(buf);
  }
};

LifetimeState& lt() {
  static LifetimeState* s = new LifetimeState();
  return *s;
}

void arm_exit_report() {
  std::call_once(lt().atexit_once, [] {
    std::atexit([] {
      Lifetime& l = Lifetime::instance();
      const std::uint64_t total = l.total_violations();
      if (total == 0) return;
      LifetimeState& s = lt();
      std::fprintf(stderr,
                   "LinCheck: %llu unacknowledged lifetime violation(s) "
                   "at exit:\n",
                   static_cast<unsigned long long>(total));
      {
        std::lock_guard<std::mutex> lk(s.diag_mu);
        for (const std::string& d : s.diags) {
          std::fprintf(stderr, "  %s\n", d.c_str());
        }
      }
      std::_Exit(1);
    });
  });
}

}  // namespace

Lifetime& Lifetime::instance() {
  static Lifetime* l = new Lifetime();
  return *l;
}

void Lifetime::on_alloc(const void* p, std::size_t len) {
  LifetimeState& s = lt();
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::unique_lock<std::shared_mutex> lk(s.mu);
  auto it = s.retired.lower_bound(a);
  while (it != s.retired.end() && it->first < a + len) {
    it = s.retired.erase(it);
  }
}

void Lifetime::on_retire(const void* p, std::uint64_t epoch,
                         const char* site) {
  LifetimeState& s = lt();
  std::unique_lock<std::shared_mutex> lk(s.mu);
  s.retired[reinterpret_cast<std::uintptr_t>(p)] = {epoch, site, false};
}

void Lifetime::on_free(const void* p, std::uint64_t now, bool quiescent) {
  LifetimeState& s = lt();
  const char* site = "";
  std::uint64_t retire_epoch = 0;
  bool tracked = false;
  {
    std::unique_lock<std::shared_mutex> lk(s.mu);
    auto it = s.retired.find(reinterpret_cast<std::uintptr_t>(p));
    if (it != s.retired.end()) {
      tracked = true;
      site = it->second.site;
      retire_epoch = it->second.retire_epoch;
      it->second.freed = true;
    }
  }
  if (!tracked || quiescent) return;
  // A reader that can still reach this node announced <= retire_epoch + 1
  // (its guard pins the epoch), so freeing is safe once the global epoch
  // has moved two past the retirement.
  if (now < retire_epoch + 2) {
    arm_exit_report();
    s.report(LifetimeViolation::kEarlyReclaim, site, p);
  }
}

void Lifetime::on_deref(const void* p, std::uint64_t announce,
                        const char* site) {
  LifetimeState& s = lt();
  std::uint64_t retire_epoch = 0;
  bool tracked = false;
  bool freed = false;
  {
    std::shared_lock<std::shared_mutex> lk(s.mu);
    auto it = s.retired.find(reinterpret_cast<std::uintptr_t>(p));
    if (it != s.retired.end()) {
      tracked = true;
      retire_epoch = it->second.retire_epoch;
      freed = it->second.freed;
    }
  }
  if (!tracked) return;  // live node, never retired
  arm_exit_report();
  if (freed) {
    s.report(LifetimeViolation::kUseAfterFree, site, p);
  } else if (announce == recl::Ebr::kIdleEpoch) {
    s.report(LifetimeViolation::kUnprotectedDeref, site, p);
  } else if (announce >= retire_epoch + 2) {
    // The retirer's unlink happened before its retire; a guard entered
    // two epochs later can only reach the node via a leaked pointer.
    s.report(LifetimeViolation::kStaleDeref, site, p);
  }
}

std::uint64_t Lifetime::violations(LifetimeViolation v) const noexcept {
  return lt().counts[static_cast<int>(v)].load(std::memory_order_acquire);
}

std::uint64_t Lifetime::total_violations() const noexcept {
  std::uint64_t t = 0;
  for (int i = 0; i < kLifetimeViolationKinds; ++i) {
    t += violations(static_cast<LifetimeViolation>(i));
  }
  return t;
}

const char* Lifetime::first_violation_site() const noexcept {
  LifetimeState& s = lt();
  std::lock_guard<std::mutex> lk(s.diag_mu);
  return s.first_site;
}

void Lifetime::reset_violations() noexcept {
  LifetimeState& s = lt();
  for (auto& c : s.counts) c.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lk(s.diag_mu);
  s.diags.clear();
  s.first_site = "";
}

void Lifetime::clear() {
  LifetimeState& s = lt();
  std::unique_lock<std::shared_mutex> lk(s.mu);
  s.retired.clear();
}

// --- seeded bugs -----------------------------------------------------------

namespace {

struct UnsafeState {
  std::mutex mu;
  std::vector<std::function<void()>> pending;
};

UnsafeState& us() {
  static UnsafeState* s = new UnsafeState();
  return *s;
}

}  // namespace

void unsafe_defer(std::function<void()> fn) {
  UnsafeState& s = us();
  std::lock_guard<std::mutex> lk(s.mu);
  s.pending.push_back(std::move(fn));
}

void unsafe_apply_pending() {
  UnsafeState& s = us();
  std::vector<std::function<void()>> work;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    work.swap(s.pending);
  }
  for (const auto& fn : work) fn();
}

}  // namespace flit::check
