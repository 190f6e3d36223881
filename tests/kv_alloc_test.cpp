// Heap allocations per steady-state KV operation, and per pipelined
// round through a net::Server worker.
//
// The binary replaces global operator new with a counting one. It counts
// the calling thread while a measured store call runs, or every thread
// but the test's while a measured server round runs, so the store's and
// the server's own allocations are pinned exactly: a regression that adds
// a heap allocation to the serving path fails here by name. The pool is
// not the heap: records and nodes come from pmem::Pool and are not
// counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/checked.hpp"
#include "kv/store.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "support/test_common.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocs = 0;

// Server rounds: every thread but the one that set t_not_counted counts
// while g_count_others is set (the server's listener and worker).
std::atomic<bool> g_count_others{false};
std::atomic<std::size_t> g_others_allocs{0};
thread_local bool t_not_counted = false;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (t_counting) {
    ++t_allocs;
  } else if (!t_not_counted &&
             g_count_others.load(std::memory_order_relaxed)) {
    g_others_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these two.
void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace flit::kv {
namespace {

using flit::test::PmemTest;

class KvAllocTest : public PmemTest {};

/// Heap allocations the calling thread makes inside f().
template <class F>
std::size_t allocs_of(F&& f) {
  const std::size_t before = t_allocs;
  t_counting = true;
  f();
  t_counting = false;
  return t_allocs - before;
}

struct Allocs {
  std::size_t put = 0, multi_put = 0, multi_get = 0, visit_multi_get = 0,
              visit_multi_get_40 = 0, scan = 0, scan_7_after_50 = 0,
              scan_50_after_7 = 0, multi_remove = 0;
};

/// Rounds of put, multi_put, multi_get (both forms), scans (ordered
/// stores) and multi_remove over one batch of 16 keys with 100 B values,
/// on 8 shards, plus a visitor multi_get of 40 keys (the batch and 24
/// more: three probe-pipeline chunks). Each round re-inserts the batch
/// the previous round removed, so every element of every multi-op hits.
/// Every round scans 50 keys into an `out` that holds 50 pairs, then 7
/// into it and 50 again, so the last scan re-grows what the one before
/// trimmed.
template <class KV>
Allocs allocs_per_round(std::size_t rounds) {
  constexpr std::size_t kBatch = 16;
  KV kv(8, 256, KeyRange{0, 1024});  // hashed stores ignore the range
  const std::string value(100, 'v');
  std::vector<std::int64_t> keys;
  std::vector<std::pair<std::int64_t, std::string_view>> kvs;
  for (std::size_t i = 0; i < kBatch; ++i) {  // spread over all 8 shards
    keys.push_back(static_cast<std::int64_t>(i * 61));
    kvs.emplace_back(keys.back(), value);
  }
  // Past the batch and key 1000, so scan(0, 50) crosses every shard.
  for (std::int64_t k = 2000; k < 2064; ++k) kv.put(k, value);
  std::vector<std::int64_t> keys40 = keys;
  for (std::int64_t k = 2000; k < 2024; ++k) keys40.push_back(k);
  std::vector<std::pair<std::int64_t, std::string>> out;
  if constexpr (KV::kOrdered) kv.scan(0, 50, out);  // 50 pairs to reuse
  std::size_t seen = 0;
  Allocs total;
  for (std::size_t r = 0; r < rounds; ++r) {
    total.put += allocs_of([&] { kv.put(1000, value); });
    total.multi_put += allocs_of([&] { (void)kv.multi_put(kvs); });
    total.multi_get += allocs_of([&] { (void)kv.multi_get(keys); });
    total.visit_multi_get += allocs_of([&] {
      kv.multi_get(keys, [&](std::size_t, std::optional<std::string_view> v) {
        seen += v.has_value();
      });
    });
    total.visit_multi_get_40 += allocs_of([&] {
      kv.multi_get(keys40,
                   [&](std::size_t, std::optional<std::string_view> v) {
                     seen += v.has_value();
                   });
    });
    if constexpr (KV::kOrdered) {
      total.scan += allocs_of([&] { seen += kv.scan(0, 50, out); });
      total.scan_7_after_50 += allocs_of([&] { seen += kv.scan(0, 7, out); });
      total.scan_50_after_7 += allocs_of([&] { seen += kv.scan(0, 50, out); });
    }
    total.multi_remove += allocs_of([&] { (void)kv.multi_remove(keys); });
  }
  EXPECT_EQ(seen, rounds * (kBatch + 40 + (KV::kOrdered ? 107 : 0)));
  return total;
}

template <class KV>
void expect_steady_state_allocs(const char* layout) {
  SCOPED_TRACE(layout);
  constexpr std::size_t kRounds = 200;
  // Warm-up: grows the thread-local publish scratch and EBR's limbo
  // buckets to their steady-state capacity.
  (void)allocs_per_round<KV>(kRounds);
  const Allocs a = allocs_per_round<KV>(kRounds);
  EXPECT_EQ(a.put, 0u) << "put";
  // fresh flags, records, publish batch, superseded list
  EXPECT_EQ(a.multi_put, 4 * kRounds) << "multi_put of 16";
  // the result vector and one 100 B copy per hit
  EXPECT_EQ(a.multi_get, 17 * kRounds) << "multi_get of 16";
  EXPECT_EQ(a.visit_multi_get, 0u) << "visitor multi_get of 16";
  EXPECT_EQ(a.visit_multi_get_40, 0u) << "visitor multi_get of 40";
  // a warm `out`: its pairs are overwritten in place
  EXPECT_EQ(a.scan, 0u) << "scan of 50 into a reused out";
  // a trim keeps the dropped strings on the thread's spare list, and the
  // longer scan after it takes them back
  EXPECT_EQ(a.scan_7_after_50, 0u) << "scan of 7 after one of 50";
  EXPECT_EQ(a.scan_50_after_7, 0u) << "scan of 50 after one of 7";
  // the result vector
  EXPECT_EQ(a.multi_remove, 1 * kRounds) << "multi_remove of 16";
}

TEST_F(KvAllocTest, SteadyStateAllocationsPerOpAreExact) {
  if (core::kChecked) {
    GTEST_SKIP() << "the checked build's recorders allocate per op";
  }
  expect_steady_state_allocs<Store<HashedWords, Automatic>>("hashed");
  expect_steady_state_allocs<OrderedStore<HashedWords, Automatic>>(
      "ordered");
}

// --- the server ------------------------------------------------------------

/// Heap allocations every thread but the caller's makes while f() runs.
template <class F>
std::size_t others_allocs_of(F&& f) {
  t_not_counted = true;
  const std::size_t before = g_others_allocs.load();
  g_count_others.store(true);
  f();
  g_count_others.store(false);
  return g_others_allocs.load() - before;
}

struct ServerAllocs {
  std::size_t set_run = 0, get_run = 0, mget = 0, scan = 0,
              scan_7_after_50 = 0, scan_50_after_7 = 0;
};

/// Pipelined rounds over one connection, each one burst that the worker
/// reads in one readiness event: a run of 16 SETs (100 B overwrites), a
/// run of 18 GETs (16 hits, one bad key mid-run, one miss), an MGET of
/// the 16 keys and, on the ordered layout, a SCAN of 50 pairs, one of 7
/// and one of 50 again.
template <class KV>
ServerAllocs server_allocs_per_round(net::Client& c, std::size_t rounds) {
  const std::string value(100, 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back(std::to_string(i * 61));
  std::vector<std::string_view> mget{"MGET"};
  mget.insert(mget.end(), keys.begin(), keys.end());
  ServerAllocs total;
  for (std::size_t r = 0; r < rounds; ++r) {
    total.set_run += others_allocs_of([&] {
      for (const std::string& k : keys) c.enqueue({"SET", k, value});
      c.flush();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_TRUE(c.read_reply().ok());
      }
    });
    total.get_run += others_allocs_of([&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == 8) c.enqueue({"GET", "not-a-key"});
        c.enqueue({"GET", keys[i]});
      }
      c.enqueue({"GET", "7"});
      c.flush();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == 8) {
          EXPECT_TRUE(c.read_reply().is_error());
        }
        EXPECT_EQ(c.read_reply().str, value);
      }
      EXPECT_TRUE(c.read_reply().is_null());
    });
    total.mget += others_allocs_of([&] {
      c.enqueue_parts(mget.data(), mget.size());
      c.flush();
      EXPECT_EQ(c.read_reply().elems.size(), keys.size());
    });
    if constexpr (KV::kOrdered) {
      const auto scan = [&c](std::string_view n, std::size_t pairs) {
        return others_allocs_of([&] {
          c.enqueue({"SCAN", "0", n});
          c.flush();
          EXPECT_EQ(c.read_reply().elems.size(), 2 * pairs);
        });
      };
      total.scan += scan("50", 50);
      total.scan_7_after_50 += scan("7", 7);
      total.scan_50_after_7 += scan("50", 50);
    }
  }
  return total;
}

template <class KV>
void expect_server_steady_state_allocs(const char* layout) {
  SCOPED_TRACE(layout);
  constexpr std::size_t kRounds = 100;
  KV kv(8, 256, KeyRange{0, 1024});
  const std::string value(100, 'v');
  for (std::int64_t k = 2000; k < 2064; ++k) kv.put(k, value);  // for SCAN
  net::ServerConfig cfg;
  cfg.workers = 1;
  net::Server<KV> server(kv, cfg);
  std::thread runner([&] { server.run(); });
  {
    net::Client c = net::Client::connect("127.0.0.1", server.port());
    // Warm-up: grows the worker's request slots and scratch, the
    // connection's buffers, SCAN's pairs and the worker's EBR limbo.
    (void)server_allocs_per_round<KV>(c, kRounds);
    const ServerAllocs a = server_allocs_per_round<KV>(c, kRounds);
    EXPECT_EQ(a.get_run, 0u) << "GET run of 18";
    EXPECT_EQ(a.mget, 0u) << "MGET of 16";
    EXPECT_EQ(a.scan, 0u) << "SCAN of 50";
    EXPECT_EQ(a.scan_7_after_50, 0u) << "SCAN of 7 after one of 50";
    EXPECT_EQ(a.scan_50_after_7, 0u) << "SCAN of 50 after one of 7";
    // multi_put's own: fresh flags, records, publish batch, superseded
    EXPECT_EQ(a.set_run, 4 * kRounds) << "SET run of 16";
  }
  server.shutdown();
  runner.join();
}

TEST_F(KvAllocTest, ServerWorkerSteadyStateAllocationsPerRoundAreExact) {
  if (core::kChecked) {
    GTEST_SKIP() << "the checked build's recorders allocate per op";
  }
  expect_server_steady_state_allocs<Store<HashedWords, Automatic>>("hashed");
  expect_server_steady_state_allocs<OrderedStore<HashedWords, Automatic>>(
      "ordered");
}

}  // namespace
}  // namespace flit::kv
