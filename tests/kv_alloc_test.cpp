// Heap allocations per steady-state KV operation.
//
// The binary replaces global operator new with a counting one that counts
// only on the calling thread and only while a measured call runs, so the
// store's own allocations are pinned exactly: a regression that adds a
// heap allocation to the serving path fails here by name. The pool is not
// the heap: records and nodes come from pmem::Pool and are not counted.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checked.hpp"
#include "kv/store.hpp"
#include "support/test_common.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocs = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (t_counting) ++t_allocs;
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
  std::size_t put = 0, multi_put = 0, multi_get = 0, multi_remove = 0;
};

/// Rounds of put, multi_put, multi_get and multi_remove over one batch of
/// 16 keys with 100 B values, on 8 shards. Each round re-inserts the
/// batch the previous round removed, so every element of every multi-op
/// hits.
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
  Allocs total;
  for (std::size_t r = 0; r < rounds; ++r) {
    total.put += allocs_of([&] { kv.put(1000, value); });
    total.multi_put += allocs_of([&] { (void)kv.multi_put(kvs); });
    total.multi_get += allocs_of([&] { (void)kv.multi_get(keys); });
    total.multi_remove += allocs_of([&] { (void)kv.multi_remove(keys); });
  }
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

}  // namespace
}  // namespace flit::kv
