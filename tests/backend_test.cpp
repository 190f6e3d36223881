// Unit tests for the pwb/pfence backend dispatch and CPU feature detection.
#include "pmem/backend.hpp"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "pmem/cpu_features.hpp"
#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

class BackendTest : public flit::test::PmemTest {};

TEST_F(BackendTest, SetAndGetBackend) {
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    set_backend(b);
    EXPECT_EQ(backend(), b);
  }
}

TEST_F(BackendTest, BackendScopeRestores) {
  set_backend(Backend::kNoOp);
  {
    BackendScope scope(Backend::kSimCrash);
    EXPECT_EQ(backend(), Backend::kSimCrash);
    {
      BackendScope inner(Backend::kHardware);
      EXPECT_EQ(backend(), Backend::kHardware);
    }
    EXPECT_EQ(backend(), Backend::kSimCrash);
  }
  EXPECT_EQ(backend(), Backend::kNoOp);
}

TEST_F(BackendTest, EveryBackendCountsInstructions) {
  int x = 0;
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    BackendScope scope(b);
    const StatsSnapshot before = stats_snapshot();
    pwb(&x);
    pwb(&x);
    pfence();
    // Fence elision: no pwb of this thread since its last fence, so this
    // call returns before the backend switch and counts as empty.
    pfence();
    const StatsSnapshot delta = stats_snapshot() - before;
    EXPECT_EQ(delta.pwbs, 2u) << to_string(b);
    EXPECT_EQ(delta.pfences, 1u) << to_string(b);
    EXPECT_EQ(delta.empty_pfences, 1u) << to_string(b);
  }
}

TEST_F(BackendTest, EmptyPfenceNeverReachesTheSimCrashHook) {
  alignas(64) static std::uint64_t region[8] = {};
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);
  int hooks = 0;
  SimMemory::instance().set_pfence_hook(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &hooks);
  pfence();  // nothing pending
  EXPECT_EQ(hooks, 0);
  pwb(&region[0]);
  pfence();
  EXPECT_EQ(hooks, 1) << "an issued pfence still reaches SimMemory";
  SimMemory::instance().set_pfence_hook(nullptr, nullptr);
}

// A pfence orders only the calling thread's pwbs: thread B's pending pwb
// neither makes thread A's pfence issue nor gets persisted by it.
TEST_F(BackendTest, AnotherThreadsPwbDoesNotMakeThisPfenceIssue) {
  alignas(64) static std::uint64_t region[8] = {};
  region[0] = 0;
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);
  std::promise<void> flushed, fence;
  std::thread b([&flushed, go = fence.get_future()]() mutable {
    region[0] = 42;
    pwb(&region[0]);
    flushed.set_value();
    go.wait();
    pfence();
  });
  flushed.get_future().wait();
  const StatsSnapshot before = stats_snapshot();
  pfence();
  const StatsSnapshot delta = stats_snapshot() - before;
  EXPECT_EQ(delta.pfences, 0u);
  EXPECT_EQ(delta.empty_pfences, 1u);
  EXPECT_EQ(flit::test::persisted_word(&region[0]), 0u)
      << "B's line waits for B's own pfence";
  fence.set_value();
  b.join();
  EXPECT_EQ(flit::test::persisted_word(&region[0]), 42u);
}

TEST_F(BackendTest, HardwareBackendExecutesWithoutFaulting) {
  // Whatever instruction CPUID picked (possibly none) must be callable.
  BackendScope scope(Backend::kHardware);
  alignas(64) std::uint64_t buf[16] = {};
  for (auto& w : buf) {
    w = 1;
    pwb(&w);
  }
  pfence();
  SUCCEED();
}

TEST_F(BackendTest, SimCrashBackendRoutesToSimMemory) {
  alignas(64) static std::uint64_t region[8] = {};
  region[0] = 0;
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);

  region[0] = 77;
  pwb(&region[0]);
  pfence();
  SimMemory::instance().crash();
  EXPECT_EQ(region[0], 77u);
}

TEST_F(BackendTest, PersistRangeCoversAllSpannedLines) {
  alignas(64) static std::byte region[512];
  for (auto& b : region) b = std::byte{0};
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);

  // Dirty a 200-byte range starting mid-line; persist_range must catch the
  // partially covered first and last lines too.
  for (int i = 30; i < 230; ++i) region[i] = std::byte{0xEE};
  persist_range(&region[30], 200);
  SimMemory::instance().crash();
  for (int i = 30; i < 230; ++i) {
    ASSERT_EQ(region[i], std::byte{0xEE}) << "offset " << i;
  }
}

TEST_F(BackendTest, SimLatencyDelaysAreConfigurable) {
  BackendScope scope(Backend::kSimLatency);
  set_sim_latency(0, 0);
  int x = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) pwb(&x);
  const auto fast = std::chrono::steady_clock::now() - t0;

  set_sim_latency(2000, 0);  // 2us per pwb
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) pwb(&x);
  const auto slow = std::chrono::steady_clock::now() - t1;
  EXPECT_GT(slow, fast) << "configured pwb delay must be observable";
  EXPECT_GT(std::chrono::duration<double>(slow).count(), 0.001);
  set_sim_latency(0, 0);
}

TEST(CpuFeatures, DetectionIsStableAndNamed) {
  const FlushInstruction a = detect_flush_instruction();
  const FlushInstruction b = detect_flush_instruction();
  EXPECT_EQ(a, b);
  EXPECT_STRNE(to_string(a), "unknown");
}

TEST(BackendNames, AllNamed) {
  EXPECT_STREQ(to_string(Backend::kNoOp), "noop");
  EXPECT_STREQ(to_string(Backend::kHardware), "hardware");
  EXPECT_STREQ(to_string(Backend::kSimLatency), "sim-latency");
  EXPECT_STREQ(to_string(Backend::kSimCrash), "sim-crash");
}

}  // namespace
}  // namespace flit::pmem
