// Unit tests for per-thread persistence-instruction statistics.
#include "pmem/stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pmem/backend.hpp"
#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

class StatsTest : public flit::test::PmemTest {};

TEST_F(StatsTest, CountsAccumulate) {
  const StatsSnapshot before = stats_snapshot();
  int x = 0;
  pwb(&x);
  pwb(&x);
  pwb(&x);
  pfence();
  const StatsSnapshot d = stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 3u);
  EXPECT_EQ(d.pfences, 1u);
}

TEST_F(StatsTest, SnapshotArithmetic) {
  StatsSnapshot a{10, 4};
  StatsSnapshot b{3, 1};
  const StatsSnapshot d = a - b;
  EXPECT_EQ(d.pwbs, 7u);
  EXPECT_EQ(d.pfences, 3u);
  StatsSnapshot c;
  c += a;
  c += b;
  EXPECT_EQ(c.pwbs, 13u);
  EXPECT_EQ(c.pfences, 5u);
}

TEST_F(StatsTest, AggregatesAcrossThreads) {
  stats_reset();
  const StatsSnapshot before = stats_snapshot();
  constexpr int kThreads = 6;
  constexpr int kOps = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      int x = 0;
      for (int i = 0; i < kOps; ++i) {
        pwb(&x);
        pfence();
      }
    });
  }
  for (auto& th : ts) th.join();
  const StatsSnapshot d = stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(d.pfences, static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST_F(StatsTest, CountersOfExitedThreadsRemainVisible) {
  stats_reset();
  const StatsSnapshot before = stats_snapshot();
  {
    std::thread t([] {
      int x = 0;
      pwb(&x);
    });
    t.join();
  }
  const StatsSnapshot d = stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 1u);
}

TEST_F(StatsTest, ResetZeroesEverything) {
  int x = 0;
  pwb(&x);
  stats_reset();
  const StatsSnapshot s = stats_snapshot();
  EXPECT_EQ(s.pwbs, 0u);
  EXPECT_EQ(s.pfences, 0u);
}

// pfence's "anything to order?" flag is not derived from these counters:
// resetting them between a pwb and its pfence must not make the fence
// look empty.
TEST_F(StatsTest, ResetBetweenPwbAndPfenceStillFences) {
  alignas(64) static std::uint64_t region[8] = {};
  region[0] = 0;
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);
  region[0] = 7;
  pwb(&region[0]);
  stats_reset();
  pfence();
  EXPECT_EQ(flit::test::persisted_word(&region[0]), 7u);
  EXPECT_EQ(stats_snapshot().pfences, 1u);
}

}  // namespace
}  // namespace flit::pmem
