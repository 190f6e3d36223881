// Durability-mode tests for kv::Store (never / everysec / always):
// mode selection and parsing, the kAlways note_write_commit() hook
// checkpointing per acknowledged write batch, the kEverySec background
// flusher running on its interval (hooks swapped under it) and stopping
// on mode change / close, pool-backed stores treating every mode as a
// no-op, and data written under each mode surviving a reopen.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unistd.h>

#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using KvStore = Store<HashedWords, NVTraverse>;
using std::chrono::milliseconds;

class KvDurabilityTest : public PmemTest {
 protected:
  static std::string temp_path() {
    return "/tmp/flit_kv_durability_test_" + std::to_string(::getpid()) +
           ".pmem";
  }

  void TearDown() override {
    pmem::FileRegion::destroy(temp_path());
    PmemTest::TearDown();
  }

  static KvStore open_file_store() {
    return KvStore::open(temp_path(), 16 << 20, 2, 64);
  }
};

TEST_F(KvDurabilityTest, ParseAndToString) {
  EXPECT_EQ(parse_durability_mode("never"), DurabilityMode::kNever);
  EXPECT_EQ(parse_durability_mode("everysec"), DurabilityMode::kEverySec);
  EXPECT_EQ(parse_durability_mode("always"), DurabilityMode::kAlways);
  EXPECT_FALSE(parse_durability_mode("ALWAYS").has_value());
  EXPECT_FALSE(parse_durability_mode("").has_value());
  EXPECT_STREQ(to_string(DurabilityMode::kNever), "never");
  EXPECT_STREQ(to_string(DurabilityMode::kEverySec), "everysec");
  EXPECT_STREQ(to_string(DurabilityMode::kAlways), "always");
}

TEST_F(KvDurabilityTest, DefaultIsNeverAndHookIsFree) {
  pmem::FileRegion::destroy(temp_path());
  KvStore kv = open_file_store();
  EXPECT_EQ(kv.durability_mode(), DurabilityMode::kNever);
  kv.put(1, "a");
  kv.note_write_commit();
  kv.note_write_commit();
  EXPECT_EQ(kv.checkpoints(), 0u) << "kNever: the hook must be a no-op";
  kv.checkpoint();
  EXPECT_EQ(kv.checkpoints(), 1u) << "explicit checkpoint still works";
  kv.close();
}

TEST_F(KvDurabilityTest, AlwaysCheckpointsPerAcknowledgedBatch) {
  pmem::FileRegion::destroy(temp_path());
  KvStore kv = open_file_store();
  kv.set_durability_mode(DurabilityMode::kAlways);
  EXPECT_EQ(kv.durability_mode(), DurabilityMode::kAlways);
  const std::uint64_t before = kv.checkpoints();
  for (int i = 0; i < 5; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    kv.put(i, v);
    kv.note_write_commit();  // what the server does per readiness event
  }
  EXPECT_EQ(kv.checkpoints(), before + 5);
  kv.close();

  // Everything acknowledged under kAlways is there after reopen.
  KvStore kv2 = open_file_store();
  for (int i = 0; i < 5; ++i) {
    std::string want = "v";
    want += std::to_string(i);
    const auto v = kv2.get(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, want);
  }
  kv2.close();
}

TEST_F(KvDurabilityTest, EverySecFlusherRunsAndStops) {
  pmem::FileRegion::destroy(temp_path());
  KvStore kv = open_file_store();
  // Short interval so the test observes multiple flushes quickly; the
  // production default is 1 s.
  kv.set_durability_mode(DurabilityMode::kEverySec, milliseconds(5));
  kv.put(1, "tick");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kv.checkpoints() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(kv.checkpoints(), 2u) << "flusher never ran";

  // Hooks may be swapped while the flusher checkpoints: the setter takes
  // the same mutex as every checkpoint.
  std::atomic<int> fired{0};
  for (int i = 0; i < 4; ++i) {
    kv.set_checkpoint_hooks({}, [&fired] { fired.fetch_add(1); });
    std::this_thread::sleep_for(milliseconds(1));
  }
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(fired.load(), 2) << "re-installed hook never ran";

  // Switching back to kNever stops the flusher: the counter freezes.
  kv.set_durability_mode(DurabilityMode::kNever);
  const std::uint64_t frozen = kv.checkpoints();
  std::this_thread::sleep_for(milliseconds(40));
  EXPECT_EQ(kv.checkpoints(), frozen);
  kv.close();
}

TEST_F(KvDurabilityTest, CloseStopsTheFlusher) {
  pmem::FileRegion::destroy(temp_path());
  KvStore kv = open_file_store();
  kv.set_durability_mode(DurabilityMode::kEverySec, milliseconds(5));
  kv.put(7, "x");
  kv.close();  // must join the flusher; no use-after-close flushes
  std::this_thread::sleep_for(milliseconds(25));

  KvStore kv2 = open_file_store();
  EXPECT_EQ(kv2.get(7), "x");
  kv2.close();
}

TEST_F(KvDurabilityTest, PoolBackedModesAreNoOps) {
  KvStore kv(2, 64);
  EXPECT_FALSE(kv.file_backed());
  kv.set_durability_mode(DurabilityMode::kAlways);
  kv.put(1, "a");
  kv.note_write_commit();
  EXPECT_EQ(kv.checkpoints(), 0u);
  kv.set_durability_mode(DurabilityMode::kEverySec, milliseconds(5));
  std::this_thread::sleep_for(milliseconds(25));
  EXPECT_EQ(kv.checkpoints(), 0u) << "no backing file: nothing to msync";
  kv.checkpoint();
  EXPECT_EQ(kv.checkpoints(), 0u);
}

TEST_F(KvDurabilityTest, ModeSurvivesAMove) {
  pmem::FileRegion::destroy(temp_path());
  KvStore kv = open_file_store();
  kv.set_durability_mode(DurabilityMode::kEverySec, milliseconds(5));
  // Moving the handle (open() itself returns by value) moves the
  // durability block the flusher runs on, so it keeps checkpointing the
  // moved-to store.
  KvStore moved = std::move(kv);
  EXPECT_EQ(moved.durability_mode(), DurabilityMode::kEverySec);
  moved.put(3, "moved");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (moved.checkpoints() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(moved.checkpoints(), 2u);
  moved.close();
}

}  // namespace
}  // namespace flit::kv
