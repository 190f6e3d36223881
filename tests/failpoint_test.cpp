// Tests for the failpoint fault-injection framework (src/core/failpoint)
// and the degraded modes it drives.
//
// Two layers:
//
//   1. Registry semantics — spec parsing, the once/every:N/prob:P
//      triggers, errno resolution, hit accounting. The registry is
//      compiled in every build, so these run everywhere.
//
//   2. Injection regressions — armed sites actually steering the store
//      and the socket layer into their degraded paths: pool exhaustion
//      becomes a clean kv::OutOfSpace, one failed checkpoint msync
//      latches degraded read-only with no retry and no ack (the
//      fsyncgate lesson), a swallowed close()-path msync failure latches
//      the process-wide durability health, accept failures surface as
//      transient errnos.
//      These only bite in FLIT_CHECKED builds (the `checked` preset)
//      and GTEST_SKIP elsewhere.
#include "core/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/checked.hpp"
#include "kv/store.hpp"
#include "net/socket.hpp"
#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit {
namespace {

using core::Failpoints;
using core::FailSpec;
using core::FailTrigger;

/// Leaves the process-global registry and durability latch clean on both
/// sides of every test (they outlive any single test by design).
class FailpointRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::instance().disarm_all();
    Failpoints::instance().reseed(1);
  }
  void TearDown() override { Failpoints::instance().disarm_all(); }
};

TEST_F(FailpointRegistryTest, ParsesWellFormedSpecClauses) {
  Failpoints& fp = Failpoints::instance();
  EXPECT_TRUE(fp.arm_from_spec("pool.alloc=once"));
  EXPECT_TRUE(fp.arm_from_spec("pmem.msync=every:3@EIO"));
  EXPECT_TRUE(fp.arm_from_spec("net.read=prob:0.25@ECONNRESET"));
  EXPECT_TRUE(fp.arm_from_spec("custom.site=once@113"));

  const auto armed = fp.armed_sites();
  EXPECT_EQ(armed.size(), 4u);
  EXPECT_NE(std::find(armed.begin(), armed.end(), "pool.alloc"),
            armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "custom.site"),
            armed.end());

  // `off` is a valid clause that disarms.
  EXPECT_TRUE(fp.arm_from_spec("pool.alloc=off"));
  EXPECT_EQ(fp.armed_sites().size(), 3u);
}

TEST_F(FailpointRegistryTest, RejectsMalformedSpecClauses) {
  Failpoints& fp = Failpoints::instance();
  EXPECT_FALSE(fp.arm_from_spec(""));
  EXPECT_FALSE(fp.arm_from_spec("=once"));
  EXPECT_FALSE(fp.arm_from_spec("site"));
  EXPECT_FALSE(fp.arm_from_spec("site=banana"));
  EXPECT_FALSE(fp.arm_from_spec("site=every:0"));
  EXPECT_FALSE(fp.arm_from_spec("site=every:abc"));
  EXPECT_FALSE(fp.arm_from_spec("site=prob:1.5"));
  EXPECT_FALSE(fp.arm_from_spec("site=prob:-0.1"));
  EXPECT_FALSE(fp.arm_from_spec("site=once@EBOGUS"));
  EXPECT_FALSE(fp.arm_from_spec("site=once@-5"));
  EXPECT_TRUE(fp.armed_sites().empty());
}

TEST_F(FailpointRegistryTest, ArmFromListSkipsBadClauses) {
  Failpoints& fp = Failpoints::instance();
  EXPECT_EQ(fp.arm_from_list("a=once;this is not a clause;b=every:2@EIO"),
            2u);
  const auto armed = fp.armed_sites();
  EXPECT_EQ(armed.size(), 2u);
}

TEST_F(FailpointRegistryTest, OnceFiresExactlyOnce) {
  Failpoints& fp = Failpoints::instance();
  FailSpec spec;
  spec.trigger = FailTrigger::kOnce;
  spec.error = EIO;
  fp.arm("t.once", spec);
  EXPECT_EQ(fp.should_fail("t.once", 0), EIO);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(fp.should_fail("t.once", 0), 0);
  EXPECT_EQ(fp.hits("t.once"), 1u);
  EXPECT_EQ(fp.evaluations("t.once"), 9u);
}

TEST_F(FailpointRegistryTest, EveryNthFiresOnMultiples) {
  Failpoints& fp = Failpoints::instance();
  FailSpec spec;
  spec.trigger = FailTrigger::kEveryNth;
  spec.every_n = 3;
  spec.error = ENOMEM;
  fp.arm("t.nth", spec);
  for (int i = 1; i <= 9; ++i) {
    const int got = fp.should_fail("t.nth", 0);
    if (i % 3 == 0) {
      EXPECT_EQ(got, ENOMEM) << "evaluation " << i;
    } else {
      EXPECT_EQ(got, 0) << "evaluation " << i;
    }
  }
  EXPECT_EQ(fp.hits("t.nth"), 3u);
}

TEST_F(FailpointRegistryTest, ProbabilityReplaysUnderTheSameSeed) {
  Failpoints& fp = Failpoints::instance();
  FailSpec spec;
  spec.trigger = FailTrigger::kProbability;
  spec.probability = 0.5;
  spec.error = EIO;

  const auto draw = [&] {
    std::vector<int> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(fp.should_fail("t.prob", 0));
    return fires;
  };
  fp.arm("t.prob", spec);
  fp.reseed(12345);
  const auto first = draw();
  fp.arm("t.prob", spec);  // re-arm resets counters
  fp.reseed(12345);
  const auto second = draw();
  EXPECT_EQ(first, second) << "prob trigger must replay under one seed";
  const auto hits = fp.hits("t.prob");
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 64u);
}

TEST_F(FailpointRegistryTest, FiringSiteNeverResolvesToZero) {
  Failpoints& fp = Failpoints::instance();
  FailSpec spec;
  spec.trigger = FailTrigger::kOnce;  // no errno armed
  fp.arm("t.err", spec);
  // No armed errno, no default: the -1 sentinel, never 0 ("proceed").
  EXPECT_EQ(fp.should_fail("t.err", 0), -1);
  fp.arm("t.err", spec);
  // Site default wins when nothing is armed.
  EXPECT_EQ(fp.should_fail("t.err", EMFILE), EMFILE);
  spec.error = EIO;
  fp.arm("t.err", spec);
  // An armed errno beats the site default.
  EXPECT_EQ(fp.should_fail("t.err", EMFILE), EIO);
}

TEST_F(FailpointRegistryTest, DisarmStopsFiringAndTotalHitsAccumulates) {
  Failpoints& fp = Failpoints::instance();
  const auto base = fp.total_hits();
  FailSpec spec;
  spec.trigger = FailTrigger::kEveryNth;
  spec.every_n = 1;
  spec.error = EIO;
  fp.arm("t.dis", spec);
  EXPECT_EQ(fp.should_fail("t.dis", 0), EIO);
  EXPECT_EQ(fp.should_fail("t.dis", 0), EIO);
  fp.disarm("t.dis");
  EXPECT_EQ(fp.should_fail("t.dis", 0), 0);
  EXPECT_EQ(fp.total_hits(), base + 2);
}

// --- injection through the real sites ---------------------------------------

using KvStore = kv::Store<HashedWords, Automatic>;

class FailpointInjectionTest : public flit::test::PmemTest {
 protected:
  void SetUp() override {
    PmemTest::SetUp();
    Failpoints::instance().disarm_all();
    pmem::reset_durability_health();
  }
  void TearDown() override {
    Failpoints::instance().disarm_all();
    pmem::reset_durability_health();
    PmemTest::TearDown();
  }

  static void arm(const std::string& clause) {
    ASSERT_TRUE(Failpoints::instance().arm_from_spec(clause)) << clause;
  }

  static std::string temp_path() {
    return "/tmp/flit_failpoint_test_" + std::to_string(::getpid()) +
           ".pmem";
  }
};

TEST_F(FailpointInjectionTest, PoolAllocInjectionBecomesOutOfSpace) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  KvStore kv(2, 64);
  kv.put(1, "before");
  arm("pool.alloc=once");
  EXPECT_THROW(kv.put(2, "doomed"), kv::OutOfSpace);
  // OutOfSpace derives from bad_alloc: pre-existing handlers keep
  // matching.
  arm("pool.alloc=once");
  EXPECT_THROW(kv.put(2, "doomed"), std::bad_alloc);
  // Per-operation failure: the store stays fully serviceable.
  EXPECT_EQ(kv.get(1), "before");
  EXPECT_EQ(kv.get(2), std::nullopt);
  kv.put(2, "after");  // `once` consumed — succeeds
  EXPECT_EQ(kv.get(2), "after");
  // hits() counts since the last arm (re-arming resets the site);
  // lifetime accounting is total_hits().
  EXPECT_EQ(Failpoints::instance().hits("pool.alloc"), 1u);
}

// The multi_put exception-safety audit. A batch whose k-th allocation
// fails must leave elements < k fully applied and elements >= k untouched
// — never torn, never interleaved — on any shard count.
TEST_F(FailpointInjectionTest, MultiPutEveryNthAllocLeavesCleanPrefix) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  constexpr std::size_t kBatch = 32;
  std::vector<std::string> values;
  std::vector<std::pair<std::int64_t, std::string_view>> kvs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    values.push_back("v" + std::to_string(i) +
                     std::string(64 + i, static_cast<char>('a' + i % 26)));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    kvs.emplace_back(static_cast<std::int64_t>(i), values[i]);
  }

  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    KvStore kv(shards, 256);

    // Fresh inserts allocate one record per element up front (phase 1)
    // and one node per element at publish (phase 2); every:40 survives
    // all 32 record allocations and fires on the 8th publish.
    arm("pool.alloc=every:40");
    EXPECT_THROW(kv.multi_put(kvs), kv::OutOfSpace);
    Failpoints::instance().disarm_all();

    // The applied set must be a prefix of the batch, each element
    // complete.
    std::size_t applied = 0;
    while (applied < kBatch &&
           kv.get(static_cast<std::int64_t>(applied)).has_value()) {
      ++applied;
    }
    EXPECT_LT(applied, kBatch) << "the injected failure should have bitten";
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto got = kv.get(static_cast<std::int64_t>(i));
      if (i < applied) {
        ASSERT_TRUE(got.has_value()) << "hole inside the applied prefix at "
                                     << i;
        EXPECT_EQ(*got, values[i]) << "torn element " << i;
      } else {
        EXPECT_EQ(got, std::nullopt) << "element " << i
                                     << " applied past the failure point";
      }
    }
    EXPECT_EQ(kv.size(), applied);

    // The store is not poisoned: the same batch succeeds once disarmed.
    const auto fresh = kv.multi_put(kvs);
    for (std::size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(fresh[i], i >= applied);
      EXPECT_EQ(kv.get(static_cast<std::int64_t>(i)), values[i]);
    }
  }
}

// The fsyncgate regression: a checkpoint whose msync fails must latch
// degraded read-only at once and acknowledge nothing — not retry, not
// loop. Linux reports a writeback error once and leaves the failed pages
// clean, so a retried msync (`once`) would return 0 for bytes that never
// reached the file; a medium that stays broken (`every:1`) must end the
// same way.
TEST_F(FailpointInjectionTest, MsyncFailureLatchesDegradedReadOnly) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  const std::string path = temp_path();
  for (const char* spec : {"pmem.msync=once@EIO", "pmem.msync=every:1@EIO"}) {
    SCOPED_TRACE(spec);
    pmem::FileRegion::destroy(path);
    {
      KvStore kv = KvStore::open(path, 8 << 20, 2, 64);
      int acks = 0;  // hooks run on this thread: explicit checkpoints only
      kv.set_checkpoint_hooks({}, [&acks] { ++acks; });
      kv.put(1, "durable");
      kv.checkpoint();  // healthy baseline
      EXPECT_EQ(acks, 1);

      arm(spec);
      EXPECT_THROW(kv.checkpoint(), kv::StoreReadOnly);
      // One attempt, and the failed checkpoint acknowledged nothing.
      EXPECT_EQ(Failpoints::instance().hits("pmem.msync"), 1u);
      EXPECT_EQ(acks, 1) << "a failed checkpoint ran the post hook";
      Failpoints::instance().disarm_all();

      // Latched: every mutation refused up front, reads still served.
      EXPECT_EQ(kv.health(), kv::Health::kDegradedReadOnly);
      EXPECT_THROW(kv.put(2, "x"), kv::StoreReadOnly);
      EXPECT_THROW(kv.remove(1), kv::StoreReadOnly);
      EXPECT_THROW(kv.checkpoint(), kv::StoreReadOnly);
      EXPECT_EQ(acks, 1);
      EXPECT_EQ(kv.get(1), "durable");
      kv.close();
    }
    // Reopening is the deliberate operator action that clears the latch
    // (new process/page-cache state); the data survived.
    {
      KvStore kv = KvStore::open(path, 8 << 20, 2, 64);
      EXPECT_EQ(kv.health(), kv::Health::kOk);
      EXPECT_EQ(kv.get(1), "durable");
      kv.put(2, "writable again");
      EXPECT_EQ(kv.get(2), "writable again");
      kv.close();
    }
  }
  pmem::FileRegion::destroy(path);
}

// Satellite: FileRegion::close() used to (void)-discard its final msync
// result. It still must not throw (destructors land there), so a failure
// now latches the process-wide durability health instead of vanishing.
TEST_F(FailpointInjectionTest, CloseMsyncFailureLatchesProcessHealth) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  {
    pmem::FileRegion region = pmem::FileRegion::open(path, 1 << 20);
    EXPECT_FALSE(pmem::durability_degraded());
    arm("pmem.msync=once@EIO");
    region.close();  // must not throw
    EXPECT_TRUE(pmem::durability_degraded())
        << "a swallowed close-path msync failure must latch health";
  }
  pmem::reset_durability_health();
  pmem::FileRegion::destroy(path);
}

// Store::health() folds the process-wide latch for file-backed stores —
// a close-path failure on some other region still means this process's
// durability story is broken.
TEST_F(FailpointInjectionTest, StoreHealthFoldsProcessLatchWhenFileBacked) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  KvStore kv = KvStore::open(path, 8 << 20, 2, 64);
  kv.put(1, "v");
  EXPECT_EQ(kv.health(), kv::Health::kOk);
  pmem::note_durability_failure("injected by test");
  EXPECT_EQ(kv.health(), kv::Health::kDegradedReadOnly);
  EXPECT_THROW(kv.put(2, "x"), kv::StoreReadOnly);
  EXPECT_EQ(kv.get(1), "v");
  pmem::reset_durability_health();
  EXPECT_EQ(kv.health(), kv::Health::kOk);
  kv.put(2, "x");
  kv.close();
  pmem::FileRegion::destroy(path);
}

TEST_F(FailpointInjectionTest, AcceptInjectionReportsTransientErrno) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  net::SocketFd listener = net::listen_tcp("127.0.0.1", 0);
  arm("net.accept=once");  // site default: EMFILE
  int err = -1;
  net::SocketFd conn = net::accept_nonblocking(listener.get(), &err);
  EXPECT_FALSE(conn.valid());
  EXPECT_EQ(err, EMFILE);
  // Once consumed: the next call is a normal drained listener.
  conn = net::accept_nonblocking(listener.get(), &err);
  EXPECT_FALSE(conn.valid());
  EXPECT_EQ(err, 0);
}

TEST_F(FailpointInjectionTest, ReadAndWriteInjectionSimulateDeadPeer) {
  if (!core::kChecked) {
    GTEST_SKIP() << "needs the checked preset (FLIT_CHECKED=ON)";
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char buf[8] = {};
  bool would_block = false;

  arm("net.read=once");
  // Injected reset surfaces exactly like the real mapping: EOF.
  EXPECT_EQ(net::read_some(fds[0], buf, sizeof(buf), would_block), 0);

  ::close(fds[0]);
  ::close(fds[1]);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  arm("net.write=once");
  EXPECT_EQ(net::write_some(sv[0], "abcd", 4, would_block), -1);
  EXPECT_FALSE(would_block);
  arm("net.write.short=once");
  // Truncated to one byte: the partial-write resumption path's fuel.
  EXPECT_EQ(net::write_some(sv[0], "abcd", 4, would_block), 1);
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace
}  // namespace flit
