// LinCheck's own suite — four layers of validation:
//
//   1. Checker unit tests on hand-built histories: linearizable histories
//      are accepted; each violation class is produced by a minimal
//      history that provably exhibits it (the checker is sound, so every
//      rejection test is also a semantics test of the rule). The crash
//      harness's ack-stream encoding is pinned the same way, from
//      literal ack lines.
//   2. Lifetime-analyzer unit tests driving the registry directly with
//      fake pointers: the 3-epoch grace rule, quiescent-drain exemption,
//      use-after-free / unprotected / stale dereference detection, and
//      address-recycling hygiene.
//   3. Recorded stress runs: concurrent workloads over the otherwise
//      dead-code ds::NatarajanBst and ds::LockedBPlusTree (recorded
//      directly via the Recorder, so these run in every build) and over
//      kv::Store scalar/batched/ordered paths (via the FLIT_CHECKED
//      hooks, so those skip elsewhere) must produce zero findings.
//   4. Seeded-bug validation (FLIT_CHECKED builds): each `bug.*`
//      failpoint site in the kv layer plants one precise bug and the
//      checker must catch it with the right class and site; plus
//      the durable-linearizability sweep replaying pfence-boundary crash
//      images across all nine store configurations.
#include "check/lincheck.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "check/linearizer.hpp"
#include "core/checked.hpp"
#include "core/failpoint.hpp"
#include "crash_log.hpp"
#include "ds/locked_bptree.hpp"
#include "ds/natarajan_bst.hpp"
#include "kv/store.hpp"
#include "support/test_common.hpp"

namespace flit {
namespace {

using flit::test::PmemTest;
using check::Event;
using check::Finding;
using check::History;
using check::Op;
using check::ScanEvent;
using check::ViolationClass;
using K = std::int64_t;

// --- helpers ---------------------------------------------------------------

Event ev(std::uint64_t inv, std::uint64_t resp, K key, Op op,
         std::uint64_t value, bool flag) {
  return Event{inv, resp, key, value, op, flag};
}

bool has_class(const std::vector<Finding>& fs, ViolationClass c) {
  for (const Finding& f : fs) {
    if (f.cls == c) return true;
  }
  return false;
}

std::string render(const std::vector<Finding>& fs) {
  std::string s;
  for (const Finding& f : fs) {
    s += std::string(check::to_string(f.cls)) + " key " +
         std::to_string(f.key) + " tick " + std::to_string(f.tick) + ": " +
         f.detail + "\n";
  }
  return s.empty() ? "(no findings)" : s;
}

#define EXPECT_CLEAN(findings) \
  EXPECT_TRUE((findings).empty()) << render(findings)

/// Deterministic unique payload so every put gets a distinct value id —
/// stale reads are then distinguishable from current ones by content.
std::string value_for(K k, std::uint64_t salt) {
  return "v" + std::to_string(k) + ":" + std::to_string(salt) + ":" +
         std::string(1 + static_cast<std::size_t>((k * 7 + salt) % 24), 'x');
}

// --- 1. checker unit tests: accepted histories -----------------------------

TEST(LinCheckHistory, EmptyHistoryAccepted) {
  EXPECT_CLEAN(check::check_history(History{}));
}

TEST(LinCheckHistory, SequentialRunAccepted) {
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 5, Op::kPut, v1, true),      // insert: was absent
      ev(3, 4, 5, Op::kGet, v1, true),      // sees it
      ev(5, 6, 5, Op::kPut, v2, false),     // overwrite: was present
      ev(7, 8, 5, Op::kGet, v2, true),      // sees the new value
      ev(9, 10, 5, Op::kContains, 0, true),
      ev(11, 12, 5, Op::kRemove, 0, true),  // was present
      ev(13, 14, 5, Op::kGet, 0, false),    // gone
      ev(15, 16, 5, Op::kContains, 0, false),
      ev(17, 18, 5, Op::kRemove, 0, false),  // already gone
  };
  EXPECT_CLEAN(check::check_history(h));
}

TEST(LinCheckHistory, ConcurrentOverlapAccepted) {
  // Two overlapping puts and a read inside the overlap seeing the first
  // value: the witness p1 < g1 < p2 < g2 explains every response.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 4, 7, Op::kPut, v1, true),
      ev(2, 6, 7, Op::kPut, v2, false),
      ev(3, 5, 7, Op::kGet, v1, true),
      ev(7, 8, 7, Op::kGet, v2, true),
  };
  EXPECT_CLEAN(check::check_history(h));
}

TEST(LinCheckHistory, BatchSharedInvTicksAccepted) {
  // Batched multi-op elements share one inv tick (multi_put semantics:
  // applied in batch order, so the duplicate key's flags are insert-then-
  // overwrite and the final read sees the last element's value).
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 3, Op::kPut, v1, true),
      ev(1, 3, 3, Op::kPut, v2, false),
      ev(4, 5, 3, Op::kGet, v2, true),
  };
  EXPECT_CLEAN(check::check_history(h));
}

TEST(LinCheckHistory, IndependentKeysCheckedIndependently) {
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(1, 3, 2, Op::kPut, v2, true),  // same inv tick, different key
      ev(4, 5, 1, Op::kGet, v1, true),
      ev(4, 6, 2, Op::kGet, v2, true),
  };
  EXPECT_CLEAN(check::check_history(h));
}

// --- 1. checker unit tests: rejected histories -----------------------------

TEST(LinCheckHistory, StaleReadRejected) {
  // g returns v1 although the overwrite to v2 completed strictly between
  // p1's response and g's invocation — v1 is certainly superseded.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 9, Op::kPut, v1, true),
      ev(3, 4, 9, Op::kPut, v2, false),
      ev(5, 6, 9, Op::kGet, v1, true),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kStaleRead)) << render(fs);
}

TEST(LinCheckHistory, PhantomReadRejected) {
  const std::uint64_t v1 = check::value_id("a");
  const std::uint64_t ghost = check::value_id("never-written");
  History h;
  h.events = {
      ev(1, 2, 9, Op::kPut, v1, true),
      ev(3, 4, 9, Op::kGet, ghost, true),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kPhantomRead)) << render(fs);
}

TEST(LinCheckHistory, LostUpdateRejected) {
  // The put completed before the get began and nothing ever removed the
  // key, yet the get reports it absent.
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {
      ev(1, 2, 9, Op::kPut, v1, true),
      ev(3, 4, 9, Op::kGet, 0, false),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kLostUpdate)) << render(fs);
}

TEST(LinCheckHistory, ContainsFlagMismatchRejected) {
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {
      ev(1, 2, 9, Op::kPut, v1, true),
      ev(3, 4, 9, Op::kContains, 0, false),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kFlagMismatch)) << render(fs);
}

TEST(LinCheckHistory, RemoveFlagMismatchRejected) {
  // remove reports "was absent" on a key certainly present.
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {
      ev(1, 2, 9, Op::kPut, v1, true),
      ev(3, 4, 9, Op::kRemove, 0, false),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kFlagMismatch)) << render(fs);
}

TEST(LinCheckHistory, NonLinearizableFlagsRejectedBySearch) {
  // Two overlapping inserts both claim "I inserted" with no remove in
  // between: no classifier fires (neither flag is *certainly* wrong in
  // isolation), but no witness order exists — the WGL search must say so.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 4, 9, Op::kPut, v1, true),
      ev(2, 5, 9, Op::kPut, v2, true),
  };
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kNonLinearizable)) << render(fs);
}

// --- 1. checker unit tests: scans ------------------------------------------

TEST(LinCheckHistory, ScanInOrderAccepted) {
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 2, Op::kPut, v2, true),
  };
  h.scans = {ScanEvent{5, 6, 0, 10, {{1, v1}, {2, v2}}}};
  EXPECT_CLEAN(check::check_history(h));
}

TEST(LinCheckHistory, ScanOutOfOrderRejected) {
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 2, Op::kPut, v2, true),
  };
  h.scans = {ScanEvent{5, 6, 0, 10, {{2, v2}, {1, v1}}}};
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kScanOrder)) << render(fs);
}

TEST(LinCheckHistory, ScanStaleValueRejected) {
  // The scan returns a value overwritten before the scan began.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 1, Op::kPut, v2, false),
  };
  h.scans = {ScanEvent{5, 6, 0, 10, {{1, v1}}}};
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kScanStale)) << render(fs);
}

TEST(LinCheckHistory, ScanDroppedKeyRejected) {
  // Key 1 is present for the scan's whole interval and inside the
  // returned range, but missing from the output.
  const std::uint64_t v1 = check::value_id("a"), v3 = check::value_id("c");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 3, Op::kPut, v3, true),
  };
  h.scans = {ScanEvent{5, 6, 0, 10, {{3, v3}}}};
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kScanDropped)) << render(fs);
}

TEST(LinCheckHistory, ScanFullOutputOwesNothingPastLimit) {
  // With limit 1 the scan is full after returning key 1; key 3 was not
  // owed even though it was present throughout.
  const std::uint64_t v1 = check::value_id("a"), v3 = check::value_id("c");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 3, Op::kPut, v3, true),
  };
  h.scans = {ScanEvent{5, 6, 0, 1, {{1, v1}}}};
  EXPECT_CLEAN(check::check_history(h));
}

TEST(LinCheckHistory, ScanPresenceOnlyPhantomRejected) {
  // Keys-only scans (value id 0) still get the presence rules: key 2 was
  // removed before the scan began and never re-inserted.
  const std::uint64_t v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 2, Op::kPut, v2, true),
      ev(3, 4, 2, Op::kRemove, 0, true),
  };
  h.scans = {ScanEvent{5, 6, 0, 10, {{2, 0}}}};
  const auto fs = check::check_history(h);
  EXPECT_TRUE(has_class(fs, ViolationClass::kScanPhantom)) << render(fs);
}

// --- 1. checker unit tests: durable mode -----------------------------------

TEST(LinCheckDurable, AcceptsPrefixWithInflightEitherWay) {
  // p2 is in flight at the cut (inv 3 < 5 < resp 6): the image may hold
  // the old value or the new value — both must be accepted.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 6, 1, Op::kPut, v2, false),
  };
  EXPECT_CLEAN(check::check_durable(h, 5, {{1, v1}}));
  EXPECT_CLEAN(check::check_durable(h, 5, {{1, v2}}));
}

TEST(LinCheckDurable, RejectsDroppedCompletedPut) {
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {ev(1, 2, 1, Op::kPut, v1, true)};
  const auto fs = check::check_durable(h, 10, {});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, RejectsSupersededValueInImage) {
  // Both puts completed before the cut: recovering the first one's value
  // means the second (completed!) write was lost.
  const std::uint64_t v1 = check::value_id("a"), v2 = check::value_id("b");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 1, Op::kPut, v2, false),
  };
  const auto fs = check::check_durable(h, 10, {{1, v1}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, RejectsValueNothingWrote) {
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {ev(1, 2, 1, Op::kPut, v1, true)};
  const auto fs =
      check::check_durable(h, 10, {{1, check::value_id("never-written")}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurablePhantom)) << render(fs);
}

TEST(LinCheckDurable, RejectsResurrectedRemovedKey) {
  // The remove completed before the cut; the image resurrecting the old
  // value means the completed remove did not survive.
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {
      ev(1, 2, 1, Op::kPut, v1, true),
      ev(3, 4, 1, Op::kRemove, 0, true),
  };
  const auto fs = check::check_durable(h, 10, {{1, v1}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, AcceptsOpsInvokedAfterCut) {
  // A put invoked entirely after the cut cannot be in the image and is
  // owed nothing.
  const std::uint64_t v1 = check::value_id("a");
  History h;
  h.events = {ev(6, 7, 1, Op::kPut, v1, true)};
  EXPECT_CLEAN(check::check_durable(h, 5, {}));
}

// --- 1. checker unit tests: flit_crashtest's ack-stream encoding -----------
//
// Literal ack-stream lines go through the harness's own parser and
// history builder (bench/crash_log.hpp), then check_durable judges an
// image, exactly as flit_crashtest judges a reopened file. Thread t owns
// the keys k with k mod threads == t.

std::vector<Finding> judge_stream(int threads,
                                  std::initializer_list<const char*> lines,
                                  const std::map<K, std::uint64_t>& image) {
  crashtest::AckLog log(threads);
  for (const char* line : lines) log.parse_line(line);
  const crashtest::CrashHistory ch = crashtest::build_history(log);
  EXPECT_TRUE(ch.error.empty()) << ch.error;
  return check::check_durable(ch.history, ch.cut, image);
}

std::uint64_t crash_vid(K key, std::uint64_t vseq) {
  return check::value_id(crashtest::make_value(key, vseq));
}

TEST(LinCheckDurable, CrashLogSameKeyPutsInOneMultiPutStayOrdered) {
  // Both puts share one D-line. Ticks follow program order, so the first
  // value is superseded; a response taken from the shared D or ack tick
  // would let this rolled-back image pass.
  const auto lines = {"I 0 1 P 0 1", "I 0 2 P 0 2", "D 0 2"};
  const auto fs = judge_stream(1, lines, {{0, crash_vid(0, 1)}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
  EXPECT_CLEAN(judge_stream(1, lines, {{0, crash_vid(0, 2)}}));
}

TEST(LinCheckDurable, CrashLogUnackedPutAfterAckedPut) {
  const auto lines = {"I 0 1 P 0 1", "A 0 1", "I 0 2 P 0 2"};
  EXPECT_CLEAN(judge_stream(1, lines, {{0, crash_vid(0, 1)}}));
  EXPECT_CLEAN(judge_stream(1, lines, {{0, crash_vid(0, 2)}}));
  const auto fs = judge_stream(1, lines, {});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, CrashLogNetShapeAcksWithoutDoneLines) {
  // One pipelined round of three, two replies read before the kill.
  const auto lines = {"I 0 1 P 0 1", "I 0 2 R 0", "I 0 3 P 0 2", "A 0 1",
                      "A 0 2"};
  EXPECT_CLEAN(judge_stream(1, lines, {}));
  EXPECT_CLEAN(judge_stream(1, lines, {{0, crash_vid(0, 2)}}));
  const auto fs = judge_stream(1, lines, {{0, crash_vid(0, 1)}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, CrashLogAckBeforeDoneShape) {
  // bug.unsafe_ack acks at issue time and applies later: the kill landed
  // between the ack and the apply.
  const auto lines = {"I 0 1 P 0 1", "A 0 1"};
  const auto fs = judge_stream(1, lines, {});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurableLost)) << render(fs);
}

TEST(LinCheckDurable, CrashLogRefusedPutWithoutLaterOpIsInFlight) {
  // The later D covers seq 1, but a refused op promised nothing.
  const auto lines = {"I 0 1 P 0 1", "F 0 1 1", "I 0 2 P 1 1", "D 0 2"};
  EXPECT_CLEAN(judge_stream(1, lines, {{1, crash_vid(1, 1)}}));
  EXPECT_CLEAN(judge_stream(
      1, lines, {{0, crash_vid(0, 1)}, {1, crash_vid(1, 1)}}));
}

TEST(LinCheckDurable, CrashLogRefusedValueSupersededByLaterPut) {
  // A refused multi_put, then a completed put of its first key.
  const auto lines = {"I 0 1 P 0 1", "I 0 2 P 1 1", "F 0 1 2",
                      "I 0 3 P 0 2", "D 0 3"};
  EXPECT_CLEAN(judge_stream(1, lines, {{0, crash_vid(0, 2)}}));
  EXPECT_FALSE(judge_stream(1, lines, {{0, crash_vid(0, 1)}}).empty());
}

TEST(LinCheckDurable, CrashLogTornValueIsPhantom) {
  const auto lines = {"I 0 1 P 0 1", "I 0 2 P 0 2", "A 0 1"};
  const std::string v1 = crashtest::make_value(0, 1);
  const std::string v2 = crashtest::make_value(0, 2);
  const std::string torn =
      v1.substr(0, v1.size() / 2) + v2.substr(v2.size() / 2);
  const auto fs = judge_stream(1, lines, {{0, check::value_id(torn)}});
  EXPECT_TRUE(has_class(fs, ViolationClass::kDurablePhantom)) << render(fs);
}

TEST(LinCheckDurable, CrashLogKeyOffItsStripeIsAnError) {
  crashtest::AckLog log(2);
  log.parse_line("I 0 1 P 1 1");  // key 1 belongs to thread 1
  EXPECT_FALSE(crashtest::build_history(log).error.empty());
}

// --- 2. lifetime analyzer unit tests ---------------------------------------

/// Drives the registry with fake (member array) pointers. Every test must
/// leave the violation counters acknowledged — TearDown asserts that and
/// drops the fake registry entries so later suites see a clean slate.
class LinCheckLifetimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EXPECT_EQ(check::Lifetime::instance().total_violations(), 0u)
        << "a lifetime test forgot to acknowledge its violations";
    check::Lifetime::instance().clear();
  }

  static void expect_and_ack(check::LifetimeViolation kind,
                             std::uint64_t count) {
    auto& lt = check::Lifetime::instance();
    EXPECT_EQ(lt.violations(kind), count) << check::to_string(kind);
    EXPECT_EQ(lt.total_violations(), count);
    lt.reset_violations();
  }

  char node_a_[64] = {};
  char node_b_[64] = {};
};

TEST_F(LinCheckLifetimeTest, FreeAfterGraceIsClean) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_free(node_a_, 7, /*quiescent=*/false);  // epoch 5+2 reached
  EXPECT_EQ(lt.total_violations(), 0u);
}

TEST_F(LinCheckLifetimeTest, EarlyReclaimFlagged) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::early_site");
  lt.on_free(node_a_, 6, /*quiescent=*/false);  // one epoch short of grace
  EXPECT_STREQ(lt.first_violation_site(), "test::early_site");
  expect_and_ack(check::LifetimeViolation::kEarlyReclaim, 1);
}

TEST_F(LinCheckLifetimeTest, QuiescentDrainExemptFromGrace) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_free(node_a_, 5, /*quiescent=*/true);  // drain_all()-style
  EXPECT_EQ(lt.total_violations(), 0u);
}

TEST_F(LinCheckLifetimeTest, UseAfterFreeFlagged) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_free(node_a_, 7, /*quiescent=*/false);
  lt.on_deref(node_a_, 6, "test::uaf_site");
  expect_and_ack(check::LifetimeViolation::kUseAfterFree, 1);
}

TEST_F(LinCheckLifetimeTest, UnprotectedDerefFlagged) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_deref(node_a_, recl::Ebr::kIdleEpoch, "test::no_guard");
  expect_and_ack(check::LifetimeViolation::kUnprotectedDeref, 1);
}

TEST_F(LinCheckLifetimeTest, StaleDerefFlagged) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_deref(node_a_, 7, "test::stale_guard");  // announced >= retire+2
  expect_and_ack(check::LifetimeViolation::kStaleDeref, 1);
}

TEST_F(LinCheckLifetimeTest, GuardedDerefWithinGraceIsClean) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_deref(node_a_, 5, "test::reader");  // retire-epoch reader
  lt.on_deref(node_a_, 6, "test::reader");  // last legitimate epoch
  EXPECT_EQ(lt.total_violations(), 0u);
}

TEST_F(LinCheckLifetimeTest, UntrackedNodesAreNeverFlagged) {
  auto& lt = check::Lifetime::instance();
  lt.on_deref(node_b_, recl::Ebr::kIdleEpoch, "test::live_node");
  lt.on_free(node_b_, 0, /*quiescent=*/false);
  EXPECT_EQ(lt.total_violations(), 0u);
}

TEST_F(LinCheckLifetimeTest, AllocationRecyclesTheAddress) {
  auto& lt = check::Lifetime::instance();
  lt.on_retire(node_a_, 5, "test::retire");
  lt.on_free(node_a_, 7, /*quiescent=*/false);
  lt.on_alloc(node_a_, sizeof node_a_);  // the pool reissued the block
  lt.on_deref(node_a_, recl::Ebr::kIdleEpoch, "test::fresh_owner");
  EXPECT_EQ(lt.total_violations(), 0u);
}

// --- 3a. recorder unit test ------------------------------------------------

TEST(LinCheckRecorder, RecordsArmedWindowOnly) {
  auto& rec = check::Recorder::instance();
  rec.reset();

  // Disarmed: begin() hands out the sentinel and end() drops the event.
  const std::uint64_t dead = rec.begin();
  EXPECT_EQ(dead, check::kNoTick);
  rec.end(dead, Op::kPut, 1, 42, true);

  rec.arm();
  const std::uint64_t inv = rec.begin();
  rec.end(inv, Op::kPut, 1, 42, true);
  const std::uint64_t inv2 = rec.begin();
  rec.end(inv2, Op::kGet, 1, 42, true);
  rec.end_scan(rec.begin(), 0, 10, {{1, 42}});
  rec.disarm();

  const History h = rec.snapshot();
  ASSERT_EQ(h.events.size(), 2u);
  ASSERT_EQ(h.scans.size(), 1u);
  EXPECT_LT(h.events[0].inv, h.events[0].resp);
  EXPECT_LT(h.events[0].resp, h.events[1].inv);
  EXPECT_CLEAN(check::check_history(h));

  rec.reset();
  EXPECT_TRUE(rec.snapshot().events.empty());
}

// --- 3b. recorded stress: the ds-layer structures --------------------------
//
// These drive the Recorder directly (not the FLIT_CHECKED hooks), so
// they verify real concurrent executions of NatarajanBst and
// LockedBPlusTree in every build. Values are unique per write so any
// stale or phantom read is distinguishable by value id.

/// kInsert semantics: insert() fails on a live key (no overwrite).
struct BstAdapter {
  static constexpr Op kWriteOp = Op::kInsert;
  static constexpr bool kHasScan = false;
  ds::NatarajanBst<K, std::int64_t> t;
  bool write(K k, std::int64_t vid) { return t.insert(k, vid); }
  bool erase(K k) { return t.remove(k); }
  std::optional<std::int64_t> read(K k) { return t.find(k); }
  bool contains(K k) const { return t.contains(k); }
  std::vector<K> range_all(K) { return {}; }
};

/// kPut semantics: insert() is insert-or-overwrite ("fresh" flag), and
/// range() gives keys-only scans checked under the presence rules.
struct BptAdapter {
  static constexpr Op kWriteOp = Op::kPut;
  static constexpr bool kHasScan = true;
  ds::LockedBPlusTree<K, std::int64_t> t;
  bool write(K k, std::int64_t vid) { return t.insert(k, vid); }
  bool erase(K k) { return t.remove(k); }
  std::optional<std::int64_t> read(K k) { return t.find(k); }
  bool contains(K k) const { return t.contains(k); }
  std::vector<K> range_all(K hi) { return t.range(0, hi); }
};

template <class Adapter>
void run_ds_stress(int nthreads, int ops_per_thread, K key_range) {
  auto& rec = check::Recorder::instance();
  rec.reset();
  rec.arm();

  Adapter a;
  std::atomic<std::int64_t> next_vid{1};
  std::vector<std::thread> workers;
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0xd5u * 1000003u + static_cast<unsigned>(t));
      for (int i = 0; i < ops_per_thread; ++i) {
        const K k =
            static_cast<K>(rng() % static_cast<std::uint64_t>(key_range));
        const std::uint64_t roll = rng() % 100;
        const std::uint64_t inv = rec.begin();
        if (roll < 35) {
          const std::int64_t vid = next_vid.fetch_add(1);
          const bool flag = a.write(k, vid);
          rec.end(inv, Adapter::kWriteOp, k, static_cast<std::uint64_t>(vid),
                  flag);
        } else if (roll < 55) {
          const bool flag = a.erase(k);
          rec.end(inv, Op::kRemove, k, 0, flag);
        } else if (roll < 85) {
          const auto got = a.read(k);
          rec.end(inv, Op::kGet, k,
                  got ? static_cast<std::uint64_t>(*got) : 0,
                  got.has_value());
        } else if (!Adapter::kHasScan || roll < 95) {
          rec.end(inv, Op::kContains, k, 0, a.contains(k));
        } else {
          // Keys-only range over the whole key space: limit > key_range
          // means "never full", so every certainly-present key is owed.
          std::vector<std::pair<K, std::uint64_t>> out;
          for (const K rk : a.range_all(key_range)) out.emplace_back(rk, 0);
          rec.end_scan(inv, 0, static_cast<std::size_t>(key_range) + 1,
                       std::move(out));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  rec.disarm();

  const History h = rec.snapshot();
  rec.reset();
  EXPECT_EQ(h.events.size() + h.scans.size(),
            static_cast<std::size_t>(nthreads) * ops_per_thread);
  EXPECT_CLEAN(check::check_history(h));
}

class LinCheckDsStress : public PmemTest {};

TEST_F(LinCheckDsStress, NatarajanBstHistoryLinearizable) {
  // Keys stay far below the BST's kInf1/kInf2 sentinel space.
  run_ds_stress<BstAdapter>(4, 1000, 40);
  if constexpr (core::kChecked) {
    // The lc_deref hooks in NatarajanBst::seek ran against live EBR
    // state for the whole run; any grace-period violation counted.
    EXPECT_EQ(check::Lifetime::instance().total_violations(), 0u)
        << check::Lifetime::instance().first_violation_site();
  }
}

TEST_F(LinCheckDsStress, LockedBPlusTreeHistoryLinearizable) {
  run_ds_stress<BptAdapter>(4, 800, 48);
}

// --- 3c. recorded stress: the kv store hooks -------------------------------
//
// These use the FLIT_CHECKED recording hooks inside kv::Store, so they
// only observe events in checked builds and skip elsewhere.

class LinCheckStoreStress : public PmemTest {};

TEST_F(LinCheckStoreStress, ScalarOpsHistoryLinearizable) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  constexpr K kRange = 64;
  constexpr int kThreads = 4, kOps = 1200;
  kv::Store<HashedWords, Automatic> kv(4, 64);

  auto& rec = check::Recorder::instance();
  rec.reset();
  rec.arm();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(17u + static_cast<unsigned>(t));
      for (int i = 0; i < kOps; ++i) {
        const K k = static_cast<K>(rng() % kRange);
        const std::uint64_t salt =
            static_cast<std::uint64_t>(t) * kOps + static_cast<unsigned>(i);
        switch (rng() % 4) {
          case 0:
            kv.put(k, value_for(k, salt));
            break;
          case 1:
            kv.remove(k);
            break;
          case 2:
            (void)kv.get(k);
            break;
          default:
            (void)kv.contains(k);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  rec.disarm();

  const History h = rec.snapshot();
  rec.reset();
  EXPECT_EQ(h.events.size(), static_cast<std::size_t>(kThreads) * kOps);
  EXPECT_CLEAN(check::check_history(h));
  EXPECT_EQ(check::Lifetime::instance().total_violations(), 0u)
      << check::Lifetime::instance().first_violation_site();
}

TEST_F(LinCheckStoreStress, BatchedOpsHistoryLinearizable) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  constexpr K kRange = 48;
  constexpr int kThreads = 4, kBatches = 250, kBatch = 4;
  kv::Store<HashedWords, Automatic> kv(4, 64);

  auto& rec = check::Recorder::instance();
  rec.reset();
  rec.arm();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(31u + static_cast<unsigned>(t));
      for (int b = 0; b < kBatches; ++b) {
        // Distinct keys per batch: a contiguous wrap-around window.
        const K base = static_cast<K>(rng() % kRange);
        std::vector<K> keys(kBatch);
        for (int j = 0; j < kBatch; ++j) keys[j] = (base + j) % kRange;
        switch (rng() % 3) {
          case 0: {
            std::vector<std::string> vals;
            vals.reserve(kBatch);
            std::vector<std::pair<K, std::string_view>> kvs;
            for (int j = 0; j < kBatch; ++j) {
              const std::uint64_t salt =
                  (static_cast<std::uint64_t>(t) * kBatches + b) * kBatch +
                  static_cast<unsigned>(j);
              vals.push_back(value_for(keys[j], salt));
              kvs.emplace_back(keys[j], vals.back());
            }
            kv.multi_put(kvs);
            break;
          }
          case 1:
            kv.multi_get(keys);
            break;
          default:
            kv.multi_remove(keys);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  rec.disarm();

  const History h = rec.snapshot();
  rec.reset();
  EXPECT_EQ(h.events.size(),
            static_cast<std::size_t>(kThreads) * kBatches * kBatch);
  EXPECT_CLEAN(check::check_history(h));
  EXPECT_EQ(check::Lifetime::instance().total_violations(), 0u)
      << check::Lifetime::instance().first_violation_site();
}

TEST_F(LinCheckStoreStress, OrderedOpsAndScansHistoryLinearizable) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  constexpr K kRange = 48;
  constexpr int kThreads = 4, kOps = 700;
  kv::OrderedStore<LapWords, Automatic> kv(2, 64);

  auto& rec = check::Recorder::instance();
  rec.reset();
  rec.arm();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(53u + static_cast<unsigned>(t));
      for (int i = 0; i < kOps; ++i) {
        const K k = static_cast<K>(rng() % kRange);
        const std::uint64_t salt =
            static_cast<std::uint64_t>(t) * kOps + static_cast<unsigned>(i);
        switch (rng() % 5) {
          case 0:
            kv.put(k, value_for(k, salt));
            break;
          case 1:
            kv.remove(k);
            break;
          case 2:
            (void)kv.get(k);
            break;
          case 3:
            (void)kv.contains(k);
            break;
          default:
            (void)kv.scan(k, 8);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  rec.disarm();

  const History h = rec.snapshot();
  rec.reset();
  EXPECT_GT(h.scans.size(), 0u) << "the workload must exercise scans";
  EXPECT_CLEAN(check::check_history(h));
  EXPECT_EQ(check::Lifetime::instance().total_violations(), 0u)
      << check::Lifetime::instance().first_violation_site();
}

// --- 4a. seeded-bug validation ---------------------------------------------
//
// Each `bug.*` site plants one precise bug while armed; the checker must
// catch it with the right class, key, and (for the lifetime bug) site,
// and the site must have fired — a bug that never manifests would pass
// as a checker that found nothing. The seeded workloads run
// single-threaded so the resulting history is deterministic and the
// diagnosis exact.

class LinCheckSeeded : public PmemTest {
 protected:
  void TearDown() override {
    core::Failpoints::instance().disarm_all();
    check::Recorder::instance().reset();
    PmemTest::TearDown();
  }

  /// Arm `site` to fire on every evaluation until disarm().
  static void arm(const char* site) {
    ASSERT_TRUE(core::Failpoints::instance().arm_from_spec(
        std::string(site) + "=every:1"));
  }

  /// Assert the armed site fired, then disarm it.
  static void expect_fired_and_disarm(const char* site) {
    EXPECT_GE(core::Failpoints::instance().hits(site), 1u)
        << site << " never fired";
    core::Failpoints::instance().disarm(site);
  }
};

TEST_F(LinCheckSeeded, StaleReadCaughtWithClassAndKey) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  kv::Store<HashedWords, Automatic> kv(2, 32);
  auto& rec = check::Recorder::instance();
  rec.reset();

  arm("bug.stale_read");
  rec.arm();
  EXPECT_TRUE(kv.put(1, "v1"));   // application deferred by the bug
  EXPECT_FALSE(kv.put(1, "v2"));  // applies v1, defers v2
  const auto got = kv.get(1);     // observes the superseded v1
  rec.disarm();
  expect_fired_and_disarm("bug.stale_read");
  check::unsafe_apply_pending();  // flush v2 while the store is alive

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "v1") << "the seeded bug must actually manifest";
  const auto fs = check::check_history(rec.snapshot());
  rec.reset();
  ASSERT_TRUE(has_class(fs, ViolationClass::kStaleRead)) << render(fs);
  for (const Finding& f : fs) {
    if (f.cls == ViolationClass::kStaleRead) {
      EXPECT_EQ(f.key, 1);
    }
  }
}

TEST_F(LinCheckSeeded, LostUpdateCaughtWithClassAndKey) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  kv::Store<HashedWords, Automatic> kv(2, 32);
  auto& rec = check::Recorder::instance();
  rec.reset();

  arm("bug.lost_update");
  rec.arm();
  EXPECT_TRUE(kv.put(2, "x"));  // reports success, never applies
  const auto got = kv.get(2);
  rec.disarm();
  expect_fired_and_disarm("bug.lost_update");

  EXPECT_EQ(got, std::nullopt) << "the seeded bug must actually manifest";
  const auto fs = check::check_history(rec.snapshot());
  rec.reset();
  ASSERT_TRUE(has_class(fs, ViolationClass::kLostUpdate)) << render(fs);
  for (const Finding& f : fs) {
    if (f.cls == ViolationClass::kLostUpdate) {
      EXPECT_EQ(f.key, 2);
    }
  }
}

TEST_F(LinCheckSeeded, EarlyRetireCaughtWithSiteAttribution) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  kv::Store<HashedWords, Automatic> kv(2, 32);
  auto& lt = check::Lifetime::instance();
  ASSERT_EQ(lt.total_violations(), 0u);

  kv.put(3, "a");
  arm("bug.early_retire");
  kv.put(3, "b");  // the superseded record is freed without grace
  expect_fired_and_disarm("bug.early_retire");

  EXPECT_EQ(kv.get(3), "b");
  EXPECT_GE(lt.violations(check::LifetimeViolation::kEarlyReclaim), 1u);
  EXPECT_NE(std::string_view(lt.first_violation_site())
                .find("kv::Record::retire[early_retire]"),
            std::string_view::npos)
      << "site was: " << lt.first_violation_site();
  lt.reset_violations();
}

// --- 4b. durable linearizability across crash images -----------------------
//
// Record a workload while capturing pfence-boundary persistent images
// (each tagged with the recorder tick at capture time), then reboot into
// every image and require check_durable() to accept the recovered state:
// completed-before-cut operations must survive; in-flight ones may land
// either way. Runs over the same nine configurations as the tier-1
// crash-recovery sweep.

template <class StoreT>
class LinCheckDurableSweep : public PmemTest {
 protected:
  // A small pool keeps the per-image clones cheap (a dozen full-region
  // snapshots are held at once).
  static constexpr std::size_t kSmallPool = std::size_t{4} << 20;

  void SetUp() override {
    PmemTest::SetUp();
    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(kSmallPool);
    recl::Ebr::instance().set_reclaim(false);  // no reuse across a crash
    pmem::Pool::instance().register_with_sim();
    pmem::set_backend(pmem::Backend::kSimCrash);
  }
  void TearDown() override {
    pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);
    recl::Ebr::instance().set_reclaim(true);
    check::Recorder::instance().reset();
    PmemTest::TearDown();
  }
};

using CrashConfigs = ::testing::Types<
    kv::Store<HashedWords, Automatic>, kv::Store<HashedWords, NVTraverse>,
    kv::Store<HashedWords, Manual>, kv::Store<AdjacentWords, Automatic>,
    kv::Store<PerLineWords, Automatic>, kv::Store<LapWords, Automatic>,
    kv::Store<LapWords, NVTraverse>, kv::OrderedStore<HashedWords, Manual>,
    kv::OrderedStore<LapWords, Automatic>>;

TYPED_TEST_SUITE(LinCheckDurableSweep, CrashConfigs);

TYPED_TEST(LinCheckDurableSweep, CrashImagesAreDurablyLinearizable) {
  if (!core::kChecked) GTEST_SKIP() << "needs -DFLIT_CHECKED=ON";
  constexpr K kRange = 24;

  auto& rec = check::Recorder::instance();
  rec.reset();

  TypeParam kv(2, 32);
  auto* sb = kv.superblock();

  // Sparse image capture: every 5th pfence, up to 12 images, each tagged
  // with the tick cut at capture time (ops with inv < cut were invoked
  // before this persistent state existed).
  struct Ctx {
    std::uint64_t fence_count = 0;
    bool armed = false;
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> images;
    static void hook(void* p) {
      auto* c = static_cast<Ctx*>(p);
      if (!c->armed) return;
      if (++c->fence_count % 5 == 0 && c->images.size() < 12) {
        c->images.emplace_back(check::Recorder::instance().now(),
                               pmem::SimMemory::instance().clone_shadow(0));
      }
    }
  };
  Ctx ctx;
  pmem::SimMemory::instance().set_pfence_hook(&Ctx::hook, &ctx);

  rec.arm();
  ctx.armed = true;
  std::mt19937_64 rng(0x5eedu);
  for (int i = 0; i < 140; ++i) {
    const K k = static_cast<K>(rng() % kRange);
    if (rng() % 4 == 0) {
      kv.remove(k);
    } else {
      kv.put(k, value_for(k, static_cast<std::uint64_t>(i)));
    }
  }
  ctx.armed = false;
  rec.disarm();
  pmem::SimMemory::instance().set_pfence_hook(nullptr, nullptr);

  const History h = rec.snapshot();
  rec.reset();
  ASSERT_FALSE(ctx.images.empty()) << "the workload must cross pfences";

  const std::vector<std::byte> final_state =
      pmem::SimMemory::instance().clone_volatile(0);
  for (const auto& [cut, image] : ctx.images) {
    pmem::SimMemory::instance().overwrite_volatile(image, 0);
    {
      TypeParam recovered = TypeParam::recover(sb);
      std::map<K, std::uint64_t> contents;
      for (K k = 0; k < kRange; ++k) {
        // The recorder is disarmed, so these probes leave no events.
        if (const auto got = recovered.get(k)) {
          contents[k] = check::value_id(*got);
        }
      }
      const auto fs = check::check_durable(h, cut, contents);
      EXPECT_CLEAN(fs);
    }
    pmem::SimMemory::instance().overwrite_volatile(final_state, 0);
    if (::testing::Test::HasFailure()) break;  // first bad image is enough
  }
}

}  // namespace
}  // namespace flit
