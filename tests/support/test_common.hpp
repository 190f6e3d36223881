// test_common.hpp — shared fixtures/helpers for the FliT test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "pmem/backend.hpp"
#include "pmem/pool.hpp"
#include "pmem/sim_memory.hpp"
#include "recl/ebr.hpp"

namespace flit::test {

/// Fixture that gives each test a fresh small persistent pool and a clean
/// simulator, with the backend left in kNoOp (tests opt into other
/// backends via BackendScope).
class PmemTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPoolBytes = std::size_t{32} << 20;  // 32 MiB

  void SetUp() override {
    pmem::SimMemory::instance().clear_regions();
    pmem::Pool::instance().reinit(kPoolBytes);
    pmem::set_backend(pmem::Backend::kNoOp);
    // Fence any pwb an earlier test left unfenced: pfence() skips when
    // nothing is pending, so without this a test's pfence counts would
    // depend on the test run before it.
    pmem::pfence();
    pmem::set_sim_latency(0, 0);
    recl::Ebr::instance().set_reclaim(true);
  }

  void TearDown() override {
    recl::Ebr::instance().drain_all();
    pmem::SimMemory::instance().clear_regions();
    pmem::set_backend(pmem::Backend::kNoOp);
  }
};

/// The persisted (crash-surviving) value of the word at `p`, which must lie
/// in a registered SimMemory region.
inline std::uint64_t persisted_word(const std::uint64_t* p) {
  const std::vector<std::byte> line =
      pmem::SimMemory::instance().persisted_line(p);
  std::uint64_t w = 0;
  if (line.size() != pmem::kCacheLineSize) {
    ADD_FAILURE() << "word is not in a SimMemory region";
    return w;
  }
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::memcpy(&w, line.data() + (a - pmem::line_base(a)), sizeof(w));
  return w;
}

/// Deterministic uniform int helper.
inline std::int64_t rand_key(std::mt19937_64& rng, std::int64_t range) {
  return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(range));
}

}  // namespace flit::test
