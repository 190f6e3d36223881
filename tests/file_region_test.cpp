// Unit tests for the file-backed persistent region (fsdax-style).
#include "pmem/file_region.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "ds/harris_list.hpp"
#include "pmem/pool.hpp"
#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

std::string temp_path(const char* tag) {
  return std::string("/tmp/flit_region_test_") + tag + "_" +
         std::to_string(::getpid()) + ".pmem";
}

class FileRegionTest : public flit::test::PmemTest {};

TEST_F(FileRegionTest, CreateInitializesHeaderAndRoundTrips) {
  const std::string path = temp_path("create");
  FileRegion::destroy(path);
  {
    FileRegion r = FileRegion::open(path, 1 << 20);
    EXPECT_FALSE(r.recovered());
    EXPECT_GE(r.capacity(), std::size_t{1} << 20);
    EXPECT_EQ(r.bump(), 0u);
    EXPECT_EQ(r.root(0), nullptr);

    auto* p = static_cast<std::uint64_t*>(r.usable_base());
    *p = 0xDEADBEEF;
    r.set_root(0, p);
    r.set_bump(64);
    r.sync();
  }
  {
    FileRegion r = FileRegion::open(path, 1 << 20);
    EXPECT_TRUE(r.recovered());
    EXPECT_EQ(r.bump(), 64u);
    auto* p = static_cast<std::uint64_t*>(r.root(0));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 0xDEADBEEFu);
    EXPECT_TRUE(r.contains(p));
  }
  FileRegion::destroy(path);
}

TEST_F(FileRegionTest, ReopenMapsAtSameAddress) {
  const std::string path = temp_path("addr");
  FileRegion::destroy(path);
  void* first_base = nullptr;
  {
    FileRegion r = FileRegion::open(path, 1 << 20);
    first_base = r.base();
  }
  {
    FileRegion r = FileRegion::open(path, 1 << 20);
    EXPECT_EQ(r.base(), first_base)
        << "absolute pointers require a stable mapping address";
  }
  FileRegion::destroy(path);
}

TEST_F(FileRegionTest, RootSlotsAreIndependent) {
  const std::string path = temp_path("roots");
  FileRegion::destroy(path);
  FileRegion r = FileRegion::open(path, 1 << 20);
  auto* b = static_cast<std::byte*>(r.usable_base());
  r.set_root(0, b);
  r.set_root(3, b + 128);
  EXPECT_EQ(r.root(0), b);
  EXPECT_EQ(r.root(1), nullptr);
  EXPECT_EQ(r.root(3), b + 128);
  r.set_root(0, nullptr);
  EXPECT_EQ(r.root(0), nullptr);
  EXPECT_THROW(r.set_root(FileRegion::kMaxRoots, b), std::runtime_error);
  r.close();
  FileRegion::destroy(path);
}

TEST_F(FileRegionTest, TooSmallCapacityRejected) {
  const std::string path = temp_path("small");
  FileRegion::destroy(path);
  EXPECT_THROW(FileRegion::open(path, 64), std::runtime_error);
  FileRegion::destroy(path);
}

TEST_F(FileRegionTest, PoolOverTheRegionAllocatesInsideIt) {
  const std::string path = temp_path("pool");
  FileRegion::destroy(path);
  FileRegion r = FileRegion::open(path, 8 << 20);
  {
    Pool pool(r.usable_base(), r.usable_capacity());
    void* a = pool.alloc(64);
    void* b = pool.alloc(1024);
    EXPECT_TRUE(r.contains(a));
    EXPECT_TRUE(r.contains(b));
    EXPECT_FALSE(Pool::instance().contains(a));
    r.set_bump(pool.bump_used());
  }
  // The pool is gone; the region it served stays mapped and usable.
  std::memset(r.usable_base(), 0x22, 4096);
  r.sync();
  EXPECT_GE(r.bump(), Pool::kChunkSize);
  r.close();
  FileRegion::destroy(path);
}

TEST_F(FileRegionTest, DataStructureSurvivesRemapCycle) {
  using List = ds::HarrisList<std::int64_t, std::int64_t, HashedWords,
                              Automatic>;
  const std::string path = temp_path("list");
  FileRegion::destroy(path);

  // Session 1: build a list inside the file region and record its roots.
  // The list handle disowns its nodes before it dies: its destructor would
  // return them to the allocator, scribbling free-list links over live
  // persisted bytes. A real application closes the region while the
  // structure is still live — exactly what release() models.
  {
    FileRegion r = FileRegion::open(path, 16 << 20);
    Pool pool(r.usable_base(), r.usable_capacity());
    pool.resume(r.bump());
    List l(pool);
    for (std::int64_t k = 0; k < 500; ++k) l.insert(k, 2 * k);
    for (std::int64_t k = 0; k < 500; k += 5) l.remove(k);
    r.set_root(0, l.head());
    r.set_root(1, l.tail());
    l.release();
    // Reclaim retired (unreachable) nodes while the region is still
    // mapped — their bytes are dead, so the scribble is harmless.
    recl::Ebr::instance().drain_all();
    r.set_bump(pool.bump_used());
    r.sync();
  }

  // Session 2: re-open, build a pool over the region, recover, verify,
  // and mutate further.
  {
    FileRegion r = FileRegion::open(path, 16 << 20);
    ASSERT_TRUE(r.recovered());
    Pool pool(r.usable_base(), r.usable_capacity());
    pool.resume(r.bump());
    List view = List::recover(static_cast<List::Node*>(r.root(0)),
                              static_cast<List::Node*>(r.root(1)), pool);
    for (std::int64_t k = 0; k < 500; ++k) {
      const bool expected = (k % 5) != 0;
      ASSERT_EQ(view.contains(k), expected) << k;
      if (expected) {
        ASSERT_EQ(view.find(k).value(), 2 * k);
      }
    }
    // The recovered structure stays fully operational, and allocates
    // inside the region.
    EXPECT_TRUE(view.insert(1'000, 1));
    EXPECT_TRUE(view.contains(1'000));
    EXPECT_EQ(Pool::instance().bump_used(), 0u);
    recl::Ebr::instance().drain_all();
  }
  FileRegion::destroy(path);
}

}  // namespace
}  // namespace flit::pmem
