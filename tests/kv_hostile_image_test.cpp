// Hostile-image recovery tests: Store::open() against files that were
// truncated at the worst possible byte — mid-header, mid-superblock and
// mid-slab (both with and without the clean-shutdown flag, and on both
// layouts), or with words rewritten (the superblock root slot, a shard
// root pointer, a bucket count, a bucket head word, interior level-0
// links or record pointers in one or two shards, the superblock
// version). Every case must end in a clean rejection the caller can
// catch (kv::IncompatibleStore / std::runtime_error), with the same
// message on every attempt, never a SIGSEGV from walking zeroed or
// unmapped node memory and never a silently half-recovered store. The
// rejecting open must also leave the default Pool serving — it touches
// no pool but its own region's.
//
// Recovery learns where nodes are only from persisted links, so its one
// walk per shard checks every node against the region's bounds before
// reading any of its fields, on clean and dirty opens alike. Truncation
// is the canonical hostile shape because ftruncate-to-larger (which
// FileRegion::open performs to restore the recorded capacity) refills the
// lost tail with zeros: every pointer into the cut region becomes a fake
// node whose links are null — a healthy chain ends at its tail sentinel,
// zeroed memory ends at nullptr, which the walk rejects like any other
// link outside the region.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>

#include "core/modes.hpp"
#include "kv/store.hpp"
#include "pmem/file_region.hpp"
#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using K = std::int64_t;

using HashedKv = Store<HashedWords, Automatic>;
using OrderedKv = OrderedStore<HashedWords, Automatic>;

constexpr std::size_t kCapacity = 8 << 20;
constexpr std::size_t kHdr = pmem::FileRegion::kHeaderSize;

class KvHostileImageTest : public PmemTest {
 protected:
  static std::string temp_path() {
    return "/tmp/flit_kv_hostile_image_test_" + std::to_string(::getpid()) +
           ".pmem";
  }

  struct HeaderBits {
    std::uint64_t bump = 0;
    std::uint64_t superblock_off = 0;  // region-relative roots[0]
    std::uint64_t base = 0;            // mapping address of the region
  };

  static HeaderBits read_header(const std::string& path) {
    pmem::FileRegion::Header h{};
    const int fd = ::open(path.c_str(), O_RDONLY);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::pread(fd, &h, sizeof(h), 0),
              static_cast<ssize_t>(sizeof(h)));
    ::close(fd);
    return {h.bump_offset, h.roots[0], h.base};
  }

  /// Read or overwrite one word at a region-relative offset (= file
  /// offset: the region header sits at the start of the file).
  static std::uint64_t read_word(const std::string& path, std::uint64_t off) {
    std::uint64_t w = 0;
    const int fd = ::open(path.c_str(), O_RDONLY);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::pread(fd, &w, sizeof(w), static_cast<off_t>(off)),
              static_cast<ssize_t>(sizeof(w)));
    ::close(fd);
    return w;
  }
  template <class T>
  static void write_at(const std::string& path, std::uint64_t off, T v) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, &v, sizeof(v), static_cast<off_t>(off)),
              static_cast<ssize_t>(sizeof(v)));
    ::close(fd);
  }

  /// The whole file, to prove a rejecting open wrote nothing.
  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Expect the file to still hold `image` byte for byte. A failure names
  /// both sizes and the first differing offset on one line, instead of
  /// printing two 8 MiB images.
  static void expect_unchanged(const std::string& path,
                               const std::string& image) {
    const std::string now = file_bytes(path);
    if (now == image) return;
    const std::size_t common = std::min(now.size(), image.size());
    const auto first =
        std::mismatch(now.begin(), now.begin() + common, image.begin()).first;
    ADD_FAILURE() << "a rejecting open wrote the file: " << image.size()
                  << " bytes before, " << now.size()
                  << " after, first difference at offset "
                  << first - now.begin();
  }

  static void truncate_file(const std::string& path, std::uint64_t bytes) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(bytes)), 0);
    ::close(fd);
  }

  /// Zero the clean-shutdown root (Header::roots[1]) so the next open
  /// takes the dirty-image sweep path.
  static void clear_clean_flag(const std::string& path) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::uint64_t zero = 0;
    const auto at = static_cast<off_t>(
        offsetof(pmem::FileRegion::Header, roots) + sizeof(std::uint64_t));
    ASSERT_EQ(::pwrite(fd, &zero, sizeof(zero), at),
              static_cast<ssize_t>(sizeof(zero)));
    ::close(fd);
  }

  /// File offset of a shard's root block.
  template <class StoreT>
  static std::uint64_t shard_roots(const std::string& path,
                                   const HeaderBits& h, std::uint32_t shard) {
    return read_word(path,
                     h.superblock_off +
                         offsetof(typename StoreT::Superblock, shard_roots) +
                         shard * sizeof(std::uint64_t)) -
           h.base;
  }

  /// File offset of an interior link of a shard: the `next` word of the
  /// first node in the first non-empty bucket (hashed), or the first
  /// level-0 node's next[0] (ordered).
  template <class StoreT>
  static std::uint64_t first_interior_link(const std::string& path,
                                           std::uint32_t shard = 0) {
    using Roots = typename StoreT::Shard_::Roots;
    using Node = typename StoreT::Shard_::Node;
    const HeaderBits h = read_header(path);
    const std::uint64_t roots = shard_roots<StoreT>(path, h, shard);
    std::uint64_t node = 0;
    if constexpr (StoreT::kOrdered) {
      const std::uint64_t head =
          read_word(path, roots + offsetof(Roots, head));
      node = read_word(path, head - h.base + offsetof(Node, next));
    } else {
      const std::uint64_t nb =
          read_word(path, roots + offsetof(Roots, nbuckets));
      const std::uint64_t tail =
          read_word(path, roots + offsetof(Roots, tail));
      // heads[b] starts where a b-bucket root block would end.
      for (std::uint64_t b = 0; b < nb && node == 0; ++b) {
        const std::uint64_t w = read_word(path, roots + Roots::bytes(b));
        if (w != tail) node = w;
      }
    }
    EXPECT_NE(node, 0u);
    return node - h.base + offsetof(Node, next);
  }

  /// Where expect_interior_link_rejected points a link.
  enum class LinkTo { kPastTheRegion, kOwnNode };

  /// Rewrite the first interior link of each of `shards` past the region
  /// or to the link's own node (after a dirty shutdown too, when `dirty`)
  /// in a store of `nshards` shards whose keys fill every shard: open()
  /// must reject the image with the same message on every attempt and
  /// leave the file byte-identical.
  template <class StoreT>
  void expect_interior_link_rejected(
      const std::string& path, bool dirty, std::uint32_t nshards,
      std::initializer_list<std::uint32_t> shards,
      LinkTo to = LinkTo::kPastTheRegion) {
    using Node = typename StoreT::Shard_::Node;
    SCOPED_TRACE(std::string(StoreT::kOrdered ? "ordered" : "hashed") +
                 (dirty ? ", dirty, " : ", clean, ") +
                 std::to_string(shards.size()) + " shard(s) linked " +
                 (to == LinkTo::kOwnNode ? "to their own node"
                                         : "past the region"));
    pmem::FileRegion::destroy(path);
    populate<StoreT>(path, nshards, KeyRange{0, 600});
    const HeaderBits h = read_header(path);
    for (const std::uint32_t shard : shards) {
      const std::uint64_t link = first_interior_link<StoreT>(path, shard);
      write_at<std::uint64_t>(path, link,
                              to == LinkTo::kOwnNode
                                  ? h.base + link - offsetof(Node, next)
                                  : h.base + kCapacity + 4096);
    }
    if (dirty) clear_clean_flag(path);
    const std::string image = file_bytes(path);
    expect_stable_rejection<StoreT, IncompatibleStore>(path);
    expect_unchanged(path, image);
  }

  /// A word recovery reads before any node.
  enum class RootWord { kSuperblock, kShardRoot1, kBucketCount };

  /// Rewrite `w` in a populated 2-shard store (after a dirty shutdown
  /// too, when `dirty`): the header's root slot 0 or `shard_roots[1]`
  /// past the region, or shard 0's hashed `nbuckets` to 2^40. open()
  /// must reject the image with the same message on every attempt and
  /// leave the file byte-identical.
  template <class StoreT>
  void expect_root_word_rejected(const std::string& path, bool dirty,
                                 RootWord w) {
    static constexpr const char* kNames[] = {"root slot 0", "shard_roots[1]",
                                             "shard 0 nbuckets"};
    SCOPED_TRACE(std::string(StoreT::kOrdered ? "ordered" : "hashed") +
                 (dirty ? ", dirty, " : ", clean, ") +
                 kNames[static_cast<int>(w)]);
    pmem::FileRegion::destroy(path);
    populate<StoreT>(path);
    const HeaderBits h = read_header(path);
    const std::uint64_t past = kCapacity + 4096;  // region-relative
    if (w == RootWord::kSuperblock) {
      write_at<std::uint64_t>(path, offsetof(pmem::FileRegion::Header, roots),
                              past);
    } else if (w == RootWord::kShardRoot1) {
      write_at<std::uint64_t>(
          path,
          h.superblock_off + offsetof(typename StoreT::Superblock,
                                      shard_roots) +
              sizeof(std::uint64_t),
          h.base + past);
    } else if constexpr (!StoreT::kOrdered) {
      using Roots = typename StoreT::Shard_::Roots;
      write_at<std::uint64_t>(
          path, shard_roots<StoreT>(path, h, 0) + offsetof(Roots, nbuckets),
          std::uint64_t{1} << 40);
    } else {
      FAIL() << "the ordered layout has no bucket count";
    }
    if (dirty) clear_clean_flag(path);
    const std::string image = file_bytes(path);
    expect_stable_rejection<StoreT, IncompatibleStore>(path);
    expect_unchanged(path, image);
  }

  /// 600 keys, 0..599, in a store of `nshards` shards.
  template <class StoreT>
  void populate(const std::string& path, std::uint32_t nshards = 2,
                KeyRange range = {0, 4096}) {
    StoreT kv = StoreT::open(path, kCapacity, nshards, 128, range);
    for (K k = 0; k < 600; ++k) {
      kv.put(k, "hostile-image payload " + std::to_string(k) +
                    std::string(40 + static_cast<std::size_t>(k % 97), 'p'));
    }
    kv.close();
  }

  /// The rejection contract: open() throws something catchable with the
  /// same message on every attempt (no crash, no state consumed by an
  /// earlier attempt, no dependence on which recovery thread reached a
  /// bad node first) and the default Pool still serves allocations
  /// afterwards.
  /// Returns the message.
  template <class StoreT, class Exception>
  std::string expect_stable_rejection(const std::string& path) {
    std::string first;
    for (int attempt = 0; attempt < 3; ++attempt) {
      try {
        (void)StoreT::open(path, kCapacity, 2, 128, KeyRange{0, 4096});
        ADD_FAILURE() << "attempt " << attempt << " opened the image";
      } catch (const Exception& e) {
        if (attempt == 0) first = e.what();
        EXPECT_EQ(e.what(), first) << "attempt " << attempt;
      }
    }
    void* p = pmem::Pool::instance().alloc(64);
    EXPECT_NE(p, nullptr);
    EXPECT_TRUE(pmem::Pool::instance().contains(p));
    return first;
  }

  /// After a dirty shutdown of an 8-shard store, rewrite shard `rec`'s
  /// first record pointer and shard `link`'s first interior link past the
  /// region: the two walks fail with different errors, and open() must
  /// report the lower shard's whichever recovery thread fails first.
  template <class StoreT>
  void expect_lower_shard_error(const std::string& path, std::uint32_t rec,
                                std::uint32_t link) {
    using Node = typename StoreT::Shard_::Node;
    SCOPED_TRACE(std::string(StoreT::kOrdered ? "ordered" : "hashed") +
                 ", record in shard " + std::to_string(rec) +
                 ", link in shard " + std::to_string(link));
    pmem::FileRegion::destroy(path);
    populate<StoreT>(path, 8, KeyRange{0, 600});
    const HeaderBits h = read_header(path);
    const std::uint64_t past = h.base + kCapacity + 4096;
    write_at<std::uint64_t>(path,
                            first_interior_link<StoreT>(path, rec) -
                                offsetof(Node, next) + offsetof(Node, value),
                            past);
    write_at<std::uint64_t>(path, first_interior_link<StoreT>(path, link),
                            past);
    clear_clean_flag(path);
    const std::string what =
        expect_stable_rejection<StoreT, IncompatibleStore>(path);
    EXPECT_EQ(what.find("record pointer") != std::string::npos, rec < link)
        << what;
  }
};

TEST_F(KvHostileImageTest, TruncatedMidHeaderIsRejectedNotReinitialized) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // Cut inside the region header itself: the magic survives, the
  // metadata after it does not. Reinitializing would silently destroy
  // the committed data, so FileRegion::open must refuse.
  truncate_file(path, 24);
  expect_stable_rejection<HashedKv, std::runtime_error>(path);

  // The refusal must not have "repaired" the file behind our back.
  struct stat st = {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 24) << "a rejecting open must not resize the file";
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, TruncatedMidSuperblockIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // Cut 12 bytes into the store superblock: its magic survives, the
  // version/tags/shard-roots beyond the cut read back as zeros.
  const HeaderBits h = read_header(path);
  ASSERT_GT(h.superblock_off, 0u);
  truncate_file(path, kHdr + h.superblock_off + 12);
  expect_stable_rejection<HashedKv, IncompatibleStore>(path);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, TruncatedMidSlabCleanImageIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // The superblock sits at creation-time bump; the 600 records were
  // appended above it. Cutting between the two leaves every header
  // intact but breaks bucket chains mid-walk: nodes past the cut read
  // back as zeros, so a traversal reaches nullptr before the tail
  // sentinel. Even with the clean-shutdown flag set, recovery must
  // reject — not crash, and not adopt a store missing half its data.
  const HeaderBits h = read_header(path);
  const std::uint64_t cut = h.superblock_off + 8192;
  ASSERT_LT(cut + 4096, h.bump) << "cut must land inside the data slabs";
  truncate_file(path, kHdr + cut);
  expect_stable_rejection<HashedKv, IncompatibleStore>(path);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, TruncatedMidSlabDirtyImageIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // Same cut, but with the clean flag cleared the walk also bounds every
  // node and live record for the allocator mark: a record pointer or
  // length read from zeroed memory must reject too, before it is
  // dereferenced.
  const HeaderBits h = read_header(path);
  const std::uint64_t cut = h.superblock_off + 8192;
  ASSERT_LT(cut + 4096, h.bump);
  truncate_file(path, kHdr + cut);
  clear_clean_flag(path);
  expect_stable_rejection<HashedKv, IncompatibleStore>(path);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, OrderedLayoutTruncatedMidSlabIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<OrderedKv>(path);

  // The skiplist variant is the nastier one: recovery also rebuilds the
  // volatile index levels from the bottom chain, and must reject the
  // image instead of returning a store over a half-rebuilt index — that
  // would be a silently half-recovered store.
  const HeaderBits h = read_header(path);
  const std::uint64_t cut = h.superblock_off + 8192;
  ASSERT_LT(cut + 4096, h.bump);
  truncate_file(path, kHdr + cut);
  expect_stable_rejection<OrderedKv, IncompatibleStore>(path);

  // Dirty variant of the same image shape.
  pmem::FileRegion::destroy(path);
  populate<OrderedKv>(path);
  const HeaderBits h2 = read_header(path);
  truncate_file(path, kHdr + h2.superblock_off + 8192);
  clear_clean_flag(path);
  expect_stable_rejection<OrderedKv, IncompatibleStore>(path);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, HeadWordPastTheRegionIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // Point one bucket head word of shard 0 past the region. Recovery's
  // walk visits every chain from its head word, so it must check the node
  // a head word names before dereferencing it.
  using Roots = HashedKv::Shard_::Roots;
  const HeaderBits h = read_header(path);
  const std::uint64_t roots =
      read_word(path, h.superblock_off +
                          offsetof(HashedKv::Superblock, shard_roots)) -
      h.base;
  // heads[7] starts where a 7-bucket root block would end.
  write_at<std::uint64_t>(path, roots + Roots::bytes(7),
                          h.base + kCapacity + 4096);
  const std::string image = file_bytes(path);
  expect_stable_rejection<HashedKv, IncompatibleStore>(path);
  expect_unchanged(path, image);
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, InteriorLinkPastTheRegionIsRejected) {
  // An interior link rewritten past the region, in one shard or in two
  // that recover on different threads. Every open reads every node (the
  // size re-count, the ordered index rebuild), so the walk must check the
  // node a link names before reading any of its fields, and a clean open
  // must reject the image as a dirty one does.
  const std::string path = temp_path();
  for (const bool dirty : {false, true}) {
    expect_interior_link_rejected<HashedKv>(path, dirty, 2, {0});
    expect_interior_link_rejected<OrderedKv>(path, dirty, 2, {0});
    expect_interior_link_rejected<HashedKv>(path, dirty, 8, {1, 6});
    expect_interior_link_rejected<OrderedKv>(path, dirty, 8, {1, 6});
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, InteriorLinkCycleIsRejected) {
  // An interior link rewritten to its own node stays inside the region,
  // so no bounds check fires and the walk would loop forever. A legal
  // bucket chain holds no more nodes than the region has room for, and a
  // legal skiplist level 0 ascends strictly in key: the hashed walk stops
  // at that length, the ordered one at the first node it revisits,
  // before stitching that tower's index links again.
  const std::string path = temp_path();
  for (const bool dirty : {false, true}) {
    expect_interior_link_rejected<HashedKv>(path, dirty, 2, {0},
                                            LinkTo::kOwnNode);
    expect_interior_link_rejected<OrderedKv>(path, dirty, 2, {0},
                                             LinkTo::kOwnNode);
    expect_interior_link_rejected<HashedKv>(path, dirty, 8, {1, 6},
                                            LinkTo::kOwnNode);
    expect_interior_link_rejected<OrderedKv>(path, dirty, 8, {1, 6},
                                             LinkTo::kOwnNode);
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, RootWordsPastTheRegionAreRejected) {
  // Recovery reaches the superblock through the header's root slot 0,
  // each shard's root block through the superblock, and a hashed shard's
  // head words through its bucket count. Each word is checked by the
  // code that reads it, before the read, on clean and dirty opens alike.
  const std::string path = temp_path();
  for (const bool dirty : {false, true}) {
    for (const RootWord w : {RootWord::kSuperblock, RootWord::kShardRoot1}) {
      expect_root_word_rejected<HashedKv>(path, dirty, w);
      expect_root_word_rejected<OrderedKv>(path, dirty, w);
    }
    expect_root_word_rejected<HashedKv>(path, dirty, RootWord::kBucketCount);
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, TwoBadShardsAreRejectedWithTheLowerShardsError) {
  // Shards recover on concurrent threads, so which bad shard's walk
  // fails first is a race; the rejection must not be.
  const std::string path = temp_path();
  for (const auto& [rec, link] : {std::pair{1u, 6u}, std::pair{6u, 1u}}) {
    expect_lower_shard_error<HashedKv>(path, rec, link);
    expect_lower_shard_error<OrderedKv>(path, rec, link);
  }
  pmem::FileRegion::destroy(path);
}

TEST_F(KvHostileImageTest, SentinelLayoutVersionIsRejected) {
  const std::string path = temp_path();
  pmem::FileRegion::destroy(path);
  populate<HashedKv>(path);

  // Version 2 is the per-bucket sentinel layout: its root array holds
  // {head, tail} node pairs where this build reads head words, so it
  // must be refused on the version alone, never misread.
  const HeaderBits h = read_header(path);
  write_at<std::uint32_t>(
      path, h.superblock_off + offsetof(HashedKv::Superblock, version), 2);
  const std::string image = file_bytes(path);
  expect_stable_rejection<HashedKv, IncompatibleStore>(path);
  expect_unchanged(path, image);
  pmem::FileRegion::destroy(path);
}

}  // namespace
}  // namespace flit::kv
