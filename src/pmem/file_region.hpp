// file_region.hpp — file-backed persistent region (fsdax-style).
//
// The anonymous pool (pool.hpp) models NVRAM for benchmarking and crash
// simulation inside one process. This module adds the real-persistence
// variant: a file-backed MAP_SHARED region whose content survives process
// exit, with a small persistent header carrying
//
//   * a magic/version stamp,
//   * the mapping base address (pointers stored in the region are
//     absolute, so reopening maps at the same address — the same
//     contract PMDK's libpmemobj solves with offset pointers; we use a
//     fixed-address remap and fail loudly if the range is taken; within
//     one process close() leaves a PROT_NONE reservation behind so a
//     close/reopen cycle cannot lose the address to an unrelated mmap),
//   * the allocator bump offset (so reopening resumes allocation), and
//   * up to kMaxRoots named root offsets (entry points for recovery).
//
// On DRAM+disk machines durability is provided by msync(MS_SYNC) at
// sync(); on real NVRAM (DAX-mounted) the pwb/pfence hardware backend
// applies as-is. The examples use this for restart-and-recover demos.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace flit::pmem {

/// Process-wide durability-health latch. Set (never cleared, except by
/// the test-only reset) when a best-effort durability path fails where no
/// exception can propagate — today, a failed msync in
/// FileRegion::close() (destructor/unwind paths): the close still
/// completes, but the "everything written is on stable storage" promise
/// is gone, and silently dropping that (the pre-fix behavior) is exactly
/// the fsyncgate bug. Store::health() folds this latch into its own
/// degraded-read-only state so the failure reaches STATS/operators.
bool durability_degraded() noexcept;

/// Record a swallowed durability failure: logs to stderr and latches
/// durability_degraded(). Safe from destructors and unwind paths.
void note_durability_failure(const char* what) noexcept;

/// Clear the latch — tests only (the process-wide latch would otherwise
/// leak a simulated failure into every later test in the binary).
void reset_durability_health() noexcept;

class FileRegion {
 public:
  static constexpr std::uint64_t kMagic = 0xF117'F117'0000'0001ull;
  static constexpr std::size_t kHeaderSize = 4096;
  static constexpr std::size_t kMaxRoots = 8;

  struct Header {
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t base;         ///< mapping address of previous sessions
    std::uint64_t capacity;     ///< total file size
    std::uint64_t bump_offset;  ///< allocator high-water mark
    std::uint64_t roots[kMaxRoots];  ///< region-relative, 0 = unset
  };

  FileRegion() = default;
  ~FileRegion() { close(); }
  FileRegion(const FileRegion&) = delete;
  FileRegion& operator=(const FileRegion&) = delete;
  FileRegion(FileRegion&& o) noexcept { *this = std::move(o); }
  FileRegion& operator=(FileRegion&& o) noexcept;

  /// Open (or create) the region file. Throws std::runtime_error on any
  /// failure, including an existing file whose recorded base address
  /// cannot be re-mapped.
  static FileRegion open(const std::string& path, std::size_t capacity);

  /// Remove a region file (start-over helper for examples/tests).
  static void destroy(const std::string& path);

  /// True if open() found an existing, initialized region (recovery run).
  bool recovered() const noexcept { return recovered_; }

  void* base() const noexcept { return base_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// First usable byte after the header.
  void* usable_base() const noexcept {
    return static_cast<std::byte*>(base_) + kHeaderSize;
  }
  std::size_t usable_capacity() const noexcept {
    return capacity_ - kHeaderSize;
  }

  /// Named recovery roots.
  void set_root(std::size_t slot, const void* p);
  void* root(std::size_t slot) const;

  /// The persisted mark of the region's allocator (a Pool over
  /// usable_base(); kv::Store writes it at checkpoint and close).
  void set_bump(std::size_t offset);
  std::size_t bump() const;

  /// Flush the whole region (and header) to stable storage.
  void sync();

  /// Unmap (after a final sync). Safe to call twice.
  void close();

  bool contains(const void* p) const noexcept {
    auto a = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return base_ != nullptr && a >= b && a < b + capacity_;
  }

 private:
  Header* header() const noexcept { return static_cast<Header*>(base_); }

  void* base_ = nullptr;
  std::size_t capacity_ = 0;
  int fd_ = -1;
  bool recovered_ = false;
};

}  // namespace flit::pmem
