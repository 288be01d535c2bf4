// wlp::mem — the slab arena behind the speculation layer's buffers.
//
// Section 4's backups and time-stamp logs are the only memory the runtime
// pools, and they share one discipline: allocate once, keep the block while
// its owner lives, make a logical clear a rewind (iter_log.hpp) or an epoch
// bump (sparse_backup.hpp), and hand the block back when the owner dies so
// the next owner of the same shape reuses it.  This header is that
// allocator, with one accounting surface (mem/budget.hpp).
//
// Layout and contract:
//
//   * An Arena hands out cache-line-aligned blocks.  Small requests
//     (< 64 KiB) are rounded to a power-of-two class and carved from
//     bump-pointer slabs; large requests get a dedicated page-rounded OS
//     block.  Freed blocks push onto intrusive per-class free lists, so a
//     free/alloc pair of the same class is two pointer swaps under a mutex
//     — O(1) reuse with no OS traffic.  The mutex is rarely contended: the
//     runtime's steady state performs no (de)allocations at all (the
//     regression tests assert exactly that through the budget counters).
//   * process_arena() is the one arena the runtime draws from, and
//     ArenaAllocator the container adapter onto it.  Blocks are taken
//     lazily where they are first needed (a log segment on a worker's
//     first mark), so an idle worker holds none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "wlp/support/cacheline.hpp"

namespace wlp::mem {

class Arena {
 public:
  static constexpr std::size_t kPage = 4096;
  static constexpr std::size_t kSlabBytes = 1u << 20;  ///< small-class slab
  static constexpr std::size_t kMinClass = kCacheLine;
  static constexpr std::size_t kLargeMin = 64u * 1024;  ///< dedicated block

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A cache-line-aligned block of at least `bytes`.  Thread-safe.
  void* allocate(std::size_t bytes, std::size_t align = kCacheLine);

  /// Return a block for O(1) reuse.  `bytes` and `align` must match the
  /// allocate() call (they recompute the same size class).
  void deallocate(void* p, std::size_t bytes,
                  std::size_t align = kCacheLine) noexcept;

  /// Typed helpers (raw storage: the caller constructs/initializes).
  template <class T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }
  template <class T>
  void deallocate_array(T* p, std::size_t n) noexcept {
    deallocate(p, n * sizeof(T), alignof(T));
  }

 private:
  struct OsBlock {
    void* p = nullptr;
    std::size_t bytes = 0;
    std::size_t align = 0;
  };

  std::size_t class_of(std::size_t bytes, std::size_t align) const noexcept;
  void* take_os_block(std::size_t bytes, std::size_t align);

  std::mutex mu_;
  std::vector<OsBlock> os_blocks_;  ///< everything owned, freed in dtor
  // Intrusive free lists: the first word of a free block points at the
  // next.  Small classes are indexed by log2; large blocks keyed by exact
  // rounded size (large consumers — segments, backups — recur with the
  // same sizes, so exact keys recycle perfectly without pow2 waste).
  static constexpr int kSmallClasses = 11;  ///< 64 B ... 64 KiB
  void* small_free_[kSmallClasses] = {};
  std::map<std::size_t, void*> large_free_;
  unsigned char* slab_cur_ = nullptr;  ///< bump pointer into the open slab
  std::size_t slab_left_ = 0;
};

/// The process's arena.  Leaked: consumers may be destroyed during static
/// teardown and must still be able to return blocks.
Arena& process_arena();

/// Minimal std-allocator adapter so container-shaped consumers (backup
/// buffers, log segment tables, slot tables) draw from the process arena
/// without changing their access patterns.
template <class T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(process_arena().allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    process_arena().deallocate(p, n * sizeof(T), alignof(T));
  }
};

template <class A, class B>
bool operator==(const ArenaAllocator<A>&, const ArenaAllocator<B>&) noexcept {
  return true;
}

}  // namespace wlp::mem
