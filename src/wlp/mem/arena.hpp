// wlp::mem — per-worker slab arenas with O(1) recycling.
//
// The PD shadow's per-worker segments and the versioned array's checkpoint
// buffer grew the same allocation discipline independently: "allocate once
// from the thread that will stream the buffer, keep it alive, and make
// logical clears an epoch bump".  This header is that idiom as one
// implementation, with one accounting surface (mem/budget.hpp) instead of
// ad-hoc stats structs.
//
// Layout and contract:
//
//   * An Arena hands out cache-line-aligned blocks.  Small requests
//     (< 64 KiB) are rounded to a power-of-two class and carved from
//     bump-pointer slabs; large requests get a dedicated page-rounded OS
//     block.  Freed blocks push onto intrusive per-class free lists, so a
//     free/alloc pair of the same class is two pointer swaps under a mutex
//     — O(1) reuse with no OS traffic.  The mutex is uncontended by
//     design: an arena belongs to one virtual processor, and the runtime's
//     steady state performs no (de)allocations at all (the regression
//     tests assert exactly that through the budget counters).
//   * Lazy, owner-side allocation: per-worker buffers are allocated from
//     the worker's own share (log segments on the first mark), so an idle
//     worker's arena stays empty and a recycled block returns to the
//     worker that streamed it.
//
// EpochClock (mem/epoch.hpp, re-exported here) is the other half of the
// retired idiom: the 32-bit generation counter with a once-per-2^32 wrap
// sweep that the hash backup used to hand-roll.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "wlp/mem/epoch.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp::mem {

/// Per-arena reuse counters (the Budget aggregates the same events
/// process-wide; these are for tests that pin one arena's behavior).
struct ArenaStats {
  long block_allocs = 0;   ///< allocate() calls served
  long recycles = 0;       ///< ... of which came from a free list
  long os_allocs = 0;      ///< slabs/oversize blocks taken from the OS
  long frees = 0;          ///< deallocate() calls
  long bytes_held = 0;     ///< OS bytes this arena currently owns
};

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

  /// A cache-line-aligned block of at least `bytes`.  Thread-safe, but the
  /// intended discipline is single-owner: allocate from the thread that
  /// will stream the block.
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

  ArenaStats stats() const;

 private:
  struct OsBlock {
    void* p = nullptr;
    std::size_t bytes = 0;
    std::size_t align = 0;
  };

  std::size_t class_of(std::size_t bytes, std::size_t align) const noexcept;
  void* take_os_block(std::size_t bytes, std::size_t align);

  mutable std::mutex mu_;
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
  ArenaStats stats_;
};

/// The process's arena set: one lazily-built arena per virtual processor
/// slot.  Leaked (consumers may be destroyed during static teardown and
/// must still be able to return blocks).
class ArenaSet {
 public:
  static constexpr unsigned kSlots = 256;

  static ArenaSet& process();

  /// Arena for virtual processor `vpn` (vpn beyond kSlots wraps and shares
  /// a slot; the arena's mutex keeps the shared slot correct).
  Arena& worker(unsigned vpn);

  /// The calling thread's home arena: each thread is assigned a slot on
  /// first use (the main thread, which calls first, lands on slot 0 —
  /// matching vpn 0, whose share it executes).  The slot assignment is an
  /// index only; the arena stays in the process set, so blocks survive the
  /// thread.
  Arena& local();

 private:
  ArenaSet() = default;

  std::atomic<Arena*> slots_[kSlots] = {};
  std::mutex mu_;
  std::atomic<unsigned> next_local_{0};
};

/// Shorthands used by the ported subsystems.
inline Arena& worker_arena(unsigned vpn) {
  return ArenaSet::process().worker(vpn);
}
inline Arena& local_arena() { return ArenaSet::process().local(); }

/// Minimal std-allocator adapter so container-shaped consumers (backup
/// buffers, stamp arrays, slot tables) draw from an arena without changing
/// their access patterns.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  explicit ArenaAllocator(Arena& a) noexcept : arena_(&a) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& o) noexcept : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  Arena* arena() const noexcept { return arena_; }

 private:
  Arena* arena_;
};

template <class A, class B>
bool operator==(const ArenaAllocator<A>& a, const ArenaAllocator<B>& b) noexcept {
  return a.arena() == b.arena();
}

}  // namespace wlp::mem
