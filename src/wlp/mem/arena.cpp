#include "wlp/mem/arena.hpp"

#include <cassert>
#include <new>

#include "wlp/mem/budget.hpp"

namespace wlp::mem {

namespace {

constexpr std::size_t kMaxAlign = 4096;

std::size_t round_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) & ~(a - 1);
}

/// log2 index for a small class: 64 B -> 0, 128 B -> 1, ... 64 KiB -> 10.
int small_index(std::size_t cls) noexcept {
  int i = 0;
  for (std::size_t c = Arena::kMinClass; c < cls; c <<= 1) ++i;
  return i;
}

void push_free(void*& head, void* p) noexcept {
  *static_cast<void**>(p) = head;
  head = p;
}

void* pop_free(void*& head) noexcept {
  void* p = head;
  if (p != nullptr) head = *static_cast<void**>(p);
  return p;
}

}  // namespace

Arena::~Arena() {
  std::lock_guard<std::mutex> lock(mu_);
  Budget& budget = Budget::process();
  for (const OsBlock& b : os_blocks_) {
    budget.on_os_release(b.bytes);
    ::operator delete(b.p, std::align_val_t(b.align));
  }
  os_blocks_.clear();
}

std::size_t Arena::class_of(std::size_t bytes,
                            std::size_t align) const noexcept {
  if (bytes == 0) bytes = 1;
  if (align < kMinClass) align = kMinClass;
  std::size_t need = round_up(bytes, align);
  if (need >= kLargeMin) return round_up(need, kPage);  // exact large class
  std::size_t cls = kMinClass;
  while (cls < need) cls <<= 1;
  return cls;
}

void* Arena::take_os_block(std::size_t bytes, std::size_t align) {
  void* p = ::operator new(bytes, std::align_val_t(align));
  os_blocks_.push_back(OsBlock{p, bytes, align});
  stats_.os_allocs += 1;
  stats_.bytes_held += static_cast<long>(bytes);
  Budget::process().on_os_alloc(bytes);
  return p;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  assert(align <= kMaxAlign && (align & (align - 1)) == 0);
  const std::size_t cls = class_of(bytes, align);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.block_allocs += 1;
  Budget::process().on_block_alloc();

  if (cls >= kLargeMin) {
    // Dedicated block, recycled by exact rounded size: the big consumers
    // (log segments, backup tables) recur with identical sizes, so
    // exact keys recycle perfectly without power-of-two waste.
    auto it = large_free_.find(cls);
    if (it != large_free_.end()) {
      void* p = pop_free(it->second);
      if (p != nullptr) {
        if (it->second == nullptr) large_free_.erase(it);
        stats_.recycles += 1;
        return p;
      }
      large_free_.erase(it);
    }
    return take_os_block(cls, kPage);
  }

  void*& head = small_free_[small_index(cls)];
  if (void* p = pop_free(head)) {
    stats_.recycles += 1;
    return p;
  }
  // Mixed classes carve from the same slab, so the bump pointer must be
  // re-aligned to this class (power-of-two classes from a page-aligned
  // base: aligning the offset to cls aligns the block to cls >= align).
  const std::size_t skew =
      reinterpret_cast<std::uintptr_t>(slab_cur_) & (cls - 1);
  const std::size_t pad = skew != 0 ? cls - skew : 0;
  if (slab_left_ < cls + pad) {
    slab_cur_ = static_cast<unsigned char*>(take_os_block(kSlabBytes, kPage));
    slab_left_ = kSlabBytes;
  } else {
    slab_cur_ += pad;
    slab_left_ -= pad;
  }
  void* p = slab_cur_;
  slab_cur_ += cls;
  slab_left_ -= cls;
  return p;
}

void Arena::deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (p == nullptr) return;
  const std::size_t cls = class_of(bytes, align);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.frees += 1;
  Budget::process().on_block_free();
  if (cls >= kLargeMin) {
    push_free(large_free_[cls], p);
  } else {
    push_free(small_free_[small_index(cls)], p);
  }
}

ArenaStats Arena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ArenaSet& ArenaSet::process() {
  static ArenaSet* s = new ArenaSet();  // leaked: see header
  return *s;
}

Arena& ArenaSet::worker(unsigned vpn) {
  const unsigned i = vpn % kSlots;
  Arena* a = slots_[i].load(std::memory_order_acquire);
  if (a != nullptr) return *a;
  std::lock_guard<std::mutex> lock(mu_);
  a = slots_[i].load(std::memory_order_relaxed);
  if (a == nullptr) {
    a = new Arena();
    slots_[i].store(a, std::memory_order_release);
  }
  return *a;
}

Arena& ArenaSet::local() {
  thread_local unsigned mine =
      next_local_.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return worker(mine);
}

}  // namespace wlp::mem
