// One worker's append-only log of (index, iteration) entries: the record
// behind VersionedArray's undo (versioned_array.hpp) and behind the PD
// test's write and exposed-read marks (PDMarks, shadow.hpp).
//
// Entries fill arena segments front to back.  clear() rewinds the fill
// position and keeps the segments, so a warm retry allocates nothing.  Only
// the owning worker appends; the walks run after the fork-join barrier that
// publishes the log to them.  Every driver schedule hands a worker its
// iterations in increasing order, so a log is sorted by iteration as it is
// written and the newest iteration's entries sit at its tail.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "wlp/mem/arena.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// One log entry: 8 bytes, both fields 32-bit.
struct IterEntry {
  std::uint32_t idx;
  std::uint32_t iter;
};

/// Cache-line aligned: each worker's fill pointers sit on their own line.
class alignas(kCacheLine) IterLog {
 public:
  /// Largest iteration an entry records.  Loops beyond 4G iterations would
  /// need the strip/window drivers anyway, which reset the logs per strip.
  static constexpr long kMaxIter = 0xfffffffeL;
  /// Largest index an entry records; owners apply the same 32-bit limit to
  /// their array size.
  static constexpr std::size_t kMaxIndex = 0xfffffffeu;

  /// Segments of `seg_entries` entries come from `arena`.  `opened`
  /// (nullable) counts the segments opened since the last clear(), summed
  /// over every log that shares it; it is the one figure a reader may poll
  /// while the owner appends.
  IterLog(mem::Arena& arena, std::size_t seg_entries,
          std::atomic<std::size_t>* opened = nullptr)
      : arena_(&arena), seg_entries_(seg_entries), opened_(opened),
        segs_(SegAlloc(arena)) {}

  IterLog(IterLog&& o) noexcept
      : pos_(std::exchange(o.pos_, nullptr)),
        end_(std::exchange(o.end_, nullptr)),
        open_(std::exchange(o.open_, 0)),
        arena_(o.arena_),
        seg_entries_(o.seg_entries_),
        opened_(o.opened_),
        segs_(std::move(o.segs_)) {}
  IterLog(const IterLog&) = delete;
  IterLog& operator=(const IterLog&) = delete;

  ~IterLog() {
    for (IterEntry* s : segs_) arena_->deallocate_array(s, seg_entries_);
  }

  void push(std::size_t idx, long iter) {
    if (pos_ == end_) open_segment();
    *pos_++ = IterEntry{static_cast<std::uint32_t>(idx),
                        static_cast<std::uint32_t>(iter)};
  }

  /// Iteration of the newest entry, -1 for an empty log.  A segment is
  /// opened only to take an entry at once, so pos_[-1] is always valid.
  long last_iter() const noexcept {
    return pos_ == nullptr ? -1 : static_cast<long>(pos_[-1].iter);
  }

  /// O(1): rewind; the segments stay allocated for reuse.
  void clear() noexcept {
    open_ = 0;
    pos_ = end_ = nullptr;
  }

  /// Entries since the last clear() (exact; owner or quiescent only).
  std::size_t size() const noexcept {
    if (open_ == 0) return 0;
    return (open_ - 1) * seg_entries_ +
           static_cast<std::size_t>(pos_ - segs_[open_ - 1]);
  }

  /// Segments held, filled or kept for reuse.
  std::size_t segments() const noexcept { return segs_.size(); }

  /// Calls `f(entry)` newest first until it returns false.
  template <class F>
  void walk_back(F&& f) const {
    for (std::size_t s = open_; s-- > 0;) {
      const IterEntry* first = segs_[s];
      const IterEntry* e = s + 1 == open_ ? pos_ : first + seg_entries_;
      while (e != first)
        if (!f(*--e)) return;
    }
  }

  /// Calls `f(first, last)` on each filled run of entries, oldest first.
  template <class F>
  void for_each_run(F&& f) const {
    for (std::size_t s = 0; s < open_; ++s) {
      const IterEntry* first = segs_[s];
      f(first, s + 1 == open_ ? static_cast<const IterEntry*>(pos_)
                              : first + seg_entries_);
    }
  }

 private:
  using SegAlloc = mem::ArenaAllocator<IterEntry*>;

  /// Move a full (or never opened) log onto its next segment, allocating
  /// one only when no kept segment is left.
  void open_segment() {
    if (open_ == segs_.size())
      segs_.push_back(arena_->allocate_array<IterEntry>(seg_entries_));
    if (opened_ != nullptr) opened_->fetch_add(1, std::memory_order_relaxed);
    IterEntry* s = segs_[open_++];
    pos_ = s;
    end_ = s + seg_entries_;
  }

  // The open segment is segs_[open_ - 1]; [pos_, end_) is its free tail.
  IterEntry* pos_ = nullptr;
  IterEntry* end_ = nullptr;
  std::size_t open_ = 0;
  mem::Arena* arena_;
  std::size_t seg_entries_;
  std::atomic<std::size_t>* opened_;
  std::vector<IterEntry*, SegAlloc> segs_;
};

}  // namespace wlp
