#include "wlp/core/shadow.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "wlp/mem/arena.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

namespace {

/// Absent iteration: after every iteration an entry records.
constexpr std::uint32_t kNone = 0xffffffffu;
constexpr std::uint32_t kMultiWrite = 1, kMultiRead = 2;

/// Index bucket of the dense path: 2^kBucketBits consecutive elements,
/// whose table of cells (12 KiB) stays in L1.
constexpr unsigned kBucketBits = 10;
/// The dense path runs when the logs hold at least one mark per
/// 2^kDenseBits elements, so its per-bucket arrays stay O(marks).  That is
/// the measured crossover: at one mark per 256 elements the bucket tables
/// fold 1.2x faster than sorting, at one per 512 sorting is 1.2x faster
/// (EXPERIMENTS.md, "PD marks as per-worker logs").
constexpr unsigned kDenseBits = 8;

/// Note iteration `iter` in one kind's (smallest, second distinct seen):
/// the verdict never needs the second iteration itself, only that one
/// below the trip exists.
void note(std::uint32_t& first, std::uint32_t& multi, std::uint32_t bit,
          std::uint32_t iter) noexcept {
  if (first == kNone) {
    first = iter;
  } else if (first != iter) {
    multi |= bit;
    first = std::min(first, iter);
  }
}

/// One element's verdict from its smallest writer and exposed-reader
/// iterations below the trip and the second-distinct bits.
PDVerdict verdict_of(std::uint32_t w0, std::uint32_t r0,
                     std::uint32_t multi) noexcept {
  PDVerdict v;
  const bool written = w0 != kNone;
  const bool exposed = r0 != kNone;
  v.written_elements = written ? 1 : 0;
  v.multi_written = (multi & kMultiWrite) != 0 ? 1 : 0;
  v.exposed_read_elements = exposed ? 1 : 0;
  // Cross-iteration flow/anti dependence: a writer and an exposed reader
  // in DIFFERENT iterations (exact with two-smallest sets; see the header).
  v.conflicts = (written && exposed && (multi != 0 || w0 != r0)) ? 1 : 0;
  return v;
}

/// Insert into a two-smallest set held as (lo <= hi, kNone-padded).
void insert2(std::uint32_t& lo, std::uint32_t& hi, std::uint32_t iter) noexcept {
  if (iter == lo || iter == hi) return;
  if (iter < lo) {
    hi = lo;
    lo = iter;
  } else if (iter < hi) {
    hi = iter;
  }
}

/// Stable LSD radix sort of a[0, k) by index (indices below 2^bits), with
/// tmp[0, k) as the other buffer.  Returns whichever holds the result.
IterEntry* sort_by_index(IterEntry* a, IterEntry* tmp, std::size_t k,
                         unsigned bits) {
  if (k <= 256) {  // below a few histogram sweeps: compare sort
    std::sort(a, a + k, [](const IterEntry& x, const IterEntry& y) {
      return x.idx < y.idx;
    });
    return a;
  }
  constexpr unsigned kDigit = 11;
  constexpr std::uint32_t kMask = (1u << kDigit) - 1;
  std::size_t count[1u << kDigit];
  for (unsigned shift = 0; shift < bits; shift += kDigit) {
    std::fill(std::begin(count), std::end(count), 0);
    for (std::size_t i = 0; i < k; ++i) ++count[(a[i].idx >> shift) & kMask];
    std::size_t sum = 0;
    for (std::size_t& c : count) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < k; ++i)
      tmp[count[(a[i].idx >> shift) & kMask]++] = a[i];
    std::swap(a, tmp);
  }
  return a;
}

template <class T>
using ArenaVec = std::vector<T, mem::ArenaAllocator<T>>;

/// At least `n` elements of `v`: it only grows, and growth zero-fills.
template <class T>
T* grow(ArenaVec<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// One element's marks below the trip in a bucket table: the smallest
/// writer and exposed-reader iterations (kNone when absent) and whether a
/// second distinct one of each was seen.  Cell{} is empty.
struct Cell {
  std::uint32_t w0 = kNone, r0 = kNone, multi = 0;
};

/// One pool worker's scratch for folding slots, in its arena.
struct alignas(kCacheLine) Folder {
  explicit Folder(mem::Arena& a)
      : sorted(mem::ArenaAllocator<IterEntry>(a)),
        cells(mem::ArenaAllocator<Cell>(a)),
        touched(mem::ArenaAllocator<std::uint32_t>(a)) {}
  ArenaVec<IterEntry> sorted;  ///< sparse slots: gathered runs, sort buffer
  ArenaVec<Cell> cells;        ///< dense slots: one bucket's table, empty
  ArenaVec<std::uint32_t> touched;  ///< cells the bucket filled
};

/// The analysis scratch of the calling thread, kept across calls and
/// across stores (TRACK builds its targets per call and analyzes two in a
/// row): it only grows, and its contents are overwritten, never cleared.
struct Scratch {
  ArenaVec<IterEntry> parts{mem::ArenaAllocator<IterEntry>(mem::local_arena())};
  ArenaVec<std::size_t> cuts{mem::ArenaAllocator<std::size_t>(mem::local_arena())};
  std::vector<Folder> folders;  ///< folders[vpn], in vpn's arena
};

Scratch& thread_scratch() {
  thread_local Scratch s;
  return s;
}

/// Where the split put the entries below the trip: log l (writes of owner
/// o at l = o, its exposed reads at l = owners + o) has its own stretch of
/// `parts` from stretch[l], and its entries of slot s lie at [cut[s],
/// cut[s + 1]) in it, cut = cuts + l * (slots + 2).
struct Split {
  const IterEntry* parts;
  const std::size_t* cuts;
  const std::size_t* stretch;
  std::size_t owners, slots;

  /// f(first, last) on slot s's entries of one kind, one run per owner.
  template <class F>
  void each(std::size_t kind, std::size_t s, F&& f) const {
    for (std::size_t l = kind * owners; l < (kind + 1) * owners; ++l) {
      const std::size_t* const cut = cuts + l * (slots + 2);
      f(parts + stretch[l] + cut[s], parts + stretch[l] + cut[s + 1]);
    }
  }
};

/// The verdict of slot s, all of its entries below the trip: a bucket of
/// consecutive elements folded through a table when `dense`, else a range
/// whose entries are gathered, sorted by index (indices below 2^bits) and
/// merged.
PDVerdict fold_slot(Folder& f, const Split& split, std::size_t s, bool dense,
                    unsigned bits) {
  PDVerdict v;
  if (!dense) {
    std::size_t n[2] = {0, 0};
    for (std::size_t kind = 0; kind < 2; ++kind)
      split.each(kind, s, [&](const IterEntry* e, const IterEntry* last) {
        n[kind] += static_cast<std::size_t>(last - e);
      });
    const std::size_t nw = n[0], nr = n[1];
    if (nw + nr == 0) return v;
    IterEntry* const ws = grow(f.sorted, 2 * (nw + nr));
    IterEntry* const rs = ws + nw;
    IterEntry* const tmp = rs + nr;
    IterEntry* out = ws;
    for (std::size_t kind = 0; kind < 2; ++kind)
      split.each(kind, s, [&](const IterEntry* e, const IterEntry* last) {
        out = std::copy(e, last, out);
      });
    const IterEntry* w = sort_by_index(ws, tmp, nw, bits);
    const IterEntry* r = sort_by_index(rs, tmp + nw, nr, bits);
    const IterEntry* const w_end = w + nw;
    const IterEntry* const r_end = r + nr;
    while (w != w_end || r != r_end) {
      const std::uint32_t idx = std::min(w != w_end ? w->idx : kNone,
                                         r != r_end ? r->idx : kNone);
      std::uint32_t w0 = kNone, r0 = kNone, multi = 0;
      for (; w != w_end && w->idx == idx; ++w) note(w0, multi, kMultiWrite, w->iter);
      for (; r != r_end && r->idx == idx; ++r) note(r0, multi, kMultiRead, r->iter);
      v.merge(verdict_of(w0, r0, multi));
    }
    return v;
  }

  // One table of cells, empty between buckets: the verdict loop empties
  // every cell the bucket touched.
  constexpr std::uint32_t kCells = 1u << kBucketBits;
  Cell* const cells = grow(f.cells, kCells);
  std::uint32_t* const touched = grow(f.touched, kCells);
  std::uint32_t n_touched = 0;
  auto fold = [&](const IterEntry* e, const IterEntry* last,
                  std::uint32_t Cell::*first, std::uint32_t bit) {
    for (; e != last; ++e) {
      const std::uint32_t at = e->idx & (kCells - 1);
      Cell& c = cells[at];
      if (c.w0 == kNone && c.r0 == kNone) touched[n_touched++] = at;
      note(c.*first, c.multi, bit, e->iter);
    }
  };
  split.each(0, s, [&](const IterEntry* e, const IterEntry* last) {
    fold(e, last, &Cell::w0, kMultiWrite);
  });
  split.each(1, s, [&](const IterEntry* e, const IterEntry* last) {
    fold(e, last, &Cell::r0, kMultiRead);
  });
  for (std::uint32_t t = 0; t < n_touched; ++t) {
    Cell& c = cells[touched[t]];
    v.merge(verdict_of(c.w0, c.r0, c.multi));
    c = Cell{};
  }
  return v;
}

}  // namespace

PDMarks::PDMarks(std::size_t n, std::span<IterLog> writes, bool on)
    : on_(on), n_(n) {
  if (n > IterLog::kMaxIndex + 1)
    throw std::length_error("PDMarks: size exceeds the log's 32-bit index");
  if (on_) attach(writes);
}

PDMarks::PDMarks(std::size_t n, unsigned workers, bool on)
    : PDMarks(n, std::span<IterLog>(), on) {
  if (!on_) return;
  own_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    own_.emplace_back(mem::local_arena(), kSegmentEntries);
  attach(own_);
}

void PDMarks::attach(std::span<IterLog> writes) {
  mem::Arena& arena = mem::local_arena();
  workers_.reserve(writes.size());
  for (IterLog& log : writes) workers_.emplace_back(log, arena);
}

PDVerdict PDMarks::analyze(ThreadPool& pool, long trip) const {
  const auto marks_now = static_cast<std::size_t>(marks());
  WLP_TRACE_SCOPE("pd.merge", marks_now, trip);
  const auto t0 = std::chrono::steady_clock::now();
  PDVerdict v;
  if (marks_now != 0) {
    // Marks at or past the trip belong to overshot iterations: ignored.
    const auto lim = static_cast<std::uint64_t>(
        std::clamp(trip, 0L, static_cast<long>(kNone)));
    // Large logs fold on the pool; small ones on the calling thread.
    const bool parallel = marks_now >= kSequentialMarks && pool.size() > 1;
    const std::size_t p = parallel ? pool.size() : 1;
    auto run = [&](std::size_t k, auto&& f) {
      if (parallel)
        doall(pool, 0, static_cast<long>(k),
              [&](long i, unsigned vpn) { f(static_cast<std::size_t>(i), vpn); });
      else
        for (std::size_t i = 0; i < k; ++i) f(i, 0u);
    };
    // Slots are disjoint index ranges.  At least one mark per 2^kDenseBits
    // elements: buckets of 2^kBucketBits, each folded through a table;
    // fewer: a few ranges per worker, each sorted.  Either way the slot
    // arrays below stay O(marks).
    const bool dense = (n_ >> kDenseBits) <= marks_now;
    const unsigned shift =
        dense ? kBucketBits
              : std::max<unsigned>(kBucketBits,
                                   static_cast<unsigned>(std::bit_width((n_ - 1) / (4 * p))));
    const std::size_t slots = ((n_ - 1) >> shift) + 1;
    const std::size_t owners = workers_.size();
    Scratch& scratch = thread_scratch();

    // 1. Split each log by slot into its own stretch of parts, as long as
    // the log: count, then place, one owner's two logs per task, so the
    // place pass re-reads what the count pass just brought into cache.
    const std::size_t logs = 2 * owners;
    auto log_of = [&](std::size_t l) -> const IterLog& {
      return l < owners ? *workers_[l].writes : workers_[l - owners].reads;
    };
    std::size_t* const cuts = grow(scratch.cuts, logs * (slots + 3));
    std::size_t* const stretch = cuts + logs * (slots + 2);
    for (std::size_t l = 0, at = 0; l < logs; ++l) {
      stretch[l] = at;
      at += log_of(l).size();
    }
    IterEntry* const parts = grow(scratch.parts, marks_now);
    run(owners, [&](std::size_t o, unsigned) {
      for (const std::size_t l : {o, owners + o}) {
        const IterLog& log = log_of(l);
        // Slot s is counted at cut[s + 2]; after the prefix sum cut[s + 1]
        // is where it starts, and placing moves that to where it ends.
        std::size_t* const cut = cuts + l * (slots + 2);
        std::fill(cut, cut + slots + 2, 0);
        log.for_each_run([&](const IterEntry* e, const IterEntry* last) {
          for (; e != last; ++e)
            if (e->iter < lim) ++cut[(e->idx >> shift) + 2];
        });
        std::partial_sum(cut + 1, cut + slots + 2, cut + 1);
        IterEntry* const out = parts + stretch[l];
        log.for_each_run([&](const IterEntry* e, const IterEntry* last) {
          for (; e != last; ++e)
            if (e->iter < lim) out[cut[(e->idx >> shift) + 1]++] = *e;
        });
      }
    });
    const Split split{parts, cuts, stretch, owners, slots};

    // 2. Fold the slots, a contiguous group of them per task.
    std::vector<Folder>& folders = scratch.folders;
    while (folders.size() < p) folders.emplace_back(mem::worker_arena(folders.size()));
    const std::size_t groups = std::min(slots, 4 * p);
    const auto bits = static_cast<unsigned>(std::bit_width(n_ - 1));
    std::atomic<long> written{0}, multi{0}, exposed{0}, conflicts{0};
    run(groups, [&](std::size_t g, unsigned vpn) {
      PDVerdict sum;
      for (std::size_t s = slots * g / groups; s < slots * (g + 1) / groups; ++s)
        sum.merge(fold_slot(folders[vpn], split, s, dense, bits));
      written.fetch_add(sum.written_elements, std::memory_order_relaxed);
      multi.fetch_add(sum.multi_written, std::memory_order_relaxed);
      exposed.fetch_add(sum.exposed_read_elements, std::memory_order_relaxed);
      conflicts.fetch_add(sum.conflicts, std::memory_order_relaxed);
    });
    v.written_elements = written.load(std::memory_order_relaxed);
    v.multi_written = multi.load(std::memory_order_relaxed);
    v.exposed_read_elements = exposed.load(std::memory_order_relaxed);
    v.conflicts = conflicts.load(std::memory_order_relaxed);
  }
#if defined(WLP_OBS_ENABLED)
  WLP_OBS_HIST("wlp.pd.merge_ns",
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
#else
  (void)t0;
#endif
  return v;
}

PDMarks::Iterations PDMarks::iterations_of(std::size_t idx) const {
  std::uint32_t w0 = kNone, w1 = kNone, r0 = kNone, r1 = kNone;
  for (const Worker& w : workers_) {
    w.writes->for_each_run([&](const IterEntry* e, const IterEntry* last) {
      for (; e != last; ++e)
        if (e->idx == idx) insert2(w0, w1, e->iter);
    });
    w.reads.for_each_run([&](const IterEntry* e, const IterEntry* last) {
      for (; e != last; ++e)
        if (e->idx == idx) insert2(r0, r1, e->iter);
    });
  }
  auto out = [](std::uint32_t it) { return it == kNone ? -1L : static_cast<long>(it); };
  return {out(w0), out(w1), out(r0), out(r1)};
}

}  // namespace wlp
