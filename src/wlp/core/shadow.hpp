// Shadow arrays for the PRIVATIZING DOALL (PD) test — Section 5.1.
//
// For each shared array whose accesses cannot be analyzed at compile time,
// the speculative parallel execution traverses shadow state using the
// array's own access pattern:
//   * every write to element e marks e's write shadow (Aw),
//   * every read that is NOT preceded by a same-iteration write marks e's
//     exposed-read shadow (Ar) — exposed reads are what invalidate both
//     independence and privatization.
//
// To support WHILE-loop overshoot (Section 5: "all writes to the shadow
// arrays ... will be time-stamped, and for each shadow element we will
// maintain the minimum iteration that marked it"), each cell keeps the TWO
// smallest distinct writer iterations (w0 < w1) and the two smallest
// distinct exposed-read iterations (r0 < r1).  The post-execution analysis
// filters marks made by iterations >= the last valid iteration:
//   written          iff w0 < trip
//   multiply written iff w1 < trip        (output dependence -> privatize)
//   exposed-read     iff r0 < trip
//
// A cross-iteration flow/anti dependence (a *conflict*) exists iff some
// iteration writes the element and a DIFFERENT iteration exposed-reads it.
// With the two-smallest sets that is decidable exactly:
//   conflict iff written && exposed && (w1 < trip || r1 < trip || w0 != r0)
// — a same-iteration read-then-write like A[i] = 2*A[i] (the paper's
// Fig. 5(a)) leaves w0 == r0 as the only marks and correctly passes.
//
// Two implementations of the marking store exist; both run the same fully
// parallel O(n/p + log p) analysis:
//
//   * PDSharedShadow — one cell array shared by all workers; every mark
//     pays atomic loads plus a striped spinlock.  Kept only as the
//     reference the PD tests and bench_micro_pd check the privatized store
//     against.
//   * PDPrivateShadow — the store every speculation target marks into
//     (through its one PDMarks member): one cache-line-disjoint cell
//     segment per worker; marks are PLAIN stores into the worker's own
//     segment (no atomics, no locks), and analyze() merges the per-worker
//     two-smallest sets cell-block-wise.  The two-smallest set is a
//     semilattice under that merge (see DESIGN.md §5), so moving the
//     combine into the post-pass is exact.  reset() is an O(1) epoch bump:
//     cells stamped with an older generation are treated as unmarked at
//     merge time, so strip / run-twice / sliding-window retries stop
//     paying an O(n) sweep.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "wlp/mem/epoch.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {

/// Per-worker access summary for the verdict cache (wlp::pdcache): a
/// constant-size digest of every mark a worker made since the last reset,
/// cheap enough to maintain inline on the marking hot path and to fold
/// across workers in O(workers) — no cell sweep.
///
/// The digest must satisfy two invariances so equal access patterns hash
/// equal across strips:
///   * schedule invariance — which worker marked what varies run to run, so
///     every component is a commutative fold (sums mod 2^64, min/max);
///   * base invariance — strip k replays the pattern at iterations
///     [base, base+s), so iteration numbers enter only through moment sums
///     Σ m(idx)·(iter+1)^k, which the signature builder rebases exactly:
///     Σ m·(t−b+1) = h1 − b·h0 and Σ m·(t−b+1)² = h2 − 2b·h1 + b²·h0.
/// Two moments bind (idx, iter) pairs jointly: permuting which iteration
/// touched which element changes h1/h2 even when the index multiset and the
/// iteration multiset are individually unchanged.
struct PDAccessSummary {
  std::uint64_t w_h0 = 0, w_h1 = 0, w_h2 = 0;  ///< write moment hashes
  std::uint64_t r_h0 = 0, r_h1 = 0, r_h2 = 0;  ///< exposed-read moment hashes
  long writes = 0;         ///< write marks folded in
  long exposed_reads = 0;  ///< exposed-read marks folded in
  std::size_t min_idx = std::numeric_limits<std::size_t>::max();
  std::size_t max_idx = 0;

  void note_write(long iter, std::size_t idx) noexcept {
    const std::uint64_t m = mix64(static_cast<std::uint64_t>(idx) +
                                  0x9E3779B97F4A7C15ull);
    const std::uint64_t t = static_cast<std::uint64_t>(iter) + 1;
    w_h0 += m;
    w_h1 += m * t;
    w_h2 += m * t * t;
    ++writes;
    if (idx < min_idx) min_idx = idx;
    if (idx > max_idx) max_idx = idx;
  }

  void note_exposed_read(long iter, std::size_t idx) noexcept {
    const std::uint64_t m = mix64(static_cast<std::uint64_t>(idx) +
                                  0xC2B2AE3D27D4EB4Full);
    const std::uint64_t t = static_cast<std::uint64_t>(iter) + 1;
    r_h0 += m;
    r_h1 += m * t;
    r_h2 += m * t * t;
    ++exposed_reads;
    if (idx < min_idx) min_idx = idx;
    if (idx > max_idx) max_idx = idx;
  }

  void merge(const PDAccessSummary& o) noexcept {
    w_h0 += o.w_h0;
    w_h1 += o.w_h1;
    w_h2 += o.w_h2;
    r_h0 += o.r_h0;
    r_h1 += o.r_h1;
    r_h2 += o.r_h2;
    writes += o.writes;
    exposed_reads += o.exposed_reads;
    min_idx = std::min(min_idx, o.min_idx);
    max_idx = std::max(max_idx, o.max_idx);
  }

  void clear() noexcept { *this = PDAccessSummary{}; }

  long marks() const noexcept { return writes + exposed_reads; }
};

/// Outcome of the PD test's post-execution analysis.
struct PDVerdict {
  long written_elements = 0;  ///< distinct elements written by valid iterations
  long multi_written = 0;     ///< elements written in >= 2 distinct valid iterations
  long exposed_read_elements = 0;
  long conflicts = 0;  ///< elements both written and exposed-read

  /// Loop was fully parallel as executed (no cross-iteration dependences).
  bool fully_parallel() const noexcept { return conflicts == 0 && multi_written == 0; }
  /// Loop is valid as a privatized DOALL (output deps removable).
  bool parallel_with_privatization() const noexcept { return conflicts == 0; }

  PDVerdict& merge(const PDVerdict& o) noexcept {
    written_elements += o.written_elements;
    multi_written += o.multi_written;
    exposed_read_elements += o.exposed_read_elements;
    conflicts += o.conflicts;
    return *this;
  }
};

/// Bookkeeping counters the allocation-regression tests assert on: how many
/// O(n) costs a shadow has actually paid.
struct PDShadowStats {
  long resets = 0;          ///< reset() calls
  long cell_sweeps = 0;     ///< O(n) full-cell sweeps performed by reset()
  long segment_allocs = 0;  ///< per-worker segment allocations (lazy)
};

/// The original shared-cell shadow: every mark does atomic loads plus a
/// striped spinlock on a cache line contended by all workers.  Retained as
/// the reference the tests and bench_micro_pd compare PDPrivateShadow with.
class PDSharedShadow {
 public:
  explicit PDSharedShadow(std::size_t n);
  /// PDPrivateShadow's constructor shape (the worker count is irrelevant here).
  PDSharedShadow(std::size_t n, unsigned /*workers*/) : PDSharedShadow(n) {}

  PDSharedShadow(const PDSharedShadow&) = delete;
  PDSharedShadow& operator=(const PDSharedShadow&) = delete;

  std::size_t size() const noexcept { return cells_.size(); }

  /// Mark a write to element `idx` by iteration `iter`.
  void mark_write(long iter, std::size_t idx) noexcept;

  /// Mark an exposed read (no earlier same-iteration write) of `idx`.
  void mark_exposed_read(long iter, std::size_t idx) noexcept;

  /// Uniform marking API: the shared store ignores the worker id.
  void mark_write(unsigned /*vpn*/, long iter, std::size_t idx) noexcept {
    mark_write(iter, idx);
  }
  void mark_exposed_read(unsigned /*vpn*/, long iter, std::size_t idx) noexcept {
    mark_exposed_read(iter, idx);
  }

  /// Worker-bound marking view (PDPrivateShadow's API).  The shared store has
  /// no per-worker state to cache, so this just forwards.
  class Marker {
   public:
    Marker() = default;
    void mark_write(long iter, std::size_t idx) noexcept {
      shadow_->mark_write(iter, idx);
    }
    void mark_exposed_read(long iter, std::size_t idx) noexcept {
      shadow_->mark_exposed_read(iter, idx);
    }
    void rebind() noexcept {}

   private:
    friend class PDSharedShadow;
    explicit Marker(PDSharedShadow* s) noexcept : shadow_(s) {}
    PDSharedShadow* shadow_ = nullptr;
  };
  Marker marker(unsigned /*vpn*/) noexcept { return Marker(this); }

  /// Post-execution analysis considering only iterations < trip.
  PDVerdict analyze(ThreadPool& pool, long trip) const;
  PDVerdict analyze_seq(long trip) const;

  /// Clear all marks (reuse across strips / runs).  O(n) sweep — the cost
  /// the privatized store's epoch bump exists to remove.
  void reset() noexcept;

  /// Diagnostic accessors (tests).
  long first_writer(std::size_t idx) const noexcept;
  long second_writer(std::size_t idx) const noexcept;
  long first_exposed_reader(std::size_t idx) const noexcept;
  long second_exposed_reader(std::size_t idx) const noexcept;

  PDShadowStats stats() const noexcept { return stats_; }

 private:
  static constexpr long kNone = -1;

  /// Two smallest distinct iteration numbers, CAS-free under a stripe lock.
  struct TwoSmallest {
    std::atomic<long> lo{kNone};
    std::atomic<long> hi{kNone};
  };
  struct Cell {
    TwoSmallest w;  ///< writer iterations
    TwoSmallest r;  ///< exposed-read iterations
  };

  void insert(TwoSmallest& set, long iter, std::size_t idx) noexcept;

  PDVerdict analyze_cell(const Cell& c, long trip) const noexcept;

  void lock_stripe(std::size_t idx) noexcept;
  void unlock_stripe(std::size_t idx) noexcept;

  std::vector<Cell> cells_;
  PDShadowStats stats_;
  static constexpr std::size_t kStripes = 1024;
  mutable std::array<std::atomic_flag, kStripes> locks_{};
};

/// The privatized shadow: worker `vpn` marks into its own segment with
/// plain stores; analyze() merges segments cell-wise under the current
/// epoch.  Segments are allocated lazily on a worker's first mark, on the
/// marking worker's thread, from mem::worker_arena(vpn); destroying the
/// shadow returns the blocks to the same arena for O(1) reuse by the next
/// shadow of the same shape.  A
/// speculation that never runs the PD test — or runs on fewer workers than
/// the pool has — pays nothing for the idle segments.
///
/// Concurrency contract: marks for one vpn come from one thread at a time
/// (the pool hands each vpn share to exactly one thread), and analyze() /
/// reset() run only while no marking is in flight (the fork-join barrier
/// provides the happens-before edge).  That is exactly the contract the
/// speculative drivers already obey, and it is what lets the hot path be
/// synchronization-free.
class PDPrivateShadow {
 public:
  /// Empty-cell sentinel: +infinity orders after every real iteration, so
  /// the merge and the `< trip` filters need no empty-checks.  (Marks with
  /// iter == LONG_MAX are not representable; no caller produces them.)
  static constexpr long kEmpty = std::numeric_limits<long>::max();

  explicit PDPrivateShadow(std::size_t n, unsigned workers = 1)
      : n_(n), segs_(workers == 0 ? 1 : workers) {}

  PDPrivateShadow(const PDPrivateShadow&) = delete;
  PDPrivateShadow& operator=(const PDPrivateShadow&) = delete;

  std::size_t size() const noexcept { return n_; }
  unsigned workers() const noexcept { return static_cast<unsigned>(segs_.size()); }

  void mark_write(unsigned vpn, long iter, std::size_t idx) noexcept {
    marker(vpn).mark_write(iter, idx);
  }

  void mark_exposed_read(unsigned vpn, long iter, std::size_t idx) noexcept {
    marker(vpn).mark_exposed_read(iter, idx);
  }

  /// Single-threaded convenience (tests, sequential probes): worker 0.
  void mark_write(long iter, std::size_t idx) noexcept { mark_write(0, iter, idx); }
  void mark_exposed_read(long iter, std::size_t idx) noexcept {
    mark_exposed_read(0, iter, idx);
  }

 private:
  struct PrivCell;  // defined below; Markers hold raw pointers to them
  struct Segment;

 public:
  /// Worker-bound marking view: caches the segment's raw cell/gen pointers
  /// and the epoch stamp, so the per-mark path is one dense-gen compare
  /// plus plain stores — no segs_ vector walk, no unique_ptr deref, and
  /// nothing the optimizer must conservatively reload per call.
  ///
  /// A Marker is INVALIDATED by reset(): marks made through a stale view
  /// would carry the old epoch and be silently ignored by analyze().  Call
  /// rebind() after every shadow reset (PDAccessorT::reset() does; every
  /// driver resets the shadow before its accessors).
  class Marker {
   public:
    Marker() = default;

    void mark_write(long iter, std::size_t idx) noexcept {
      if (cells_ == nullptr) bind();  // cold: first mark through this view
      if (sum_ != nullptr) sum_->note_write(iter, idx);
      PrivCell& c = cells_[idx];
      if (gens_[idx] != epoch_) {  // first mark since reset: fused init
        gens_[idx] = epoch_;
        c.w0 = iter;
        c.w1 = c.r0 = c.r1 = kEmpty;
        return;
      }
      insert2(c.w0, c.w1, iter);
    }

    void mark_exposed_read(long iter, std::size_t idx) noexcept {
      if (cells_ == nullptr) bind();  // cold: first mark through this view
      if (sum_ != nullptr) sum_->note_exposed_read(iter, idx);
      PrivCell& c = cells_[idx];
      if (gens_[idx] != epoch_) {  // first mark since reset: fused init
        gens_[idx] = epoch_;
        c.r0 = iter;
        c.w0 = c.w1 = c.r1 = kEmpty;
        return;
      }
      insert2(c.r0, c.r1, iter);
    }

    /// Drop the cached epoch/pointers; the next mark re-snapshots them.
    void rebind() noexcept { cells_ = nullptr; }

   private:
    friend class PDPrivateShadow;
    Marker(PDPrivateShadow* s, unsigned vpn) noexcept
        : shadow_(s), vpn_(vpn) {}

    void bind() noexcept {
      Segment* seg = shadow_->segs_[vpn_].get();
      if (seg == nullptr) seg = shadow_->allocate_segment(vpn_);
      cells_ = seg->cells;
      gens_ = seg->gens;
      epoch_ = shadow_->epoch_.value();
      sum_ = shadow_->signatures_enabled_ ? &seg->summary : nullptr;
    }

    PDPrivateShadow* shadow_ = nullptr;
    unsigned vpn_ = 0;
    PrivCell* cells_ = nullptr;
    std::uint32_t* gens_ = nullptr;
    PDAccessSummary* sum_ = nullptr;  ///< null when signatures are disabled
    std::uint32_t epoch_ = 0;
  };

  Marker marker(unsigned vpn) noexcept { return Marker(this, vpn); }

  /// Post-execution analysis considering only iterations < trip: merges the
  /// per-worker two-smallest sets cell-block-wise (branch-light min/compare
  /// kernel) and folds the verdicts — O(n·s/p) where s is the number of
  /// segments actually marked into.
  PDVerdict analyze(ThreadPool& pool, long trip) const;
  PDVerdict analyze_seq(long trip) const;

  /// Opt in to per-mark summary accumulation (wlp::pdcache).  Off by
  /// default: the cache-off marking hot path pays only one predictable
  /// null check.  Flip only while no marking is in flight; markers pick the
  /// change up at their next rebind.
  void enable_signatures(bool on) noexcept {
    signatures_enabled_ = on;
    clear_summaries();
  }
  bool signatures_enabled() const noexcept { return signatures_enabled_; }

  /// Fold the per-worker summaries (marks since the last reset).  Valid
  /// only after the fork-join barrier, like analyze().
  PDAccessSummary access_summary() const noexcept {
    PDAccessSummary sum;
    for (const auto& seg : segs_)
      if (seg != nullptr) sum.merge(seg->summary);
    return sum;
  }

  /// O(1): stale-epoch cells are ignored at merge time and lazily
  /// re-initialized on their next mark.  No sweep, independent of n.
  /// (One sweep per 2^32 resets when the 32-bit stamp wraps; see
  /// sweep_generations.)  With signatures enabled the per-worker summaries
  /// are cleared too — O(workers), not O(n).
  void reset() noexcept {
    epoch_.bump([this] { sweep_generations(); });
    if (signatures_enabled_) clear_summaries();
    WLP_OBS_COUNT("wlp.pd.resets", 1);
  }

  /// Diagnostic accessors (tests): merged across segments, -1 = none.
  long first_writer(std::size_t idx) const noexcept;
  long second_writer(std::size_t idx) const noexcept;
  long first_exposed_reader(std::size_t idx) const noexcept;
  long second_exposed_reader(std::size_t idx) const noexcept;

  PDShadowStats stats() const noexcept {
    PDShadowStats s;
    s.resets = epoch_.resets();
    s.cell_sweeps = epoch_.sweeps();  // 0 until the 32-bit stamp wraps
    s.segment_allocs = segment_allocs_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// One worker's view of one element.  Plain (non-atomic) fields: only the
  /// owning worker writes them, and the fork-join barrier publishes them to
  /// the analysis.  Exactly half a cache line, so a cell never straddles
  /// two lines; the generation stamps live in a separate dense array
  /// (struct-of-arrays) so the analysis can skip a stale cell from a 16x
  /// denser scan without streaming its payload.
  struct PrivCell {
    long w0, w1;  ///< two smallest distinct writer iterations
    long r0, r1;  ///< two smallest distinct exposed-read iterations
  };
  struct Segment {
    // Storage comes from mem::worker_arena(vpn), carved on the owning
    // worker's thread.  Arena blocks are recycled, NOT OS-zeroed, so the
    // constructor clears `gens` explicitly — gen 0 is below any epoch
    // (epochs start at 1), making every cell stale.  `cells` stays uninitialized: a cell is only read under a
    // current-epoch gen, and the first mark of an epoch fully writes it.
    Segment(std::size_t n, unsigned vpn);
    ~Segment();
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;
    PrivCell* cells = nullptr;
    std::uint32_t* gens = nullptr;  ///< epoch each cell's marks belong to
    PDAccessSummary summary;  ///< marks since last reset (signature mode)
    std::size_t n = 0;
    unsigned vpn = 0;
  };

  /// Insert into a two-smallest set held as (lo <= hi, kEmpty-padded).
  static void insert2(long& lo, long& hi, long iter) noexcept {
    if (iter == lo || iter == hi) return;
    if (iter < lo) {
      hi = lo;
      lo = iter;
    } else if (iter < hi) {
      hi = iter;
    }
  }

  /// Merge two two-smallest sets: (lo, hi) <- two smallest distinct of the
  /// union {lo, hi, b0, b1}.  Exact because each side already holds its two
  /// smallest distinct values (the semilattice property).
  static void merge2(long& lo, long& hi, long b0, long b1) noexcept {
    if (b0 < lo) {
      hi = b1 < lo ? b1 : lo;
      lo = b0;
    } else if (b0 > lo) {
      hi = b0 < hi ? b0 : hi;
    } else {  // equal minima: deduplicate
      hi = b1 < hi ? b1 : hi;
    }
  }

  Segment* allocate_segment(unsigned vpn);
  void sweep_generations() noexcept;  ///< 32-bit stamp wrap: one sweep per 2^32 resets

  void clear_summaries() noexcept {
    for (auto& seg : segs_)
      if (seg != nullptr) seg->summary.clear();
  }

  struct Merged {
    long w0 = kEmpty, w1 = kEmpty, r0 = kEmpty, r1 = kEmpty;
  };
  Merged merged_cell(std::size_t idx) const noexcept;

  static PDVerdict verdict_of(const Merged& m, long trip) noexcept {
    PDVerdict v;
    const bool written = m.w0 < trip;  // kEmpty orders after every trip
    const bool multi_w = m.w1 < trip;
    const bool exposed = m.r0 < trip;
    const bool multi_r = m.r1 < trip;
    v.written_elements = written ? 1 : 0;
    v.multi_written = multi_w ? 1 : 0;
    v.exposed_read_elements = exposed ? 1 : 0;
    // Cross-iteration flow/anti dependence: a writer and an exposed reader
    // in DIFFERENT iterations (exact with two-smallest sets; see header).
    v.conflicts = (written && exposed && (multi_w || multi_r || m.w0 != m.r0))
                      ? 1
                      : 0;
    return v;
  }

  std::size_t n_ = 0;
  mem::EpochClock epoch_;  ///< current generation; 0 is reserved for "never"
  // One slot per worker; each Segment is its own arena block, so two
  // workers' hot cells can only share a cache line at segment boundaries,
  // never in the middle of the marking range.
  std::vector<std::unique_ptr<Segment>> segs_;
  std::atomic<long> segment_allocs_{0};  ///< workers allocate concurrently
  bool signatures_enabled_ = false;      ///< per-mark summary accumulation
};

/// Per-worker access recorder: decides read exposure using a worker-local
/// last-writer table, then forwards marks to the shadow under the worker's
/// id.  One accessor per (array, worker); call begin_iteration before each
/// iteration's accesses.
///
/// The last-writer table is generation-stamped exactly like the privatized
/// shadow's cells: reset() is an O(1) bump that invalidates every entry, so
/// reusing the accessor across strips, run-twice passes and sliding-window
/// retries costs neither an allocation nor an O(n) refill.  (The one O(n)
/// zero-fill happens at construction; fills() lets tests assert it stays 1.)
template <class Shadow>
class PDAccessorT {
 public:
  PDAccessorT(Shadow& shadow, std::size_t n, unsigned vpn = 0)
      : shadow_(&shadow), marker_(shadow.marker(vpn)), vpn_(vpn),
        lw_iter_(n, 0), lw_gen_(n, 0) {}

  /// O(1): invalidate all last-write entries and the mark counter for a
  /// fresh run.  Pairs with Shadow::reset() — every driver resets the
  /// shadow first, so the marker re-snapshots the new epoch here.
  void reset() noexcept {
    marks_ = 0;
    marker_.rebind();
    if (++gen_ == 0) {  // 2^32 resets: clear so stale stamps cannot alias
      std::fill(lw_gen_.begin(), lw_gen_.end(), 0u);
      ++fills_;
      gen_ = 1;
    }
  }

  void begin_iteration(long iter) noexcept { iter_ = iter; }

  void on_read(std::size_t idx) {
    if (lw_gen_[idx] == gen_ && lw_iter_[idx] == iter_) return;  // covered
    ++marks_;
    marker_.mark_exposed_read(iter_, idx);
  }

  void on_write(std::size_t idx) {
    lw_gen_[idx] = gen_;
    lw_iter_[idx] = iter_;
    ++marks_;
    marker_.mark_write(iter_, idx);
  }

  long iteration() const noexcept { return iter_; }
  unsigned vpn() const noexcept { return vpn_; }

  /// Marks forwarded to the shadow since the last reset() — the measured
  /// per-run instrumentation tax the cost model consumes (ExecReport::
  /// shadow_marks, LoopStatistics::marks_per_iteration).
  long marks() const noexcept { return marks_; }

  /// O(n) fills performed over the accessor's lifetime (1 = construction
  /// only; the allocation-regression tests assert resets never add more).
  long fills() const noexcept { return fills_; }

 private:
  Shadow* shadow_;
  typename Shadow::Marker marker_;
  unsigned vpn_ = 0;
  long iter_ = -1;
  long marks_ = 0;
  long fills_ = 1;  ///< the construction-time zero-fill below
  std::uint32_t gen_ = 1;
  std::vector<long> lw_iter_;
  std::vector<std::uint32_t> lw_gen_;
};

using PDPrivateAccessor = PDAccessorT<PDPrivateShadow>;

/// The PD marking state of one speculation target: the privatized shadow
/// plus one accessor per worker.  Every target (SpecArray, SparseSpecArray,
/// AdaptiveSpecArray, PrivatizedSpecArray) holds one and forwards its
/// body-side accesses here.  With `on` = false the accesses are statically
/// analyzable: the accessors (and their O(n) last-writer tables) are never
/// built and every mark is a predictable no-op.
class PDMarks {
 public:
  PDMarks(std::size_t n, unsigned workers, bool on)
      : on_(on), shadow_(n, workers) {
    if (!on_) return;
    accessors_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      accessors_.emplace_back(shadow_, n, w);
  }

  bool on() const noexcept { return on_; }

  void begin_iteration(unsigned vpn, long iter) noexcept {
    if (on_) accessors_[vpn].begin_iteration(iter);
  }
  void on_read(unsigned vpn, std::size_t idx) {
    if (on_) accessors_[vpn].on_read(idx);
  }
  void on_write(unsigned vpn, std::size_t idx) {
    if (on_) accessors_[vpn].on_write(idx);
  }

  /// O(1): the shadow's epoch bump, then every accessor's (in that order,
  /// so the markers re-snapshot the new epoch).
  void reset() noexcept {
    shadow_.reset();
    for (auto& a : accessors_) a.reset();
  }

  /// Marks recorded since the last reset() (0 when off).
  long marks() const noexcept {
    long m = 0;
    for (const auto& a : accessors_) m += a.marks();
    return m;
  }

  PDVerdict analyze(ThreadPool& pool, long trip) const {
    return shadow_.analyze(pool, trip);
  }

  /// Verdict-cache signatures (wlp::pdcache): a no-op when off.
  void enable_signatures(bool on) noexcept {
    if (on_) shadow_.enable_signatures(on);
  }
  /// Fold the per-worker access summaries into `*out`; false when off or
  /// signatures are disabled (the caller then runs the full analysis).
  bool access_summary(PDAccessSummary* out) const noexcept {
    if (!on_ || !shadow_.signatures_enabled()) return false;
    *out = shadow_.access_summary();
    return true;
  }

 private:
  bool on_;
  PDPrivateShadow shadow_;
  std::vector<PDPrivateAccessor> accessors_;
};

}  // namespace wlp
