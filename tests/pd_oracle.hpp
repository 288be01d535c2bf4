// The PD test's reference store: one dense cell per element, shared by all
// workers, each holding the two smallest distinct writer and exposed-reader
// iterations under a striped spinlock.  This is the Section 5.1 shadow
// array taken literally.  The tests check PDMarks (wlp/core/shadow.hpp)
// against it and bench_micro_pd times the two side by side; nothing in the
// library uses it.
//
// Two marking surfaces:
//   * raw marks — mark_write / mark_exposed_read(iter, idx) record exactly
//     what they are told, from any thread;
//   * PDMarks' surface — begin_iteration / on_read / on_write(vpn, ...),
//     with a dense per-worker last-writer table deciding which reads are
//     covered by a write of the same iteration.  One thread per vpn.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <vector>

#include "wlp/core/shadow.hpp"
#include "wlp/sched/reduce.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {

class PDSharedShadow {
 public:
  explicit PDSharedShadow(std::size_t n, unsigned workers = 1)
      : cells_(n), workers_(workers == 0 ? 1 : workers) {
    for (Worker& w : workers_) w.last_write.assign(n, kNone);
  }

  PDSharedShadow(const PDSharedShadow&) = delete;
  PDSharedShadow& operator=(const PDSharedShadow&) = delete;

  std::size_t size() const noexcept { return cells_.size(); }

  // ---- raw marks --------------------------------------------------------

  void mark_write(long iter, std::size_t idx) noexcept {
    insert(cells_[idx].w, iter, idx);
  }
  void mark_exposed_read(long iter, std::size_t idx) noexcept {
    insert(cells_[idx].r, iter, idx);
  }
  void mark_write(unsigned /*vpn*/, long iter, std::size_t idx) noexcept {
    mark_write(iter, idx);
  }
  void mark_exposed_read(unsigned /*vpn*/, long iter, std::size_t idx) noexcept {
    mark_exposed_read(iter, idx);
  }

  // ---- PDMarks' surface -------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) noexcept {
    workers_[vpn].iter = iter;
  }
  void on_read(unsigned vpn, std::size_t idx) noexcept {
    Worker& w = workers_[vpn];
    if (w.last_write[idx] == w.iter) return;  // covered
    ++w.marks;
    mark_exposed_read(w.iter, idx);
  }
  void on_write(unsigned vpn, std::size_t idx) noexcept {
    Worker& w = workers_[vpn];
    w.last_write[idx] = w.iter;
    ++w.marks;
    mark_write(w.iter, idx);
  }
  long marks() const noexcept {
    long m = 0;
    for (const Worker& w : workers_) m += w.marks;
    return m;
  }

  /// O(n): every cell and every last-writer table.
  void reset() noexcept {
    for (Cell& c : cells_) {
      c.w.lo.store(kNone, std::memory_order_relaxed);
      c.w.hi.store(kNone, std::memory_order_relaxed);
      c.r.lo.store(kNone, std::memory_order_relaxed);
      c.r.hi.store(kNone, std::memory_order_relaxed);
    }
    for (Worker& w : workers_) {
      std::fill(w.last_write.begin(), w.last_write.end(), kNone);
      w.iter = kNone;
      w.marks = 0;
    }
  }

  // ---- analysis ---------------------------------------------------------

  PDVerdict analyze(ThreadPool& pool, long trip) const {
    return parallel_reduce(
        pool, 0, static_cast<long>(cells_.size()), PDVerdict{},
        [&](long i) { return verdict(cells_[static_cast<std::size_t>(i)], trip); },
        [](PDVerdict a, const PDVerdict& b) { return a.merge(b); });
  }
  PDVerdict analyze_seq(long trip) const {
    PDVerdict v;
    for (const Cell& c : cells_) v.merge(verdict(c, trip));
    return v;
  }

  /// Cell contents, -1 = none.
  long first_writer(std::size_t idx) const noexcept { return load(cells_[idx].w.lo); }
  long second_writer(std::size_t idx) const noexcept { return load(cells_[idx].w.hi); }
  long first_exposed_reader(std::size_t idx) const noexcept {
    return load(cells_[idx].r.lo);
  }
  long second_exposed_reader(std::size_t idx) const noexcept {
    return load(cells_[idx].r.hi);
  }

 private:
  static constexpr long kNone = -1;
  static constexpr std::size_t kStripes = 1024;

  struct TwoSmallest {
    std::atomic<long> lo{kNone};
    std::atomic<long> hi{kNone};
  };
  struct Cell {
    TwoSmallest w;  ///< writer iterations
    TwoSmallest r;  ///< exposed-read iterations
  };
  struct Worker {
    std::vector<long> last_write;  ///< iteration of each element's last write
    long iter = kNone;
    long marks = 0;
  };

  static long load(const std::atomic<long>& a) noexcept {
    return a.load(std::memory_order_relaxed);
  }

  void insert(TwoSmallest& set, long iter, std::size_t idx) noexcept {
    // Fast path: already recorded, or provably not among the two smallest.
    // Once both slots are full, any later (larger) iteration bails on two
    // loads — the monotone-`hi` early exit the stress tests race.
    const long lo = set.lo.load(std::memory_order_acquire);
    if (lo == iter) return;
    const long hi = set.hi.load(std::memory_order_acquire);
    if (hi == iter) return;
    if (lo != kNone && hi != kNone && iter > hi) return;

    std::atomic_flag& f = locks_[mix64(idx) & (kStripes - 1)];
    while (f.test_and_set(std::memory_order_acquire)) {
    }
    long a = set.lo.load(std::memory_order_relaxed);
    long b = set.hi.load(std::memory_order_relaxed);
    if (iter != a && iter != b) {
      if (a == kNone) {
        a = iter;
      } else if (iter < a) {
        b = a;
        a = iter;
      } else if (b == kNone || iter < b) {
        b = iter;
      }
      set.lo.store(a, std::memory_order_relaxed);
      set.hi.store(b, std::memory_order_relaxed);
    }
    f.clear(std::memory_order_release);
  }

  static PDVerdict verdict(const Cell& c, long trip) noexcept {
    const long w0 = load(c.w.lo), w1 = load(c.w.hi);
    const long r0 = load(c.r.lo), r1 = load(c.r.hi);
    const bool written = w0 != kNone && w0 < trip;
    const bool multi_w = w1 != kNone && w1 < trip;
    const bool exposed = r0 != kNone && r0 < trip;
    const bool multi_r = r1 != kNone && r1 < trip;
    PDVerdict v;
    v.written_elements = written ? 1 : 0;
    v.multi_written = multi_w ? 1 : 0;
    v.exposed_read_elements = exposed ? 1 : 0;
    v.conflicts = (written && exposed && (multi_w || multi_r || w0 != r0)) ? 1 : 0;
    return v;
  }

  std::vector<Cell> cells_;
  std::vector<Worker> workers_;
  mutable std::array<std::atomic_flag, kStripes> locks_{};
};

}  // namespace wlp
