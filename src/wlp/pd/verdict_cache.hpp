// Cross-strip dependence-verdict cache (ROADMAP: "Batched PD verdicts
// across strips").
//
// The strip-mined speculative drivers re-run the full PD analysis — an
// O(n·segments) merge over the privatized shadow — on EVERY strip, even in
// steady state where the loop touches the same elements in the same
// relative iterations strip after strip.  This subsystem memoizes the
// verdict under a compact **access signature** so an unchanged pattern
// costs one O(workers) summary fold plus one table probe, and a changed
// one falls through to the full PD pass unchanged.
//
// Signature (see PDAccessSummary in core/shadow.hpp for the raw digest):
//   * per-array first/last touched index (min_idx / max_idx),
//   * a stride class derived from marks vs. touched span,
//   * write / exposed-read / total mark counts,
//   * write density (ceil(writes / 64) — VersionedArray log lengths or
//     the HashBackup occupancy, never a second sweep),
//   * the strip-relative trip (the analysis filters marks by trip, so the
//     verdict is only reusable at the same relative trip),
//   * two base-rebased moment hashes per mark kind binding WHICH iteration
//     touched WHICH element,
// all folded through mix64 into a 64-bit probe key plus an independently
// mixed 64-bit check word.
//
// Why a stale hit is impossible (the §11 correctness argument, short
// form): the PD verdict is a pure function of the multiset of
// (kind, element, iteration − base) marks and the relative trip.  The
// signature is a 128-bit universal-style fingerprint of exactly that
// multiset plus the trip — schedule-invariant (all components are
// commutative folds) and base-invariant (moment sums rebase exactly).  A
// cached verdict was produced by a full PD pass over a shadow state with
// the same fingerprint, so a hit returns the verdict the full pass would
// compute, modulo a 2^-128-class hash collision — the same class of
// "impossible" the HashBackup slot tags already rely on.  Invalidation
// (misspeculation, footprint flips) is therefore hygiene that bounds how
// long a never-recurring pattern occupies a slot, not a correctness
// requirement — which is also why a lookup racing an invalidation is
// benign.
//
// Table: open-addressed, power-of-two, arena-backed (mem::local_arena),
// epoch-stamped via the shared mem::EpochClock — invalidate_all() is an
// O(1) bump, stale slots read as free and are recycled in place, and the
// once-per-2^32 wrap sweeps the tags (the HashBackup / PD shadow
// pattern).  Concurrent strips may share one cache: lookups are wait-free
// tag reads, inserts claim a slot with one CAS and publish the payload
// with a release store.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "wlp/core/shadow.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/mem/epoch.hpp"

namespace wlp::pdcache {

/// Coarse shape of the touched index range, folded into the signature so
/// patterns with equal hashes but different layouts (possible only through
/// the counts, not the moments) still separate, and exposed for obs/tests.
enum class StrideClass : std::uint8_t {
  kEmpty = 0,    ///< no marks
  kDense = 1,    ///< marks >= touched span (every element hit)
  kStrided = 2,  ///< marks >= span/8 (regular gaps)
  kSparse = 3,   ///< anything thinner
};

StrideClass classify_stride(long marks, std::size_t min_idx,
                            std::size_t max_idx) noexcept;

/// A 128-bit fingerprint of one target's access pattern for one strip.
struct AccessSignature {
  std::uint64_t key = 0;    ///< probe hash (slot selection + tag bits)
  std::uint64_t check = 0;  ///< independently mixed verification word
  StrideClass stride = StrideClass::kEmpty;
};

/// Build the signature from a shadow's folded summary.  `base` is the
/// strip's first iteration (moment hashes are rebased so strip k of a
/// steady-state loop hashes equal to strip 0); `rel_trip` is the analysis
/// trip filter relative to the same base; `dirty_blocks` is the write
/// density (SpecTarget::dirty_block_count()).
AccessSignature make_signature(const PDAccessSummary& sum, long base,
                               long rel_trip, long dirty_blocks) noexcept;

/// The memoized outcome: the ISSUE's three-way classification plus the full
/// PD counts so drivers that consume them see no difference on a hit.
struct Verdict {
  bool independent = false;     ///< fully parallel as executed (DOALL-ready)
  bool doall_safe = false;      ///< parallel with privatization
  bool doacross_chain = false;  ///< cross-iteration conflicts: ordered only
  PDVerdict pd;

  static Verdict from(const PDVerdict& v) noexcept {
    Verdict out;
    out.independent = v.fully_parallel();
    out.doall_safe = v.parallel_with_privatization();
    out.doacross_chain = !out.doall_safe;
    out.pd = v;
    return out;
  }
};

/// Counter snapshot; deltas of these feed PlanExecution and the obs gauges.
struct CacheStats {
  long hits = 0;
  long misses = 0;
  long invalidations = 0;
  std::size_t bytes = 0;  ///< table footprint (slots; arena block)
};

class VerdictCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;  ///< slots (pow2)
  static constexpr int kMaxProbes = 8;

  explicit VerdictCache(std::size_t capacity = kDefaultCapacity);
  ~VerdictCache();
  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Probe for `sig`.  On a hit copies the memoized verdict into `*out`
  /// and returns true; counts a hit or a miss either way.  Wait-free: the
  /// payload lives in relaxed atomics ordered by the slot tag's
  /// release/acquire pair, so concurrent inserts and invalidations are
  /// safe (a reader racing a slot recycle re-verifies the 128-bit
  /// key/check before trusting the payload).
  bool lookup(const AccessSignature& sig, Verdict* out) noexcept;

  /// Memoize `sig -> v`.  Lossy by design: if every probe slot is live
  /// with other keys this epoch, the insert is dropped (steady-state loops
  /// have few distinct signatures; an adversarial churn of patterns gains
  /// nothing from eviction anyway).
  void insert(const AccessSignature& sig, const Verdict& v) noexcept;

  /// Drop every entry: O(1) epoch bump.  Called on misspeculation and on
  /// footprint_changed() flips.
  void invalidate_all() noexcept;

  CacheStats stats() const noexcept;
  std::size_t capacity() const noexcept { return cap_; }
  std::size_t memory_bytes() const noexcept;
  std::uint32_t epoch() const noexcept {
    return epoch_cur_.load(std::memory_order_acquire);
  }
  /// Tag sweeps performed (one per 2^32 invalidations).  Quiescent-only.
  long sweeps() const noexcept { return clock_.sweeps(); }

  /// Test hook: restart the epoch near the 32-bit wrap so a test can force
  /// the once-per-2^32 tag sweep and the recycled-slot path without 4G
  /// invalidations.
  void jump_epoch_for_test(std::uint32_t e) noexcept;

 private:
  struct Slot;

  Slot* slots_ = nullptr;
  mem::Arena* arena_ = nullptr;  ///< pinned so free pairs with alloc
  std::size_t cap_ = 0;
  // The shared EpochClock is not safe to bump concurrently, but two
  // drivers sharing one cache may both invalidate: a tiny spinlock guards
  // the clock and the current epoch is mirrored into an atomic the
  // lock-free probe paths read.
  mutable std::atomic_flag clock_mu_ = ATOMIC_FLAG_INIT;
  mem::EpochClock clock_;
  std::atomic<std::uint32_t> epoch_cur_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> invalidations_{0};

  void sweep_tags() noexcept;
};

/// The drivers' one-call integration point: probe the cache with the
/// target's summary-derived signature; on a hit return the memoized
/// verdict, on a miss (or when the target has no summary — not shadowed,
/// signatures disabled, cache == nullptr) run the full analysis
/// and memoize the result.  `base` is the strip's first iteration; `trip`
/// is the absolute trip the full analysis would filter by.  `*hit` reports
/// which path served the verdict.
PDVerdict analyze_with_cache(VerdictCache* cache, const SpecTarget& target,
                             ThreadPool& pool, long base, long trip,
                             bool* hit = nullptr);

}  // namespace wlp::pdcache
