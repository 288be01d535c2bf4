#include "wlp/pd/verdict_cache.hpp"

#include <new>

#include "wlp/obs/obs.hpp"
#include "wlp/support/prng.hpp"

namespace wlp::pdcache {

namespace {

// Tag layout: (epoch << 32) | (key's low 32 bits & ~3) | state.
// state 0b01 = claimed (payload being written), 0b11 = ready.  A tag whose
// high half is not the current epoch reads as free regardless of history —
// that is the whole invalidation scheme.
constexpr std::uint64_t kClaimed = 1;
constexpr std::uint64_t kReady = 3;
constexpr std::uint64_t kStateMask = 3;

std::uint64_t tag_of(std::uint32_t epoch, std::uint64_t key,
                     std::uint64_t state) noexcept {
  return (static_cast<std::uint64_t>(epoch) << 32) |
         (key & 0xFFFFFFFCull) | state;
}

}  // namespace

struct VerdictCache::Slot {
  std::atomic<std::uint64_t> tag{0};
  // Payload: relaxed atomics ordered by the tag's release/acquire pair.
  // The verdict flags are derived from the PD counts on read, so the slot
  // stores only the counts.
  std::atomic<std::uint64_t> key{0};
  std::atomic<std::uint64_t> check{0};
  std::atomic<long> written{0};
  std::atomic<long> multi_written{0};
  std::atomic<long> exposed{0};
  std::atomic<long> conflicts{0};
};

StrideClass classify_stride(long marks, std::size_t min_idx,
                            std::size_t max_idx) noexcept {
  if (marks <= 0 || min_idx > max_idx) return StrideClass::kEmpty;
  const std::size_t span = max_idx - min_idx + 1;
  const auto m = static_cast<std::size_t>(marks);
  if (m >= span) return StrideClass::kDense;
  if (m * 8 >= span) return StrideClass::kStrided;
  return StrideClass::kSparse;
}

AccessSignature make_signature(const PDAccessSummary& sum, long base,
                               long rel_trip, long dirty_blocks) noexcept {
  // Rebase the moment hashes from absolute iterations to strip-relative
  // ones.  Exact mod 2^64:  Σ m·(t−b+1)   = h1 − b·h0
  //                         Σ m·(t−b+1)²  = h2 − 2b·h1 + b²·h0
  const auto b = static_cast<std::uint64_t>(base);
  const std::uint64_t w1 = sum.w_h1 - b * sum.w_h0;
  const std::uint64_t w2 = sum.w_h2 - 2 * b * sum.w_h1 + b * b * sum.w_h0;
  const std::uint64_t r1 = sum.r_h1 - b * sum.r_h0;
  const std::uint64_t r2 = sum.r_h2 - 2 * b * sum.r_h1 + b * b * sum.r_h0;

  const bool empty = sum.marks() == 0;
  const std::uint64_t lo = empty ? 0 : sum.min_idx;
  const std::uint64_t hi = empty ? 0 : sum.max_idx;
  const StrideClass stride = classify_stride(sum.marks(), sum.min_idx,
                                             empty ? 0 : sum.max_idx);

  const std::uint64_t fields[] = {
      sum.w_h0,
      w1,
      w2,
      sum.r_h0,
      r1,
      r2,
      static_cast<std::uint64_t>(sum.writes),
      static_cast<std::uint64_t>(sum.exposed_reads),
      lo,
      hi,
      static_cast<std::uint64_t>(rel_trip),
      static_cast<std::uint64_t>(dirty_blocks),
      static_cast<std::uint64_t>(stride),
  };

  AccessSignature sig;
  sig.stride = stride;
  // Two independent mix chains: each step is a bijection of the running
  // state xor'd with the field, so the pair behaves as one 128-bit
  // fingerprint of the field tuple.
  std::uint64_t k = 0x7470791D97F4A7C5ull;
  std::uint64_t c = 0xA24BAED4963EE407ull;
  for (const std::uint64_t f : fields) {
    k = mix64(k ^ f);
    c = mix64(c ^ (f * 0x9E3779B97F4A7C15ull + 0x165667B19E3779F9ull));
  }
  sig.key = k;
  sig.check = c;
  return sig;
}

VerdictCache::VerdictCache(std::size_t capacity) {
  cap_ = 1;
  while (cap_ < capacity) cap_ <<= 1;
  arena_ = &mem::local_arena();
  slots_ = arena_->allocate_array<Slot>(cap_);
  for (std::size_t i = 0; i < cap_; ++i) new (&slots_[i]) Slot();
  // EpochClock starts above 0 and slot tags start at 0, so every slot
  // reads as free without a fill pass (the placement-new above zeroes the
  // tags; arena blocks are recycled, not OS-zeroed).
  epoch_cur_.store(clock_.value(), std::memory_order_release);
  WLP_OBS_GAUGE_SET("wlp.pd.cache.bytes", static_cast<long>(memory_bytes()));
}

VerdictCache::~VerdictCache() {
  if (slots_ != nullptr) arena_->deallocate_array(slots_, cap_);
}

bool VerdictCache::lookup(const AccessSignature& sig, Verdict* out) noexcept {
  const std::uint32_t ep = epoch_cur_.load(std::memory_order_acquire);
  const std::uint64_t want = tag_of(ep, sig.key, kReady);
  const std::size_t mask = cap_ - 1;
  const std::size_t home = (sig.key >> 32) & mask;
  for (int p = 0; p < kMaxProbes; ++p) {
    Slot& s = slots_[(home + p) & mask];
    const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
    if ((tag >> 32) != ep) break;  // free slot terminates the probe chain
    if ((tag | kStateMask) != (want | kStateMask)) continue;  // other key
    if ((tag & kStateMask) != kReady) break;  // our key, mid-insert: miss
    // Tag bits match under the current epoch: verify the full fingerprint.
    // A reader racing a recycle of this slot sees either our payload or a
    // later insert's — the 128-bit compare rejects the latter (a false
    // accept is the same 2^-128 class the signature itself relies on).
    if (s.key.load(std::memory_order_relaxed) == sig.key &&
        s.check.load(std::memory_order_relaxed) == sig.check) {
      PDVerdict pd;
      pd.written_elements = s.written.load(std::memory_order_relaxed);
      pd.multi_written = s.multi_written.load(std::memory_order_relaxed);
      pd.exposed_read_elements = s.exposed.load(std::memory_order_relaxed);
      pd.conflicts = s.conflicts.load(std::memory_order_relaxed);
      *out = Verdict::from(pd);
      hits_.fetch_add(1, std::memory_order_relaxed);
      WLP_OBS_COUNT("wlp.pd.cache.hits", 1);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  WLP_OBS_COUNT("wlp.pd.cache.misses", 1);
  return false;
}

void VerdictCache::insert(const AccessSignature& sig,
                          const Verdict& v) noexcept {
  const std::uint32_t ep = epoch_cur_.load(std::memory_order_acquire);
  const std::uint64_t claimed = tag_of(ep, sig.key, kClaimed);
  const std::uint64_t ready = tag_of(ep, sig.key, kReady);
  const std::size_t mask = cap_ - 1;
  const std::size_t home = (sig.key >> 32) & mask;
  for (int p = 0; p < kMaxProbes; ++p) {
    Slot& s = slots_[(home + p) & mask];
    std::uint64_t tag = s.tag.load(std::memory_order_acquire);
    if ((tag >> 32) == ep) {
      // Live this epoch.  A ready slot with our tag bits and fingerprint is
      // a concurrent duplicate insert — done either way.
      if (tag == ready && s.key.load(std::memory_order_relaxed) == sig.key &&
          s.check.load(std::memory_order_relaxed) == sig.check)
        return;
      continue;
    }
    // Stale: claim it.  Losing the race just moves us to the next probe.
    if (s.tag.compare_exchange_strong(tag, claimed,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      s.key.store(sig.key, std::memory_order_relaxed);
      s.check.store(sig.check, std::memory_order_relaxed);
      s.written.store(v.pd.written_elements, std::memory_order_relaxed);
      s.multi_written.store(v.pd.multi_written, std::memory_order_relaxed);
      s.exposed.store(v.pd.exposed_read_elements, std::memory_order_relaxed);
      s.conflicts.store(v.pd.conflicts, std::memory_order_relaxed);
      s.tag.store(ready, std::memory_order_release);
      return;
    }
  }
  // Every probe slot is live with other keys: drop the insert (lossy by
  // design — see header).
}

void VerdictCache::invalidate_all() noexcept {
  while (clock_mu_.test_and_set(std::memory_order_acquire)) {
  }
  clock_.bump([this] { sweep_tags(); });
  epoch_cur_.store(clock_.value(), std::memory_order_release);
  clock_mu_.clear(std::memory_order_release);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  WLP_OBS_COUNT("wlp.pd.cache.invalidations", 1);
}

void VerdictCache::jump_epoch_for_test(std::uint32_t e) noexcept {
  while (clock_mu_.test_and_set(std::memory_order_acquire)) {
  }
  clock_.jump(e, [this] { sweep_tags(); });
  epoch_cur_.store(clock_.value(), std::memory_order_release);
  clock_mu_.clear(std::memory_order_release);
}

void VerdictCache::sweep_tags() noexcept {
  // Once per 2^32 invalidations: unstamp every slot so no survivor can
  // alias the restarted epoch counter.  Quiescent with respect to inserts
  // (same contract as the HashBackup / PD shadow wrap sweeps).
  for (std::size_t i = 0; i < cap_; ++i)
    slots_[i].tag.store(0, std::memory_order_relaxed);
}

CacheStats VerdictCache::stats() const noexcept {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.bytes = memory_bytes();
  return s;
}

std::size_t VerdictCache::memory_bytes() const noexcept {
  return cap_ * sizeof(Slot);
}

PDVerdict analyze_with_cache(VerdictCache* cache, const SpecTarget& target,
                             ThreadPool& pool, long base, long trip,
                             bool* hit) {
  if (hit != nullptr) *hit = false;
  PDAccessSummary sum;
  if (cache == nullptr || !target.access_summary(&sum))
    return target.analyze(pool, trip);
  const AccessSignature sig =
      make_signature(sum, base, trip - base, target.dirty_block_count());
  Verdict cached;
  if (cache->lookup(sig, &cached)) {
    if (hit != nullptr) *hit = true;
    return cached.pd;
  }
  const PDVerdict v = target.analyze(pool, trip);
  cache->insert(sig, Verdict::from(v));
  return v;
}

}  // namespace wlp::pdcache
