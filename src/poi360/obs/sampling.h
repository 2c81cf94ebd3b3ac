#pragma once

#include <cstddef>
#include <cstdint>

// Deterministic budget-based trace sampling. Fleet runs hold thousands of
// sessions; keeping a TraceRecorder per session would multiply memory
// by orders of magnitude. The sampler makes a pure per-session keep/drop
// decision from the session's derived seed (callers pass
// `runner::derive_seed(run_seed, session_id)` xor'd with kTraceSampleSalt so
// the decision stream is decorrelated from the session's own RNG), plus a
// live-recorder budget so memory stays bounded no matter the keep fraction.
// Decisions are independent of --jobs, wall clock, and arrival order;
// sampled-out sessions are counted exactly.

namespace poi360::obs {

/// Salt xor'd into the derived seed before hashing so the sampling decision
/// never correlates with any seed-consuming code in the session itself.
inline constexpr std::uint64_t kTraceSampleSalt = 0x5452414345ull;  // "TRACE"

struct TraceSampleConfig {
  /// Fraction of sessions whose traces are kept, in [0, 1].
  double keep_fraction = 1.0;
  /// Maximum concurrently live sampled recorders; <= 0 means unlimited.
  int max_concurrent = 16;
  /// Event bound of each sampled session's recorder.
  std::size_t event_capacity = 1 << 14;
};

/// SplitMix64 finalizer — the same mixer Rng::fork uses; full-avalanche, so
/// consecutive derived seeds give independent decisions.
inline std::uint64_t trace_sample_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class TraceSampler {
 public:
  TraceSampler() = default;
  explicit TraceSampler(const TraceSampleConfig& config) : config_(config) {}

  /// Pure keep/drop decision — no state, no allocation; the hot path.
  bool keeps(std::uint64_t derived_seed) const {
    if (config_.keep_fraction >= 1.0) return true;
    if (config_.keep_fraction <= 0.0) return false;
    const double u = static_cast<double>(
                         trace_sample_mix(derived_seed ^ kTraceSampleSalt) >>
                         11) *
                     0x1.0p-53;
    return u < config_.keep_fraction;
  }

  /// Admission-time decision with the concurrency budget applied. Callers
  /// pair every true return with a release() when the session closes.
  bool admit(std::uint64_t derived_seed) {
    ++decisions_;
    if (!keeps(derived_seed)) {
      ++sampled_out_;
      return false;
    }
    if (config_.max_concurrent > 0 && live_ >= config_.max_concurrent) {
      ++budget_rejected_;
      return false;
    }
    ++live_;
    ++kept_;
    return true;
  }

  void release() {
    if (live_ > 0) --live_;
  }

  std::int64_t decisions() const { return decisions_; }
  std::int64_t kept() const { return kept_; }
  std::int64_t sampled_out() const { return sampled_out_; }
  std::int64_t budget_rejected() const { return budget_rejected_; }
  int live() const { return live_; }
  const TraceSampleConfig& config() const { return config_; }

 private:
  TraceSampleConfig config_{};
  std::int64_t decisions_ = 0;
  std::int64_t kept_ = 0;
  std::int64_t sampled_out_ = 0;
  std::int64_t budget_rejected_ = 0;
  int live_ = 0;
};

}  // namespace poi360::obs
