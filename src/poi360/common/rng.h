#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace poi360 {

/// MT19937-64 with the C++ standard's seeding, recurrence and tempering, so
/// its output is bit-identical to `std::mt19937_64` for every seed. The
/// block refill selects the twist constant with a mask, `(0 - (y & 1)) & a`,
/// instead of a conditional on the low bit, so the refill loop has no
/// data-dependent branch, and tempers the whole block into a second array,
/// so a draw is one load.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (index_ >= kN) refill();
    return out_[index_++];
  }

  /// Advances the state as if `z` values had been drawn.
  void discard(unsigned long long z) {
    while (z > 0) {
      if (index_ >= kN) refill();
      const std::size_t step =
          z < kN - index_ ? static_cast<std::size_t>(z) : kN - index_;
      index_ += step;
      z -= step;
    }
  }

  /// Equal engines produce the same stream. The tempered block is left out:
  /// it is a function of the state once filled, and zero before the first
  /// draw fills it.
  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    return a.index_ == b.index_ && a.state_ == b.state_;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr std::uint64_t kUpperMask = ~0ull << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;

  static std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                             std::uint64_t far) {
    const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  void refill() {
    std::size_t i = 0;
    for (; i < kN - kM; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (; i < kN - 1; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    for (i = 0; i < kN; ++i) out_[i] = temper(state_[i]);
    index_ = 0;
  }

  static std::uint64_t temper(std::uint64_t y) {
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= y >> 43;
    return y;
  }

  std::array<std::uint64_t, kN> state_;
  std::array<std::uint64_t, kN> out_{};  // tempered state_ after a refill
  std::size_t index_ = kN;
};

/// Deterministic random source used across the simulator.
///
/// Every stochastic component takes an explicit Rng (or a seed) so that each
/// experiment run is exactly reproducible, and so that independent components
/// can use decorrelated streams (see `fork`).
///
/// The engine is `Mt19937_64` above, whose output sequence the C++ standard
/// fixes bit for bit (as `std::mt19937_64`). The distributions are
/// implemented here rather than taken from `<random>`, whose algorithms are
/// implementation-defined, so a seed yields the same stream on every
/// standard library. The remaining platform dependence is libm: `normal` and
/// `exponential` call `log`/`log1p`, which are not required to be correctly
/// rounded.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi); 53 random bits from one engine draw.
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive. Unbiased: draws below
  /// 2^64 mod n are rejected so every residue is equally likely.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span == std::numeric_limits<std::uint64_t>::max()) {
      return static_cast<std::int64_t>(engine_());
    }
    const std::uint64_t n = span + 1;
    const std::uint64_t reject_below = (0 - n) % n;  // 2^64 mod n
    std::uint64_t x = engine_();
    while (x < reject_below) x = engine_();
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + x % n);
  }

  /// Gaussian with the given mean and standard deviation (Marsaglia polar
  /// method). Each accepted pair yields two deviates; the second is kept and
  /// returned by the next call, so a normal costs half a log/sqrt on average.
  double normal(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = 2.0 * uniform01() - 1.0;
      v = 2.0 * uniform01() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    has_spare_ = true;
    return mean + stddev * (u * f);
  }

  /// Exponential with the given mean (mean must be > 0), by inversion.
  double exponential(double mean) { return -mean * std::log1p(-uniform01()); }

  /// True with probability p; p <= 0 and p >= 1 consume no draw.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Derives an independent stream; deterministic in (engine state, salt).
  /// A pending normal spare stays with the parent: the child starts fresh.
  Rng fork(std::uint64_t salt) {
    // SplitMix64 finalizer over a fresh draw keeps forks decorrelated even
    // for adjacent salts.
    std::uint64_t x = engine_() + salt * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return Rng(x);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  /// Uniform double in [0, 1): the top 53 bits of one engine draw.
  double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  Mt19937_64 engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace poi360
