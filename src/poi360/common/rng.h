#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace poi360 {

/// Deterministic random source used across the simulator.
///
/// Every stochastic component takes an explicit Rng (or a seed) so that each
/// experiment run is exactly reproducible, and so that independent components
/// can use decorrelated streams (see `fork`).
///
/// The engine is `std::mt19937_64`, whose output sequence the C++ standard
/// fixes bit for bit. The distributions are implemented here rather than
/// taken from `<random>`, whose algorithms are implementation-defined, so a
/// seed yields the same stream on every standard library. The remaining
/// platform dependence is libm: `normal` and `exponential` call `log`/`log1p`,
/// which are not required to be correctly rounded.
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

  std::mt19937_64& engine() { return engine_; }

 private:
  /// Uniform double in [0, 1): the top 53 bits of one engine draw.
  double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  std::mt19937_64 engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace poi360
