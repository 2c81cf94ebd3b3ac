#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"

// Statistics helpers shared by controllers, metrics collection and the
// benchmark harnesses (CDFs, PDFs, windowed deviations).

namespace poi360 {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average.
///
/// FBCC's long-term buffer-level threshold Γ(t) in Eq. 3 is "the long-term
/// average buffer level [that] keeps being updated online" — an EWMA.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  void reset() { initialized_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Collects raw samples and answers distribution queries (CDF, percentiles).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// p in [0, 1]; linear interpolation between order statistics.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }

  /// Empirical CDF value at x: fraction of samples <= x.
  double cdf_at(double x) const;

  /// Fraction of samples strictly above x.
  double fraction_above(double x) const { return 1.0 - cdf_at(x); }

  /// Evenly spaced (value, cdf) points suitable for plotting `bins+1` rows.
  std::vector<std::pair<double, double>> cdf_points(int bins) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Standard deviation over a sliding time window of (time, value) samples.
///
/// The paper characterizes short-term ROI quality stability as "the standard
/// deviation of the ROI compression level in a 2 second sliding window"
/// (Fig. 12); this is that window.
class SlidingWindowStats {
 public:
  explicit SlidingWindowStats(SimDuration window) : window_(window) {}

  void add(SimTime t, double value);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;

 private:
  void evict(SimTime now);

  SimDuration window_;
  Fifo<std::pair<SimTime, double>> samples_;
};

}  // namespace poi360
