#include "poi360/common/stats.h"

#include <algorithm>
#include <cmath>

namespace poi360 {

void RunningStats::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::ensure_sorted() const {
  if (sorted_) return;
  auto& mut = const_cast<std::vector<double>&>(samples_);
  std::sort(mut.begin(), mut.end());
  sorted_ = true;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : samples_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(samples_.size()));
}

double SampleSet::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::cdf_points(int bins) const {
  std::vector<std::pair<double, double>> pts;
  if (samples_.empty() || bins <= 0) return pts;
  ensure_sorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  const double step = (hi - lo) / static_cast<double>(bins);
  pts.reserve(static_cast<std::size_t>(bins) + 1);
  for (int i = 0; i <= bins; ++i) {
    const double x = (step > 0.0) ? lo + step * i : lo;
    pts.emplace_back(x, cdf_at(x));
    if (step == 0.0) break;
  }
  return pts;
}

void SlidingWindowStats::add(SimTime t, double value) {
  samples_.push_back({t, value});
  evict(t);
}

void SlidingWindowStats::evict(SimTime now) {
  while (!samples_.empty() && samples_.front().first < now - window_) {
    samples_.pop_front();
  }
}

double SlidingWindowStats::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& [t, v] : samples_) s += v;
  return s / static_cast<double>(samples_.size());
}

double SlidingWindowStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const auto& [t, v] : samples_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(samples_.size()));
}

}  // namespace poi360
