#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

// Named-metric registry: counters, gauges, moment histograms and fixed-
// boundary bucket histograms that subsystems register into instead of
// growing ad-hoc accumulator structs. Registration returns a stable
// reference (std::map nodes never move), so hot paths increment through a
// cached pointer and never re-hash the name.
//
// Every name is a *family* holding one series per label set:
// counter("fleet.freeze_ratio", {{"cell","3"},{"rung","fbcc"}}) is one of
// the per-entity (per-UE / per-cell) series the fleet and soak drivers expose
// for live scraping, and counter("serve.arrivals") — the empty label set — is
// the family's flat series. Label sets are canonicalized (sorted by label
// name), so registration order never creates duplicate series.

namespace poi360::obs {

/// One metric's label set: (label name, label value) pairs. Order does not
/// matter — the registry canonicalizes by label name.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical series key of a label set (sorted by label name, '\x1f'
/// separated). The empty label set maps to the empty key, which is the flat
/// series of the family.
std::string canonical_label_key(const Labels& labels);

class Counter {
 public:
  void inc(std::int64_t n = 1) { value_ += n; }
  void set(std::int64_t v) { value_ = v; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Moment histogram: count/sum/min/max only. O(1) ingestion, no
/// bucket-boundary tuning; enough for the delay/size distributions the
/// result tables report.
class Histogram {
 public:
  void observe(double v) {
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-boundary bucket histogram (the Prometheus `le` kind): per-bucket
/// counts over sorted upper bounds plus an implicit terminal +Inf bucket,
/// so freeze/mismatch/delay distributions are scrapeable as real
/// quantile-capable histograms. Boundaries are fixed at registration.
class BucketHistogram {
 public:
  /// `upper_bounds` are sorted ascending and deduplicated; +Inf is implicit
  /// and must not be passed.
  explicit BucketHistogram(std::vector<double> upper_bounds);

  void observe(double v);
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Finite upper bounds; the terminal +Inf bucket is implicit.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the last
  /// entry being the +Inf bucket.
  const std::vector<std::int64_t>& bucket_counts() const { return counts_; }
  /// Cumulative count through bucket `i` (the `le` sample value).
  std::int64_t cumulative(std::size_t i) const;

  /// Stock boundary sets.
  static std::vector<double> latency_ms_bounds();  ///< 10..2000 ms
  static std::vector<double> ratio_bounds();       ///< 0.01..0.75

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1 (+Inf last)
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Registers (or finds) the series of `name` with the given label set and
  /// returns a stable reference. The empty label set is the family's flat
  /// series.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});
  /// Registers (or finds) a bucket histogram. The boundaries apply on first
  /// registration; later calls for the same series ignore `upper_bounds`.
  /// Invalid boundaries throw and register nothing.
  BucketHistogram& bucket_histogram(const std::string& name,
                                    const std::vector<double>& upper_bounds,
                                    const Labels& labels = {});

  const Counter* find_counter(const std::string& name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(const std::string& name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name,
                                  const Labels& labels = {}) const;
  const BucketHistogram* find_bucket_histogram(
      const std::string& name, const Labels& labels = {}) const;

  /// HELP text emitted for the family in the Prometheus exposition.
  void set_help(const std::string& name, std::string help) {
    help_[name] = std::move(help);
  }

  /// Counter value, or 0 when the counter was never registered — the reader
  /// used to reassemble the robustness structs.
  std::int64_t counter_value(const std::string& name,
                             const Labels& labels = {}) const {
    const Counter* c = find_counter(name, labels);
    return c ? c->value() : 0;
  }
  double gauge_value(const std::string& name, const Labels& labels = {}) const {
    const Gauge* g = find_gauge(name, labels);
    return g ? g->value() : 0.0;
  }

  struct Entry {
    /// Flat name, or `name{k="v",...}` for labeled series.
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram" | "buckets"
    double value;
  };
  /// Flat, name-sorted view; moment histograms expand to
  /// .count/.mean/.min/.max, bucket histograms to .count/.sum plus one
  /// cumulative .le_<bound> row per bucket.
  std::vector<Entry> snapshot() const;

  /// Idempotent publish: every series `other` carries *replaces* the same
  /// series here (counters/gauges set, histograms copy). Re-publishing the
  /// same source is a no-op — the fleet cells use this so concurrent
  /// per-cell publishes into one master registry never double-count.
  void overwrite_from(const MetricsRegistry& other);

  /// Prometheus text exposition (v0.0.4) of the whole registry: counters
  /// and gauges as their native types, moment histograms as a summary
  /// (`_count`/`_sum`) plus `_min`/`_max` gauges, bucket histograms as the
  /// native histogram type (`_bucket{le=...}` cumulative, `+Inf` terminal,
  /// `_sum`/`_count`). Metric names are `<prefix>_<name>` with every
  /// character outside [a-zA-Z0-9_:] mapped to '_'; label names are
  /// sanitized to [a-zA-Z0-9_], label values escape `\`, `"` and newline;
  /// families carry one `# HELP` (when set via set_help) and one `# TYPE`
  /// line each. Deterministic: families and series are name-ordered.
  std::string prometheus_text(const std::string& prefix = "poi360") const;

 private:
  template <typename M>
  struct Series {
    Labels labels;  ///< canonical (name-sorted) order
    M metric;
  };
  /// name -> canonical label key -> series; the flat series of a family is
  /// its empty-key entry, which std::map orders first. Inner map nodes are
  /// stable, so references returned by the registration calls never dangle.
  template <typename M>
  using FamilyMap = std::map<std::string, std::map<std::string, Series<M>>>;

  template <typename M, typename Make>
  static M& find_or_add(FamilyMap<M>& families, const std::string& name,
                        const Labels& labels, const Make& make);
  template <typename M>
  static const M* find_in(const FamilyMap<M>& families,
                          const std::string& name, const Labels& labels);

  FamilyMap<Counter> counters_;
  FamilyMap<Gauge> gauges_;
  FamilyMap<Histogram> histograms_;
  FamilyMap<BucketHistogram> buckets_;
  std::map<std::string, std::string> help_;
};

}  // namespace poi360::obs
