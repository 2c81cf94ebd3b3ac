#include "poi360/obs/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace poi360::obs {

namespace {

// Prometheus metric-name charset: [a-zA-Z0-9_:].
std::string prom_name(const std::string& prefix, const std::string& name) {
  std::string out = prefix + "_" + name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

// Label-name charset is the metric charset minus ':'.
std::string prom_label_name(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

// Label values escape backslash, double-quote and newline.
std::string prom_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text escapes backslash and newline (quotes are legal there).
std::string prom_help_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// `{k1="v1",k2="v2"}` for the series' canonical label set; empty labels
// render as the bare name. `extra` appends a pre-rendered pair (`le` for
// bucket rows) after the series labels.
std::string label_block(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prom_label_name(k) + "=\"" + prom_label_value(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

std::string canonical_label_key(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

BucketHistogram::BucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "BucketHistogram bounds must be sorted ascending and unique");
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void BucketHistogram::observe(double v) {
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

std::int64_t BucketHistogram::cumulative(std::size_t i) const {
  std::int64_t total = 0;
  for (std::size_t b = 0; b <= i && b < counts_.size(); ++b) {
    total += counts_[b];
  }
  return total;
}

std::vector<double> BucketHistogram::latency_ms_bounds() {
  return {10, 25, 50, 100, 200, 400, 600, 1000, 2000};
}

std::vector<double> BucketHistogram::ratio_bounds() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75};
}

template <typename M, typename Make>
M& MetricsRegistry::find_or_add(FamilyMap<M>& families,
                                const std::string& name, const Labels& labels,
                                const Make& make) {
  std::string key = canonical_label_key(labels);
  if (const auto fit = families.find(name); fit != families.end()) {
    const auto sit = fit->second.find(key);
    if (sit != fit->second.end()) return sit->second.metric;
  }
  // Built before anything is inserted, so a throwing `make` registers
  // nothing.
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  Series<M> series{std::move(sorted), make()};
  return families[name]
      .emplace(std::move(key), std::move(series))
      .first->second.metric;
}

template <typename M>
const M* MetricsRegistry::find_in(const FamilyMap<M>& families,
                                  const std::string& name,
                                  const Labels& labels) {
  const auto fit = families.find(name);
  if (fit == families.end()) return nullptr;
  const auto sit = fit->second.find(canonical_label_key(labels));
  return sit != fit->second.end() ? &sit->second.metric : nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return find_or_add(counters_, name, labels, [] { return Counter{}; });
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return find_or_add(gauges_, name, labels, [] { return Gauge{}; });
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  return find_or_add(histograms_, name, labels, [] { return Histogram{}; });
}

BucketHistogram& MetricsRegistry::bucket_histogram(
    const std::string& name, const std::vector<double>& upper_bounds,
    const Labels& labels) {
  return find_or_add(buckets_, name, labels,
                     [&] { return BucketHistogram(upper_bounds); });
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const Labels& labels) const {
  return find_in(counters_, name, labels);
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name,
                                         const Labels& labels) const {
  return find_in(gauges_, name, labels);
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  return find_in(histograms_, name, labels);
}

const BucketHistogram* MetricsRegistry::find_bucket_histogram(
    const std::string& name, const Labels& labels) const {
  return find_in(buckets_, name, labels);
}

namespace {

std::string series_name(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

// Calls emit(name, series) for every series of every family, name-ordered;
// a family's flat series (empty key) comes first.
template <typename Families, typename Emit>
void for_each_series(const Families& families, const Emit& emit) {
  for (const auto& [name, family] : families) {
    for (const auto& [key, s] : family) emit(name, s);
  }
}

// Copies every series of `src` into `dst`, replacing the one `dst` has
// under the same (name, label key) in place.
template <typename Families>
void overwrite_families(Families& dst, const Families& src) {
  for (const auto& [name, family] : src) {
    auto& into = dst[name];
    for (const auto& [key, s] : family) into.insert_or_assign(key, s);
  }
}

}  // namespace

std::vector<MetricsRegistry::Entry> MetricsRegistry::snapshot() const {
  std::vector<Entry> out;
  for_each_series(counters_, [&](const std::string& name, const auto& s) {
    out.push_back({series_name(name, s.labels), "counter",
                   static_cast<double>(s.metric.value())});
  });
  for_each_series(gauges_, [&](const std::string& name, const auto& s) {
    out.push_back({series_name(name, s.labels), "gauge", s.metric.value()});
  });
  for_each_series(histograms_, [&](const std::string& name, const auto& s) {
    const std::string n = series_name(name, s.labels);
    const Histogram& h = s.metric;
    out.push_back({n + ".count", "histogram", static_cast<double>(h.count())});
    out.push_back({n + ".mean", "histogram", h.mean()});
    out.push_back({n + ".min", "histogram", h.min()});
    out.push_back({n + ".max", "histogram", h.max()});
  });
  for_each_series(buckets_, [&](const std::string& name, const auto& s) {
    const std::string n = series_name(name, s.labels);
    const BucketHistogram& b = s.metric;
    out.push_back({n + ".count", "buckets", static_cast<double>(b.count())});
    out.push_back({n + ".sum", "buckets", b.sum()});
    for (std::size_t i = 0; i < b.bounds().size(); ++i) {
      out.push_back({n + ".le_" + prom_value(b.bounds()[i]), "buckets",
                     static_cast<double>(b.cumulative(i))});
    }
  });
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::overwrite_from(const MetricsRegistry& other) {
  overwrite_families(counters_, other.counters_);
  overwrite_families(gauges_, other.gauges_);
  overwrite_families(histograms_, other.histograms_);
  overwrite_families(buckets_, other.buckets_);
  for (const auto& [name, help] : other.help_) {
    help_[name] = help;
  }
}

std::string MetricsRegistry::prometheus_text(const std::string& prefix) const {
  std::string out;

  // One `# HELP` (when set) and `# TYPE` header per family, then
  // series(n, family) renders its samples.
  const auto each_family = [&](const auto& families, const char* type,
                               const auto& series) {
    for (const auto& [name, family] : families) {
      const std::string n = prom_name(prefix, name);
      const auto it = help_.find(name);
      if (it != help_.end()) {
        out += "# HELP " + n + " " + prom_help_text(it->second) + "\n";
      }
      out += "# TYPE " + n + " " + type + "\n";
      series(n, family);
    }
  };

  each_family(counters_, "counter", [&](const std::string& n, const auto& f) {
    for (const auto& [key, s] : f) {
      out += n + label_block(s.labels) + " " +
             std::to_string(s.metric.value()) + "\n";
    }
  });

  each_family(gauges_, "gauge", [&](const std::string& n, const auto& f) {
    for (const auto& [key, s] : f) {
      out += n + label_block(s.labels) + " " + prom_value(s.metric.value()) +
             "\n";
    }
  });

  // Moment histograms keep the historical summary + _min/_max gauge shape.
  each_family(histograms_, "summary", [&](const std::string& n,
                                          const auto& f) {
    for (const auto& [key, s] : f) {
      const std::string lb = label_block(s.labels);
      out += n + "_count" + lb + " " + std::to_string(s.metric.count()) + "\n";
      out += n + "_sum" + lb + " " + prom_value(s.metric.sum()) + "\n";
    }
    out += "# TYPE " + n + "_min gauge\n";
    for (const auto& [key, s] : f) {
      out += n + "_min" + label_block(s.labels) + " " +
             prom_value(s.metric.min()) + "\n";
    }
    out += "# TYPE " + n + "_max gauge\n";
    for (const auto& [key, s] : f) {
      out += n + "_max" + label_block(s.labels) + " " +
             prom_value(s.metric.max()) + "\n";
    }
  });

  each_family(buckets_, "histogram", [&](const std::string& n,
                                         const auto& f) {
    for (const auto& [key, s] : f) {
      const BucketHistogram& b = s.metric;
      std::int64_t running = 0;
      for (std::size_t i = 0; i < b.bounds().size(); ++i) {
        running += b.bucket_counts()[i];
        out += n + "_bucket" +
               label_block(s.labels,
                           "le=\"" + prom_value(b.bounds()[i]) + "\"") +
               " " + std::to_string(running) + "\n";
      }
      out += n + "_bucket" + label_block(s.labels, "le=\"+Inf\"") + " " +
             std::to_string(b.count()) + "\n";
      out += n + "_sum" + label_block(s.labels) + " " + prom_value(b.sum()) +
             "\n";
      out += n + "_count" + label_block(s.labels) + " " +
             std::to_string(b.count()) + "\n";
    }
  });

  return out;
}

}  // namespace poi360::obs
