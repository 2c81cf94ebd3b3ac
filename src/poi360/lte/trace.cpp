#include "poi360/lte/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace poi360::lte {

void CapacityTrace::add(SimTime t, Bitrate capacity_bps) {
  if (!times_.empty() && t <= times_.back()) {
    throw std::invalid_argument("trace times must be strictly increasing");
  }
  if (times_.empty() && t != 0) {
    throw std::invalid_argument("trace must start at t = 0");
  }
  if (capacity_bps < 0.0) {
    throw std::invalid_argument("negative capacity");
  }
  times_.push_back(t);
  capacities_.push_back(capacity_bps);
}

SimDuration CapacityTrace::duration() const {
  if (times_.empty()) return 0;
  if (times_.size() == 1) return msec(1);
  // Assume the final sample lasts as long as the median step (== the
  // uniform step for recorded traces).
  const SimDuration step = times_[1] - times_[0];
  return times_.back() + step;
}

Bitrate CapacityTrace::at(SimTime t) const {
  if (times_.empty()) throw std::logic_error("empty trace");
  const SimDuration period = duration();
  SimTime wrapped = t % period;
  if (wrapped < 0) wrapped += period;
  // Last sample with time <= wrapped.
  const auto it =
      std::upper_bound(times_.begin(), times_.end(), wrapped);
  const auto idx = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(0, it - times_.begin() - 1));
  return capacities_[idx];
}

namespace {

// Strips surrounding spaces/tabs and a trailing CR (Windows line endings).
std::string_view strip(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void row_error(int row, std::string_view line,
                            const std::string& what) {
  throw std::invalid_argument("trace CSV row " + std::to_string(row) +
                              " (\"" + std::string(line) + "\"): " + what);
}

// Parses the whole field or dies — std::stoll-style prefix parsing would
// silently accept "12garbage" as 12.
template <typename T>
T parse_field(std::string_view field, int row, std::string_view line,
              const char* name) {
  const std::string_view f = strip(field);
  T value{};
  const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), value);
  if (ec != std::errc{} || ptr != f.data() + f.size() || f.empty()) {
    row_error(row, line, std::string("unparsable ") + name);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) row_error(row, line, std::string(name) + " not finite");
  }
  return value;
}

}  // namespace

CapacityTrace CapacityTrace::from_csv(const std::string& csv) {
  CapacityTrace trace;
  std::istringstream in(csv);
  std::string raw;
  int row = 0;
  bool first_content = true;
  while (std::getline(in, raw)) {
    ++row;
    const std::string_view line = strip(raw);
    if (line.empty()) continue;  // blank / whitespace-only rows are padding
    if (first_content) {
      first_content = false;
      if (line.rfind("time_us", 0) == 0) continue;  // skip header row
    }
    const auto comma = line.find(',');
    if (comma == std::string_view::npos ||
        line.find(',', comma + 1) != std::string_view::npos) {
      row_error(row, line, "expected exactly two comma-separated fields");
    }
    const auto t = parse_field<SimTime>(line.substr(0, comma), row, line,
                                        "time_us");
    const auto c = parse_field<double>(line.substr(comma + 1), row, line,
                                       "capacity_bps");
    try {
      trace.add(t, c);
    } catch (const std::invalid_argument& e) {
      // add() rejects non-monotonic times / negative capacity; keep its
      // message but point at the offending row.
      row_error(row, line, e.what());
    }
  }
  if (trace.size() == 0) {
    throw std::invalid_argument("trace CSV contains no data rows");
  }
  return trace;
}

}  // namespace poi360::lte
