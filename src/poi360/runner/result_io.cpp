#include "poi360/runner/result_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "poi360/common/units.h"

namespace poi360::runner {

namespace {

std::string num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The shared summary-row schema: (column, value) pairs for one run.
std::vector<std::pair<std::string, std::string>> summary_row(
    const RunResult& run) {
  std::vector<std::pair<std::string, std::string>> row;
  row.emplace_back("run_id", std::to_string(run.spec.run_id));
  for (const auto& [axis, label] : run.spec.params) {
    row.emplace_back(axis, label);
  }
  row.emplace_back("repeat", std::to_string(run.spec.repeat));
  row.emplace_back("seed", std::to_string(run.spec.seed));
  row.emplace_back("ok", run.ok ? "1" : "0");
  row.emplace_back("error", run.error);
  row.emplace_back("wall_s", num(run.wall_seconds, 3));
  const auto& m = run.metrics;
  const auto delays = m.frame_delays_ms();
  const auto mos = m.mos_pdf();
  row.emplace_back("frames", std::to_string(m.displayed_frames()));
  row.emplace_back("skipped", std::to_string(m.skipped_frames()));
  row.emplace_back("mean_psnr_db", num(m.mean_roi_psnr(), 3));
  row.emplace_back("std_psnr_db", num(m.std_roi_psnr(), 3));
  row.emplace_back("freeze_ratio", num(m.freeze_ratio(), 6));
  row.emplace_back("mean_thpt_mbps", num(to_mbps(m.mean_throughput()), 4));
  row.emplace_back("std_thpt_mbps", num(to_mbps(m.std_throughput()), 4));
  row.emplace_back("delay_p50_ms", num(delays.empty() ? 0.0 : delays.median(), 2));
  row.emplace_back("delay_p90_ms",
                   num(delays.empty() ? 0.0 : delays.percentile(0.9), 2));
  row.emplace_back("delay_p99_ms",
                   num(delays.empty() ? 0.0 : delays.percentile(0.99), 2));
  static const char* kMosNames[] = {"mos_bad", "mos_poor", "mos_fair",
                                    "mos_good", "mos_excellent"};
  for (std::size_t i = 0; i < 5; ++i) {
    row.emplace_back(kMosNames[i], num(i < mos.size() ? mos[i] : 0.0, 6));
  }
  row.emplace_back("degraded_frac", num(m.degraded_sample_fraction(), 6));
  return row;
}

bool is_numeric_column(const std::string& name) {
  // Everything except the identity/axis/error strings is emitted as a bare
  // JSON number (the values above are printed with fixed decimals).
  return name == "run_id" || name == "repeat" || name == "seed" ||
         name == "ok" || name == "wall_s" || name == "frames" ||
         name == "skipped" || name.rfind("mean_", 0) == 0 ||
         name.rfind("std_", 0) == 0 || name.rfind("delay_", 0) == 0 ||
         name.rfind("mos_", 0) == 0 || name == "freeze_ratio" ||
         name == "degraded_frac";
}

}  // namespace

std::string to_csv(const BatchResult& batch) {
  std::ostringstream out;
  bool header_done = false;
  for (const RunResult& run : batch.runs) {
    const auto row = summary_row(run);
    if (!header_done) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i) out << ',';
        out << csv_escape(row[i].first);
      }
      out << '\n';
      header_done = true;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << csv_escape(row[i].second);
    }
    out << '\n';
  }
  return out.str();
}

std::string to_json(const BatchResult& batch) {
  std::ostringstream out;
  out << "{\"experiment\":\"" << json_escape(batch.experiment)
      << "\",\"jobs\":" << batch.jobs << ",\"wall_s\":"
      << num(batch.wall_seconds, 3) << ",\"runs\":[";
  for (std::size_t r = 0; r < batch.runs.size(); ++r) {
    if (r) out << ',';
    out << '{';
    const auto row = summary_row(batch.runs[r]);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << '"' << json_escape(row[i].first) << "\":";
      if (is_numeric_column(row[i].first)) {
        out << (row[i].second.empty() ? "0" : row[i].second);
      } else {
        out << '"' << json_escape(row[i].second) << '"';
      }
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

namespace {
void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << content;
  if (!out) throw std::runtime_error("write failed: " + path);
}
}  // namespace

void write_csv(const std::string& path, const BatchResult& batch) {
  write_file(path, to_csv(batch));
}

void write_json(const std::string& path, const BatchResult& batch) {
  write_file(path, to_json(batch));
}

}  // namespace poi360::runner
