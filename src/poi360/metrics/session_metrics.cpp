#include "poi360/metrics/session_metrics.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace poi360::metrics {

namespace {

std::string fmt(const char* format, ...) {
  char buf[64];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

// The historical --csv formats, column by column. %lld/%.Nf specifiers are
// frozen here: golden CSVs diff byte-for-byte across PRs.
const FrameColumn kFrameColumns[] = {
    {"frame_id",
     [](const FrameRecord& f) {
       return fmt("%lld", static_cast<long long>(f.frame_id));
     }},
    {"capture_us",
     [](const FrameRecord& f) {
       return fmt("%lld", static_cast<long long>(f.capture_time));
     }},
    {"display_us",
     [](const FrameRecord& f) {
       return fmt("%lld", static_cast<long long>(f.display_time));
     }},
    {"delay_ms",
     [](const FrameRecord& f) { return fmt("%.1f", to_millis(f.delay)); }},
    {"roi_level",
     [](const FrameRecord& f) { return fmt("%.3f", f.roi_level); }},
    {"psnr_db",
     [](const FrameRecord& f) { return fmt("%.2f", f.roi_psnr_db); }},
    {"mos", [](const FrameRecord& f) { return video::to_string(f.mos); }},
    {"mode_id", [](const FrameRecord& f) { return fmt("%d", f.mode_id); }},
    {"mismatch",
     [](const FrameRecord& f) { return fmt("%d", f.roi_mismatch ? 1 : 0); }},
};

const RateColumn kRateColumns[] = {
    {"time_us",
     [](const RateSample& s) {
       return fmt("%lld", static_cast<long long>(s.time));
     }},
    {"video_rate_bps",
     [](const RateSample& s) { return fmt("%.0f", s.video_rate); }},
    {"rtp_rate_bps",
     [](const RateSample& s) { return fmt("%.0f", s.rtp_rate); }},
    {"fw_buffer_bytes",
     [](const RateSample& s) {
       return fmt("%lld", static_cast<long long>(s.fw_buffer_bytes));
     }},
    {"app_buffer_bytes",
     [](const RateSample& s) {
       return fmt("%lld", static_cast<long long>(s.app_buffer_bytes));
     }},
    {"rphy_bps", [](const RateSample& s) { return fmt("%.0f", s.rphy); }},
    {"congested",
     [](const RateSample& s) { return fmt("%d", s.congested ? 1 : 0); }},
    {"degraded",
     [](const RateSample& s) { return fmt("%d", s.fbcc_degraded ? 1 : 0); }},
};

template <typename Column>
std::string join_names(std::span<const Column> columns) {
  std::string out;
  for (const Column& c : columns) {
    if (!out.empty()) out += ",";
    out += c.name;
  }
  return out;
}

template <typename Column, typename Row>
std::string join_values(std::span<const Column> columns, const Row& row) {
  std::string out;
  for (const Column& c : columns) {
    if (!out.empty()) out += ",";
    out += c.value(row);
  }
  return out;
}

}  // namespace

std::span<const FrameColumn> frame_csv_columns() { return kFrameColumns; }
std::span<const RateColumn> rate_csv_columns() { return kRateColumns; }

std::string frame_csv_header() { return join_names(frame_csv_columns()); }
std::string frame_csv_row(const FrameRecord& f) {
  return join_values(frame_csv_columns(), f);
}
std::string rate_csv_header() { return join_names(rate_csv_columns()); }
std::string rate_csv_row(const RateSample& s) {
  return join_values(rate_csv_columns(), s);
}

void SessionMetrics::set_diag_robustness(const DiagRobustness& r) {
  registry_.counter("diag.fallback_episodes").set(r.fallback_episodes);
  registry_.counter("diag.degraded_time_us").set(r.degraded_time);
  registry_.counter("diag.rejected_reports").set(r.rejected_reports);
}

void SessionMetrics::set_transport_robustness(const TransportRobustness& r) {
  registry_.counter("transport.frames_abandoned").set(r.frames_abandoned);
  registry_.counter("transport.assembly_evictions").set(r.assembly_evictions);
  registry_.counter("transport.nack_give_ups").set(r.nack_give_ups);
  registry_.counter("transport.nack_evictions").set(r.nack_evictions);
  registry_.counter("transport.invalid_packets").set(r.invalid_packets);
  registry_.counter("transport.stale_packets").set(r.stale_packets);
  registry_.counter("transport.keyframe_requests").set(r.keyframe_requests);
  registry_.counter("transport.sender_frames_dropped")
      .set(r.sender_frames_dropped);
  registry_.counter("transport.feedback_stale_episodes")
      .set(r.feedback_stale_episodes);
  registry_.counter("transport.feedback_stale_time_us")
      .set(r.feedback_stale_time);
}

DiagRobustness SessionMetrics::diag_robustness() const {
  return DiagRobustness{
      .fallback_episodes = registry_.counter_value("diag.fallback_episodes"),
      .degraded_time = registry_.counter_value("diag.degraded_time_us"),
      .rejected_reports = registry_.counter_value("diag.rejected_reports"),
  };
}

TransportRobustness SessionMetrics::transport_robustness() const {
  return TransportRobustness{
      .frames_abandoned = registry_.counter_value("transport.frames_abandoned"),
      .assembly_evictions =
          registry_.counter_value("transport.assembly_evictions"),
      .nack_give_ups = registry_.counter_value("transport.nack_give_ups"),
      .nack_evictions = registry_.counter_value("transport.nack_evictions"),
      .invalid_packets = registry_.counter_value("transport.invalid_packets"),
      .stale_packets = registry_.counter_value("transport.stale_packets"),
      .keyframe_requests =
          registry_.counter_value("transport.keyframe_requests"),
      .sender_frames_dropped =
          registry_.counter_value("transport.sender_frames_dropped"),
      .feedback_stale_episodes =
          registry_.counter_value("transport.feedback_stale_episodes"),
      .feedback_stale_time =
          registry_.counter_value("transport.feedback_stale_time_us"),
  };
}

double SessionMetrics::mean_roi_psnr() const {
  RunningStats s;
  for (const auto& f : frames_) s.add(f.roi_psnr_db);
  return s.mean();
}

double SessionMetrics::std_roi_psnr() const {
  RunningStats s;
  for (const auto& f : frames_) s.add(f.roi_psnr_db);
  return s.stddev();
}

std::vector<double> SessionMetrics::mos_pdf() const {
  std::vector<double> pdf(5, 0.0);
  if (frames_.empty()) return pdf;
  for (const auto& f : frames_) {
    pdf[static_cast<std::size_t>(f.mos)] += 1.0;
  }
  for (double& p : pdf) p /= static_cast<double>(frames_.size());
  return pdf;
}

double SessionMetrics::freeze_ratio(SimDuration threshold) const {
  // Frames the receiver abandoned (deadline or cap eviction) were captured
  // but never displayed: they count as frozen, exactly like sender skips.
  const std::int64_t lost =
      skipped_frames() +
      registry_.counter_value("transport.frames_abandoned") +
      registry_.counter_value("transport.assembly_evictions");
  const std::int64_t total =
      static_cast<std::int64_t>(frames_.size()) + lost;
  if (total == 0) return 0.0;
  std::int64_t frozen = lost;
  for (const auto& f : frames_) {
    if (f.delay > threshold) ++frozen;
  }
  return static_cast<double>(frozen) / static_cast<double>(total);
}

SampleSet SessionMetrics::frame_delays_ms() const {
  SampleSet s;
  for (const auto& f : frames_) s.add(to_millis(f.delay));
  return s;
}

SampleSet SessionMetrics::roi_level_variation(SimDuration window) const {
  SampleSet out;
  SlidingWindowStats w(window);
  for (const auto& f : frames_) {
    w.add(f.display_time, f.roi_level);
    out.add(w.stddev());
  }
  return out;
}

SampleSet SessionMetrics::buffer_levels_kb() const {
  SampleSet s;
  for (const auto& r : rate_samples_) {
    s.add(static_cast<double>(r.fw_buffer_bytes) / 1024.0);
  }
  return s;
}

double SessionMetrics::mean_throughput() const {
  RunningStats s;
  for (double r : throughput_bps_) s.add(r);
  return s.mean();
}

double SessionMetrics::std_throughput() const {
  RunningStats s;
  for (double r : throughput_bps_) s.add(r);
  return s.stddev();
}

double SessionMetrics::mean_video_rate() const {
  RunningStats s;
  for (const auto& r : rate_samples_) s.add(r.video_rate);
  return s.mean();
}

double SessionMetrics::std_video_rate() const {
  RunningStats s;
  for (const auto& r : rate_samples_) s.add(r.video_rate);
  return s.stddev();
}

double SessionMetrics::degraded_sample_fraction() const {
  if (rate_samples_.empty()) return 0.0;
  std::int64_t degraded = 0;
  for (const auto& r : rate_samples_) {
    if (r.fbcc_degraded) ++degraded;
  }
  return static_cast<double>(degraded) /
         static_cast<double>(rate_samples_.size());
}

SessionMetrics merge(std::span<const SessionMetrics* const> runs) {
  // Concatenate in run-id order (stable for ties) so the pooled result is
  // the same no matter which order a parallel runner delivered the inputs.
  std::vector<const SessionMetrics*> ordered(runs.begin(), runs.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SessionMetrics* a, const SessionMetrics* b) {
                     return a->run_id() < b->run_id();
                   });
  SessionMetrics all;
  DiagRobustness robustness;
  TransportRobustness transport;
  for (const SessionMetrics* run : ordered) {
    for (const auto& f : run->frames()) all.add_frame(f);
    for (const auto& r : run->rate_samples()) all.add_rate_sample(r);
    for (double t : run->throughput_samples()) all.add_throughput_second(t);
    all.skipped_frames_ += run->skipped_frames();
    const DiagRobustness dr = run->diag_robustness();
    robustness.fallback_episodes += dr.fallback_episodes;
    robustness.degraded_time += dr.degraded_time;
    robustness.rejected_reports += dr.rejected_reports;
    const TransportRobustness tr = run->transport_robustness();
    transport.frames_abandoned += tr.frames_abandoned;
    transport.assembly_evictions += tr.assembly_evictions;
    transport.nack_give_ups += tr.nack_give_ups;
    transport.nack_evictions += tr.nack_evictions;
    transport.invalid_packets += tr.invalid_packets;
    transport.stale_packets += tr.stale_packets;
    transport.keyframe_requests += tr.keyframe_requests;
    transport.sender_frames_dropped += tr.sender_frames_dropped;
    transport.feedback_stale_episodes += tr.feedback_stale_episodes;
    transport.feedback_stale_time += tr.feedback_stale_time;
  }
  all.set_diag_robustness(robustness);
  all.set_transport_robustness(transport);
  return all;
}

SessionMetrics merge(const std::vector<const SessionMetrics*>& runs) {
  return merge(std::span<const SessionMetrics* const>(runs));
}

}  // namespace poi360::metrics
