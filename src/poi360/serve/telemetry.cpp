#include "poi360/serve/telemetry.h"

#include "poi360/obs/trace_export.h"

namespace poi360::serve {

TelemetryPlane::TelemetryPlane(const TelemetryConfig& config)
    : config_(config) {
  if (config_.metrics_port >= 0) {
    obs::MetricsHttpServer::Config sc;
    sc.port = config_.metrics_port;
    server_ = std::make_unique<obs::MetricsHttpServer>(sc);
  }
}

TelemetryPlane::~TelemetryPlane() = default;

void TelemetryPlane::publish(const obs::MetricsRegistry& src) {
  std::lock_guard<std::mutex> lock(mu_);
  master_.overwrite_from(src);
  if (server_) server_->publish(master_.prometheus_text());
}

void SessionSlo::reset(bool traced) {
  tracker_.reset();
  cursor_ = 0;
  displayed_ = 0;
  frozen_ = 0;
  mismatched_ = 0;
  over_delay_ = 0;
  lost_ = 0;
  delay_sum_ms_ = 0.0;
  traced_ = traced;
}

void SessionSlo::fold(const core::Session& session,
                      obs::BucketHistogram& delay_hist) {
  const auto& frames = session.metrics().frames();
  const SimDuration freeze_threshold = session.config().freeze_threshold;
  const SimDuration delay_target = tracker_.config().delay_target;
  for (; cursor_ < frames.size(); ++cursor_) {
    const metrics::FrameRecord& f = frames[cursor_];
    ++displayed_;
    if (f.delay > freeze_threshold) ++frozen_;
    if (f.roi_mismatch) ++mismatched_;
    if (f.delay > delay_target) ++over_delay_;
    const double delay_ms = to_millis(f.delay);
    delay_sum_ms_ += delay_ms;
    delay_hist.observe(delay_ms);
  }
}

obs::SloTransitions SessionSlo::observe(SimTime now, core::Session& session,
                                        std::int64_t id,
                                        obs::BucketHistogram& delay_hist) {
  fold(session, delay_hist);
  lost_ = session.lost_frames();
  obs::SloSample sample;
  sample.total = displayed_ + lost_;
  sample.frozen = frozen_ + lost_;
  sample.mismatched = mismatched_;
  sample.over_delay = over_delay_;
  return tracker_.observe(now, sample, traced_ ? session.trace() : nullptr,
                          id);
}

void write_session_trace(const std::string& dir, const runner::RunSpec& spec,
                         const core::Session& session,
                         const std::string& label) {
  if (const obs::TraceRecorder* trace = session.trace()) {
    obs::write_trace(dir + "/" + runner::trace_file_name(spec), *trace, label);
  }
}

}  // namespace poi360::serve
