#include "poi360/lte/channel.h"

#include <algorithm>
#include <cmath>

namespace poi360::lte {

namespace {

struct RssAnchor {
  double rss_dbm;
  double capacity_mbps;
};

// Anchors chosen so that the strong-signal static experiments saturate near
// the 5.5 Mbps ceiling of the paper's Fig. 5, the weak-signal garage run
// still sustains a usable (low-quality) stream, and the highway route with
// -60 dBm RSS (§6.2) has capacity headroom.
constexpr RssAnchor kAnchors[] = {
    {-125.0, 0.6}, {-115.0, 1.6}, {-100.0, 2.6},
    {-82.0, 4.2},  {-73.0, 6.5},  {-60.0, 8.8},
};

}  // namespace

UplinkChannel::OuStep UplinkChannel::OuStep::over(double dt_s, double tau_s,
                                                  double stddev) {
  if (tau_s <= 0.0) return {};
  const double decay = std::exp(-dt_s / tau_s);
  return {decay, stddev * std::sqrt(1.0 - decay * decay)};
}

Bitrate capacity_for_rss(double rss_dbm) {
  constexpr std::size_t n = std::size(kAnchors);
  if (rss_dbm <= kAnchors[0].rss_dbm) return mbps(kAnchors[0].capacity_mbps);
  if (rss_dbm >= kAnchors[n - 1].rss_dbm) {
    return mbps(kAnchors[n - 1].capacity_mbps);
  }
  for (std::size_t k = 1; k < n; ++k) {
    if (rss_dbm <= kAnchors[k].rss_dbm) {
      const auto& a = kAnchors[k - 1];
      const auto& b = kAnchors[k];
      const double f = (rss_dbm - a.rss_dbm) / (b.rss_dbm - a.rss_dbm);
      return mbps(a.capacity_mbps + f * (b.capacity_mbps - a.capacity_mbps));
    }
  }
  return mbps(kAnchors[n - 1].capacity_mbps);
}

UplinkChannel::UplinkChannel(ChannelConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      base_capacity_(capacity_for_rss(config.rss_dbm)),
      load_(std::clamp(config.mean_cell_load, 0.0, 0.95)) {
  if (config_.explicit_users >= 0) {
    SharedCell::Config cell_config;
    cell_config.background.background_users = config_.explicit_users;
    cell_.emplace(cell_config, Rng(seed).fork(0xCE11).engine()());
  }
  // Doppler scales the fading rate: at 50 mph the channel decorrelates an
  // order of magnitude faster than at rest.
  fading_tau_eff_s_ =
      config_.fading_tau_s / (1.0 + config_.speed_mph / 6.0);
  outage_rate_per_min_ = config_.outage_per_min >= 0.0
                             ? config_.outage_per_min
                             : 0.35 + config_.speed_mph / 18.0;
  schedule_next_outage(0);
}

void UplinkChannel::schedule_next_outage(SimTime now) {
  if (outage_rate_per_min_ <= 0.0) {
    next_outage_at_ = -1;
    return;
  }
  const double mean_gap_s = 60.0 / outage_rate_per_min_;
  next_outage_at_ = now + sec_f(rng_.exponential(mean_gap_s));
}

Bitrate UplinkChannel::advance(SimTime now) {
  if (config_.capacity_trace && !config_.capacity_trace->empty()) {
    last_advance_ = now;
    return config_.capacity_trace->at(now);
  }
  const double dt_s =
      last_advance_ < 0 ? 1e-3 : to_seconds(now - last_advance_);
  last_advance_ = now;

  // Exact Ornstein-Uhlenbeck transitions for cell load and log-fading, so
  // the stationary mean and std do not depend on the step size. The abstract
  // load walk is skipped when the explicit background cell is active.
  if (dt_s != step_dt_s_) {
    step_dt_s_ = dt_s;
    load_step_ = OuStep::over(dt_s, config_.load_tau_s, config_.load_std);
    fading_step_ =
        OuStep::over(dt_s, fading_tau_eff_s_, config_.fading_std);
  }
  if (!cell_ && config_.load_tau_s > 0.0 && config_.load_std > 0.0) {
    load_ = std::clamp(load_step_.apply(load_ - config_.mean_cell_load, rng_) +
                           config_.mean_cell_load,
                       0.0, 0.95);
  }
  if (fading_tau_eff_s_ > 0.0 && config_.fading_std > 0.0) {
    log_fading_ = std::clamp(fading_step_.apply(log_fading_, rng_), -2.0, 1.0);
  }

  // Outage process (handover gaps / deep fades while driving).
  if (in_outage_ && now >= outage_until_) {
    in_outage_ = false;
    schedule_next_outage(now);
  }
  if (!in_outage_ && next_outage_at_ >= 0 && now >= next_outage_at_) {
    in_outage_ = true;
    const double dur_s =
        rng_.exponential(to_seconds(config_.outage_mean_duration));
    outage_until_ = now + std::max<SimDuration>(msec(50), sec_f(dur_s));
  }

  double cap = base_capacity_ * std::exp(log_fading_);
  if (cell_) {
    cap *= cell_->prospective_share(now);
    cell_->trim(now);  // queries are monotone: keep only the live segment
  } else {
    cap *= (1.0 - load_);
  }
  if (in_outage_) cap *= config_.outage_depth;
  return std::max(cap, 0.0);
}

}  // namespace poi360::lte
