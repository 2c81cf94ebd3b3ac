#include "replay.h"

#include <algorithm>
#include <chrono>

#include "poi360/core/adaptive_compression.h"
#include "poi360/core/fbcc.h"
#include "poi360/gcc/gcc.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/lte/uplink.h"
#include "poi360/rtp/pacer.h"
#include "poi360/rtp/receiver.h"
#include "poi360/sim/simulator.h"
#include "poi360/video/compression.h"
#include "poi360/video/encoder.h"
#include "poi360/video/quality.h"

namespace e2ebench {

using namespace poi360;
using Clock = std::chrono::steady_clock;

namespace {

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// One timed item: a byte count released at a simulated time.
struct Timed {
  SimTime at = 0;
  std::int64_t bytes = 0;
  std::int64_t frame = 0;
  int fragment = 0;
  int fragments = 1;
};

/// Splits every frame into its fragments, spread evenly over [from, to].
template <typename From, typename To>
std::vector<Timed> spread(const ReplayInputs& in, From from, To to) {
  std::vector<Timed> out;
  for (std::size_t k = 0; k < in.frames.size(); ++k) {
    const ReplayInputs::Frame& f = in.frames[k];
    const SimTime a = from(f);
    const SimTime b = to(f);
    if (a < 0 || b < a) continue;
    const int n = std::max(1, f.fragments);
    const std::int64_t per = std::max<std::int64_t>(1, f.bytes / n);
    for (int i = 0; i < n; ++i) {
      const SimTime at = n == 1 ? b : a + (b - a) * i / (n - 1);
      out.push_back(Timed{at, per, static_cast<std::int64_t>(k), i, n});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Timed& x, const Timed& y) { return x.at < y.at; });
  return out;
}

struct Counter {
  std::int64_t* n;
  void operator()() const { ++*n; }
};

}  // namespace

ReplayCost replay_sim(const core::SessionConfig& config, const ReplayInputs& in) {
  const auto t0 = Clock::now();
  sim::Simulator sim;
  std::int64_t fired = 0;
  const SimDuration frame = sec(1) / std::max(1, config.encoder.fps);
  const SimDuration lanes[][2] = {
      {config.uplink.subframe, config.uplink.subframe},
      {config.uplink.diag_interval, config.uplink.diag_interval},
      {msec(5), frame},
      {msec(5) + frame / 2, frame},
      {sec(1), sec(1)},
      {msec(5), msec(5)},  // pacer tick
      {config.receiver.nack_retry, config.receiver.nack_retry},
      {config.feedback_guard.check_period, config.feedback_guard.check_period},
      {msec(20), msec(20)},  // FBCC watchdog
  };
  for (const auto& lane : lanes) {
    sim.schedule_periodic(lane[0], lane[1], Counter{&fired});
  }
  // One-shots at the recorded times: hand-to-pacer per frame, core-link
  // delivery per packet, display per assembled frame.
  std::vector<SimTime> shots;
  for (const ReplayInputs::Frame& f : in.frames) {
    shots.push_back(f.encode_end);
    if (f.assemble_end >= 0) shots.push_back(f.assemble_end + config.render_delay);
  }
  for (const Timed& p : spread(in, [](const auto& f) { return f.phy_begin; },
                               [](const auto& f) { return f.pace_end; })) {
    shots.push_back(p.at + config.core_delay);
  }
  std::sort(shots.begin(), shots.end());
  std::size_t next = 0;
  // Feeder: arm the one-shots due within the next millisecond.
  sim.schedule_periodic(0, msec(1), [&]() {
    const SimTime horizon = sim.now() + msec(1);
    for (; next < shots.size() && shots[next] < horizon; ++next) {
      sim.schedule_at(std::max(shots[next], sim.now()), Counter{&fired});
    }
  });
  sim.run_until(in.duration);
  const std::int64_t events = fired + in.duration / msec(1);
  return {ns_since(t0), events, events};
}

ReplayCost replay_lte(const core::SessionConfig& config, const ReplayInputs& in) {
  struct Packet {
    std::int64_t bytes = 0;
  };
  const auto t0 = Clock::now();
  sim::Simulator sim;
  std::int64_t drained = 0;
  lte::LteUplink<Packet> uplink(sim, config.channel, config.uplink, config.seed,
                                [&](Packet, SimTime) { ++drained; });
  std::int64_t subframes = 0;
  uplink.set_subframe_probe(
      [&](SimTime, std::int64_t, std::int64_t) { ++subframes; });
  uplink.set_diag_sink([](const lte::DiagReport&) {});
  const std::vector<Timed> arrivals =
      spread(in, [](const auto& f) { return f.phy_begin; },
             [](const auto& f) { return f.pace_end; });
  std::size_t next = 0;
  sim.schedule_periodic(0, msec(1), [&]() {
    for (; next < arrivals.size() && arrivals[next].at <= sim.now(); ++next) {
      uplink.push(Packet{arrivals[next].bytes});
    }
  });
  uplink.start();
  sim.run_until(in.duration);
  const std::int64_t events =
      subframes + in.duration / config.uplink.diag_interval + in.duration / msec(1);
  return {ns_since(t0), subframes, events};
}

ReplayCost replay_share(const std::vector<const ReplayInputs*>& inputs, int ues,
                        int extra_ues) {
  ReplayCost cost;
  if (inputs.empty() || ues <= 0) return cost;
  const auto t0 = Clock::now();
  // Any fixed seed: the background on/off users only shape the shares.
  lte::SharedCell cell(lte::SharedCell::Config{}, 1);
  std::vector<int> ids;
  for (int u = 0; u < ues; ++u) ids.push_back(cell.register_ue(1.0));
  for (int u = 0; u < extra_ues; ++u) {
    cell.report_demand(cell.register_ue(0.5), u % 2);
  }
  std::vector<std::size_t> cursor(static_cast<std::size_t>(ues), 0);
  const SimDuration duration = inputs.front()->duration;
  double sink = 0.0;
  std::int64_t calls = 0;
  for (SimTime t = msec(1); t <= duration; t += msec(1)) {
    if (t % msec(100) == 0) {
      cell.commit_demand();
      cell.trim(t - msec(100));
    }
    for (int u = 0; u < ues; ++u) {
      const auto& rates = inputs[static_cast<std::size_t>(u) % inputs.size()]->rates;
      std::size_t& c = cursor[static_cast<std::size_t>(u)];
      while (c + 1 < rates.size() && rates[c + 1].time <= t) ++c;
      cell.report_demand(ids[static_cast<std::size_t>(u)],
                         rates.empty() ? 0 : rates[c].fw_buffer_bytes);
      sink += cell.share(ids[static_cast<std::size_t>(u)], t);
      ++calls;
    }
  }
  cost.host_ns = ns_since(t0);
  cost.work = calls + (sink < 0.0 ? 1 : 0);
  return cost;
}

ReplayCost replay_pacer(const core::SessionConfig& config, const ReplayInputs& in) {
  const auto t0 = Clock::now();
  sim::Simulator sim;
  std::int64_t sent = 0;
  rtp::Pacer pacer(sim, config.initial_rate, [&](rtp::RtpPacket) { ++sent; });
  const std::vector<Timed> packets =
      spread(in, [](const auto& f) { return f.encode_end; },
             [](const auto& f) { return f.encode_end; });
  std::size_t next = 0;
  std::size_t rate = 0;
  std::int64_t seq = 0;
  sim.schedule_periodic(0, msec(1), [&]() {
    const SimTime now = sim.now();
    while (rate < in.rates.size() && in.rates[rate].time <= now) {
      pacer.set_rate(in.rates[rate++].rtp_rate);
    }
    for (; next < packets.size() && packets[next].at <= now; ++next) {
      const Timed& p = packets[next];
      pacer.enqueue(rtp::RtpPacket{.seq = seq++,
                                   .frame_id = p.frame,
                                   .fragment = p.fragment,
                                   .fragments = p.fragments,
                                   .bytes = p.bytes});
    }
  });
  pacer.start();
  sim.run_until(in.duration);
  const std::int64_t ticks = in.duration / msec(5);
  return {ns_since(t0), ticks, ticks + in.duration / msec(1)};
}

ReplayCost replay_receiver(const core::SessionConfig& config,
                           const ReplayInputs& in) {
  sim::Simulator sim;
  std::int64_t completed = 0;
  rtp::RtpReceiver receiver(
      sim, config.receiver,
      [&](const rtp::RtpReceiver::CompletedFrame&) { ++completed; },
      [](const std::vector<std::int64_t>&) {});
  const std::vector<Timed> packets =
      spread(in, [](const auto& f) { return f.assemble_end < 0 ? -1 : f.assemble_begin; },
             [](const auto& f) { return f.assemble_end; });
  std::size_t next = 0;
  std::int64_t seq = 0;
  double host = 0.0;
  sim.schedule_periodic(0, msec(1), [&]() {
    const SimTime now = sim.now();
    const auto t0 = Clock::now();
    for (; next < packets.size() && packets[next].at <= now; ++next) {
      const Timed& p = packets[next];
      receiver.on_packet(rtp::RtpPacket{.seq = seq++,
                                        .frame_id = p.frame,
                                        .fragment = p.fragment,
                                        .fragments = p.fragments,
                                        .bytes = p.bytes,
                                        .capture_time = 0,
                                        .send_time = now},
                         now);
    }
    host += ns_since(t0);
  });
  receiver.start();
  sim.run_until(in.duration);
  return {host, static_cast<std::int64_t>(packets.size()), 0};
}

ReplayCost replay_gcc(const core::SessionConfig& config, const ReplayInputs& in,
                      std::int64_t min_calls) {
  ReplayCost cost;
  if (in.rates.empty()) return cost;
  const auto t0 = Clock::now();
  gcc::GccSender sender(config.initial_rate, config.gcc_loss);
  double sink = 0.0;
  for (SimTime offset = 0; cost.work < min_calls; offset += in.duration) {
    for (std::size_t k = 0; k < in.rates.size(); ++k) {
      const metrics::RateSample& s = in.rates[k];
      sink += sender.on_feedback(gcc::GccFeedback{
          .delay_based_rate = s.video_rate,
          .loss_fraction = (k % 50 == 0) ? 0.02 : 0.0,
          .incoming_rate = s.rphy,
          .sent_at = offset + s.time,
      });
      ++cost.work;
    }
  }
  cost.host_ns = ns_since(t0);
  if (sink < 0.0) ++cost.work;
  return cost;
}

ReplayCost replay_fbcc(const core::SessionConfig& config, const ReplayInputs& in,
                       std::int64_t min_calls) {
  ReplayCost cost;
  if (in.rates.empty()) return cost;
  const auto t0 = Clock::now();
  core::FbccController fbcc(config.initial_rate, config.fbcc);
  const SimDuration interval = config.uplink.diag_interval;
  double sink = 0.0;
  for (SimTime offset = 0; cost.work < min_calls; offset += in.duration) {
    for (const metrics::RateSample& s : in.rates) {
      const lte::DiagReport report{
          .time = offset + s.time,
          .buffer_bytes = s.fw_buffer_bytes,
          .tbs_bytes = static_cast<std::int64_t>(s.rphy * to_seconds(interval) / 8.0),
          .interval = interval,
      };
      fbcc.on_diag(report, report.time);
      sink += fbcc.rtp_rate();
      ++cost.work;
    }
  }
  cost.host_ns = ns_since(t0);
  if (sink < 0.0) ++cost.work;
  return cost;
}

VideoCost replay_video(const core::SessionConfig& config, const ReplayInputs& in) {
  VideoCost cost;
  const video::TileGrid grid(config.grid_cols, config.grid_rows,
                             config.frame_width_px, config.frame_height_px);
  const core::AdaptiveCompressionController adaptive(config.adaptive);
  video::ModeMatrixCache cache(grid);
  for (int m = 1; m <= config.adaptive.num_modes; ++m) {
    cache.add_mode(m, adaptive.table().mode(m));
  }
  video::PanoramicEncoder encoder(grid, config.encoder);
  std::vector<video::EncodedFrame> frames;
  frames.reserve(in.frames.size());
  const int modes = config.adaptive.num_modes;
  auto t0 = Clock::now();
  for (const ReplayInputs::Frame& f : in.frames) {
    const int mode = std::clamp(f.mode, 1, modes);
    const video::TileIndex roi{std::clamp(f.roi_i, 0, grid.cols() - 1),
                               std::clamp(f.roi_j, 0, grid.rows() - 1)};
    frames.push_back(encoder.encode(f.encode_end, roi, mode,
                                    cache.matrix(mode, roi), f.rv_bps));
  }
  cost.encode = {ns_since(t0), static_cast<std::int64_t>(frames.size()), 0};
  double sink = 0.0;
  t0 = Clock::now();
  for (const video::EncodedFrame& f : frames) {
    sink += video::roi_region_psnr(config.quality, grid, *f.levels, f.sender_roi,
                                   f.bpp);
  }
  cost.psnr = {ns_since(t0), static_cast<std::int64_t>(frames.size()) + (sink < 0 ? 1 : 0),
               0};
  return cost;
}

}  // namespace e2ebench
