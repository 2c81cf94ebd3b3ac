#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/lte/channel.h"
#include "poi360/lte/diag.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/lte/tbs.h"
#include "poi360/obs/trace.h"
#include "poi360/sim/simulator.h"

namespace poi360::lte {

/// Uplink scheduling and modem-buffer parameters.
struct UplinkConfig {
  /// Slope of the proportional-fair grant curve: the eNodeB serves a UE at
  /// R_phy = min(capacity, k · B_reported)  [bits/s per byte of backlog].
  /// 540 reproduces Fig. 5: saturation (~5.5 Mbps) near a 10 kB buffer.
  double grant_bps_per_byte = 540.0;

  /// Buffer-status-report latency: the grant at time t reflects the buffer
  /// level at t - bsr_delay (SR/BSR + scheduling round trip). Must be a
  /// multiple of the grant interval (`grant_period · subframe`), because the
  /// buffer is only sampled at grants; a zero delay reads the previous grant.
  SimDuration bsr_delay = msec(8);

  /// Probability a grant's transport block is not granted/decoded; the HARQ
  /// retransmission shows up as the grant simply not draining bytes.
  double bler = 0.03;

  /// The PF scheduler time-multiplexes UEs: this UE receives a grant every
  /// `grant_period` subframes, sized for the whole period. Service is
  /// therefore bursty at millisecond scale, which (together with the grant
  /// surges below) is what lets a buffer run dry under naive rate control
  /// (Fig. 6).
  int grant_period = 4;

  /// Occasionally competing users go idle and the scheduler showers this UE
  /// with PRBs: the grant-curve slope k multiplies by `surge_gain` for a
  /// short burst — the paper's "temporary uplink bandwidth surge" (§3.3).
  SimDuration surge_mean_interval = msec(1500);
  SimDuration surge_mean_duration = msec(250);
  double surge_gain = 4.0;

  /// The opposite also happens: bursts of competing traffic starve this UE
  /// of PRBs for a while. Famines inflate the firmware buffer into the
  /// 20-50 kB range seen in the paper's Fig. 5/6, which is what end-to-end
  /// delay-gradient controllers (GCC) react to — and over-react to, causing
  /// the underutilization FBCC fixes.
  SimDuration famine_mean_interval = msec(7000);
  SimDuration famine_mean_duration = msec(400);
  double famine_gain = 0.3;

  /// Firmware buffer capacity (drop-tail beyond this).
  std::int64_t buffer_limit_bytes = 3'000'000;

  /// Diagnostic report period (MobileInsight cadence, §5).
  SimDuration diag_interval = msec(40);

  SimDuration subframe = msec(1);
};

/// The cellular uplink as seen from the device: a firmware (modem) buffer
/// drained by periodic grants from the base station's proportional-fair
/// scheduler.
///
/// This is the substrate both POI360 findings rest on: the service rate
/// depends on the buffer's own occupancy (Fig. 5), so an empty buffer earns
/// no grants (the underutilization of §3.3) and a deep buffer earns nothing
/// extra but queueing delay (the congestion FBCC detects).
///
/// The uplink runs at grant cadence: one event every `grant_period`
/// subframes steps the channel, the surge/famine telegraphs, the shared-cell
/// share and the BSR history, then serves the period-sized grant. Between
/// grants nothing observable changes (capacity and the BSR are read only at
/// grants), so no per-subframe work is done.
///
/// `T` is the packet type (must expose an `std::int64_t bytes` member).
/// Fully drained packets are handed to `sink` at the draining grant; the
/// caller appends core-network delay behind it. `Sink` is any callable
/// taking `(T, SimTime)`.
template <typename T, typename Sink = std::function<void(T, SimTime)>>
class LteUplink {
 public:
  using DiagSink = std::function<void(const DiagReport&)>;
  /// (time, buffer_bytes_before_grant, tbs_bytes) once per grant.
  using SubframeProbe =
      std::function<void(SimTime, std::int64_t, std::int64_t)>;

  LteUplink(sim::Simulator& simulator, ChannelConfig channel_config,
            UplinkConfig config, std::uint64_t seed, Sink sink)
      : sim_(simulator),
        config_(config),
        grant_interval_(std::max(1, config.grant_period) * config.subframe),
        channel_(channel_config, seed),
        rng_(Rng(seed).fork(0x1f7)),
        sink_(std::move(sink)),
        bsr_grants_(bsr_slots(config_.bsr_delay, grant_interval_)) {}

  /// Begins the grant and diagnostic schedules. Call once.
  void start() {
    surge_.next_at = sim_.now() + sec_f(rng_.exponential(to_seconds(
                                       config_.surge_mean_interval)));
    famine_.next_at = sim_.now() + sec_f(rng_.exponential(to_seconds(
                                        config_.famine_mean_interval)));
    sim_.schedule_periodic(sim_.now() + grant_interval_, grant_interval_,
                           [this]() { on_grant(); });
    last_diag_time_ = sim_.now();
    sim_.schedule_periodic(sim_.now() + config_.diag_interval,
                           config_.diag_interval, [this]() { on_diag(); });
  }

  /// Enqueues a packet into the firmware buffer (drop-tail).
  void push(T packet) {
    if (buffer_bytes_ + packet.bytes > config_.buffer_limit_bytes) {
      ++dropped_;
      return;
    }
    buffer_bytes_ += packet.bytes;
    const std::int64_t bytes = packet.bytes;
    queue_.push_back({std::move(packet), bytes});
  }

  std::int64_t buffer_bytes() const { return buffer_bytes_; }
  std::int64_t dropped() const { return dropped_; }
  std::int64_t total_tbs_bytes() const { return total_tbs_bytes_; }

  /// Discards everything queued in the firmware buffer (counted as drops).
  /// Real modems do this on RRC re-establishment: the old cell's pending
  /// transport blocks never make it across a handover.
  void flush_buffer() {
    dropped_ += static_cast<std::int64_t>(queue_.size());
    queue_.clear();
    buffer_bytes_ = 0;
  }

  /// Cell change: the firmware buffer is flushed, the UE earns no grants
  /// while detached, and after re-attach the new cell's grant slope and
  /// capacity are scaled by `post_gain` for `post_duration` (the new cell
  /// may be better or worse than the old one).
  void begin_handover(SimDuration detach, double post_gain,
                      SimDuration post_duration) {
    const SimTime now = sim_.now();
    flush_buffer();
    detached_until_ = now + std::max<SimDuration>(0, detach);
    handover_gain_ = post_gain;
    handover_gain_until_ =
        detached_until_ + std::max<SimDuration>(0, post_duration);
    if (trace_) {
      trace_->instant(now, "lte", "handover",
                      {{"detach_ms", to_millis(detach)},
                       {"gain", post_gain},
                       {"gain_ms", to_millis(post_duration)}});
    }
  }

  bool detached() const { return sim_.now() < detached_until_; }

  void set_diag_sink(DiagSink sink) { diag_sink_ = std::move(sink); }
  void set_subframe_probe(SubframeProbe probe) { probe_ = std::move(probe); }

  /// Attaches this UE to a shared cell: each grant it reports its
  /// firmware-buffer backlog as demand and the channel capacity is scaled
  /// by the cell's proportional-fair share for this UE. Unattached (the
  /// default) the private channel model owns the competition and nothing
  /// changes — no extra RNG draws, byte-identical runs.
  void set_cell(CellHandle cell) { cell_ = cell; }

  /// PHY fault/condition tracing: surge and famine windows become "b"/"e"
  /// spans on the "lte" track, handovers become instants. nullptr = off.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  const UplinkChannel& channel() const { return channel_; }
  const UplinkConfig& config() const { return config_; }

 private:
  /// BSR history length in grants; rejects a delay the grant cadence
  /// cannot represent exactly.
  static std::size_t bsr_slots(SimDuration bsr_delay,
                               SimDuration grant_interval) {
    if (bsr_delay < 0 || bsr_delay % grant_interval != 0) {
      throw std::invalid_argument(
          "UplinkConfig::bsr_delay must be a non-negative multiple of "
          "grant_period * subframe");
    }
    return static_cast<std::size_t>(
        std::max<SimDuration>(1, bsr_delay / grant_interval));
  }

  void on_grant() {
    const SimTime now = sim_.now();
    Bitrate capacity = channel_.advance(now);
    if (cell_.attached()) {
      cell_.report_backlog(buffer_bytes_);
      capacity *= cell_.share(now);
    }

    // The scheduler sees the stale buffer level from the BSR round trip.
    std::int64_t reported = 0;
    if (bsr_history_.size() == bsr_grants_) {
      reported = bsr_history_.front();
      bsr_history_.pop_front();
    }
    bsr_history_.push_back(buffer_bytes_);

    // Grant-slope surge and famine processes (random telegraphs).
    step_telegraph(surge_, now, config_.surge_mean_duration, msec(20),
                   config_.surge_mean_interval, msec(100), config_.surge_gain,
                   "surge");
    step_telegraph(famine_, now, config_.famine_mean_duration, msec(30),
                   config_.famine_mean_interval, msec(150),
                   config_.famine_gain, "famine");

    // Time-multiplexed scheduling: one period-sized grant per interval.
    const std::int64_t before = buffer_bytes_;
    if (now < detached_until_) {
      if (probe_) probe_(now, before, 0);
      return;
    }

    double k = config_.grant_bps_per_byte;
    double cap = capacity;
    if (now < handover_gain_until_) {
      k *= handover_gain_;
      cap *= handover_gain_;
    }
    if (surge_.on) k *= config_.surge_gain;
    if (famine_.on) {
      // PRB starvation hits both the slope and the ceiling: no matter how
      // much backlog the BSR advertises, the competing burst owns the PRBs.
      k *= config_.famine_gain;
      cap *= config_.famine_gain;
    }
    const double grant_bps = std::min(cap, k * static_cast<double>(reported));
    const std::int64_t grant_bytes = static_cast<std::int64_t>(
        grant_bps * to_seconds(grant_interval_) / 8.0);

    std::int64_t tbs = quantizer_.quantize(grant_bytes);

    // HARQ: a failed transport block drains nothing this grant.
    if (tbs > 0 && rng_.bernoulli(config_.bler)) tbs = 0;

    std::int64_t budget = std::min(tbs, buffer_bytes_);
    const std::int64_t drained = budget;
    while (budget > 0 && !queue_.empty()) {
      auto& [packet, remaining] = queue_.front();
      const std::int64_t take = std::min(budget, remaining);
      remaining -= take;
      budget -= take;
      buffer_bytes_ -= take;
      if (remaining == 0) {
        T done = std::move(packet);
        queue_.pop_front();
        sink_(std::move(done), now);
      }
    }

    tbs_since_diag_ += drained;
    total_tbs_bytes_ += drained;
    if (probe_) probe_(now, before, drained);
  }

  /// On/off state of one random-telegraph process.
  struct Telegraph {
    bool on = false;
    SimTime until = 0;    // end of the current on-window
    SimTime next_at = 0;  // start of the next on-window
  };

  /// Ends an expired on-window, then starts the next one when due: a
  /// floored exponential duration, then a floored exponential gap, drawn in
  /// that order. On-windows become "b"/"e" spans named `name`.
  void step_telegraph(Telegraph& t, SimTime now, SimDuration mean_duration,
                      SimDuration min_duration, SimDuration mean_interval,
                      SimDuration min_interval, double gain,
                      const char* name) {
    if (t.on && now >= t.until) {
      t.on = false;
      if (trace_) trace_->span_end(now, "lte", name, 0);
    }
    if (!t.on && now >= t.next_at) {
      t.on = true;
      t.until = now + std::max<SimDuration>(
                          min_duration, sec_f(rng_.exponential(
                                            to_seconds(mean_duration))));
      t.next_at = t.until + std::max<SimDuration>(
                                min_interval, sec_f(rng_.exponential(
                                                  to_seconds(mean_interval))));
      if (trace_) trace_->span_begin(now, "lte", name, 0, {{"gain", gain}});
    }
  }

  void on_diag() {
    if (!diag_sink_) {
      tbs_since_diag_ = 0;
      last_diag_time_ = sim_.now();
      return;
    }
    DiagReport report{
        .time = sim_.now(),
        .buffer_bytes = buffer_bytes_,
        .tbs_bytes = tbs_since_diag_,
        .interval = sim_.now() - last_diag_time_,
    };
    tbs_since_diag_ = 0;
    last_diag_time_ = sim_.now();
    diag_sink_(report);
  }

  sim::Simulator& sim_;
  UplinkConfig config_;
  SimDuration grant_interval_;
  UplinkChannel channel_;
  CellHandle cell_;
  Rng rng_;
  Sink sink_;
  DiagSink diag_sink_;
  SubframeProbe probe_;
  TbsQuantizer quantizer_;

  Fifo<std::pair<T, std::int64_t>> queue_;  // (packet, bytes left)
  std::int64_t buffer_bytes_ = 0;
  std::int64_t dropped_ = 0;

  std::size_t bsr_grants_;          // BSR round trip, in grants
  Fifo<std::int64_t> bsr_history_;  // buffer level at past grants
  Telegraph surge_;
  Telegraph famine_;
  SimTime detached_until_ = 0;
  double handover_gain_ = 1.0;
  SimTime handover_gain_until_ = 0;
  std::int64_t tbs_since_diag_ = 0;
  std::int64_t total_tbs_bytes_ = 0;
  SimTime last_diag_time_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace poi360::lte
