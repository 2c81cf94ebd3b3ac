#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/net/link.h"
#include "poi360/obs/trace.h"
#include "poi360/sim/fifo_lane.h"
#include "poi360/sim/simulator.h"

namespace poi360::net {

/// Fault model layered on top of a `DelayLink`-style propagation segment —
/// the transport twin of `lte::DiagFaultConfig` (PR 1 hardened the sensor
/// path; this hardens the packet path).
///
/// Real access paths do not lose packets independently: losses arrive in
/// bursts (radio fades, Wi-Fi/LTE retransmission stalls), packets get
/// reordered by multipath and scheduler churn, middleboxes duplicate them,
/// handovers black the path out for hundreds of milliseconds, and transient
/// congestion elsewhere adds delay spikes. Each knob below is one of those
/// behaviours; all draws come from the link's own seeded stream so a
/// (config, seed) pair replays the exact same fault schedule.
///
/// The all-zero default is a *draw-for-draw* pass-through: a `ChaosLink`
/// with a default `ChaosConfig` consumes the RNG exactly like a `DelayLink`
/// with the same seed and delivers every message at the identical time
/// (enforced by a differential test) — which is what keeps every clean-path
/// bench byte-identical to the pre-chaos harness.
struct ChaosConfig {
  /// Gilbert–Elliott burst loss: a two-state Markov chain advanced per
  /// packet. `ge_p_good_bad` > 0 enables the chain; in the bad state
  /// packets drop with `ge_loss_bad` (fades last 1/ge_p_bad_good packets
  /// on average).
  double ge_p_good_bad = 0.0;   // P(good -> bad) per packet
  double ge_p_bad_good = 0.0;   // P(bad -> good) per packet
  double ge_loss_bad = 0.0;     // loss probability while bad
  double ge_loss_good = 0.0;    // residual loss while good

  /// A packet is independently reordered: it takes a detour of up to
  /// `reorder_extra` additional delay and is exempted from the link's FIFO
  /// clamp, so packets sent after it may overtake it.
  double reorder_prob = 0.0;
  SimDuration reorder_extra = msec(30);

  /// A packet is delivered twice; the copy trails the original by up to
  /// `duplicate_skew` (also exempt from the FIFO clamp).
  double duplicate_prob = 0.0;
  SimDuration duplicate_skew = msec(10);

  /// Handover-style blackout windows (Poisson arrivals, exponential
  /// durations floored at `blackout_min_duration`): every packet sent
  /// inside a window is dropped.
  double blackout_per_min = 0.0;
  SimDuration blackout_mean_duration = msec(400);
  SimDuration blackout_min_duration = msec(100);

  /// Delay-spike windows (Poisson arrivals, fixed span): packets sent
  /// inside a window carry an extra exponential delay of mean
  /// `spike_mean_extra` drawn once per window.
  double spike_per_min = 0.0;
  SimDuration spike_mean_extra = msec(150);
  SimDuration spike_duration = msec(800);

  bool burst_enabled() const { return ge_p_good_bad > 0.0; }
};

/// Delivery statistics of one chaos segment, for tests and benches.
struct ChaosStats {
  std::int64_t sent = 0;             // messages offered to the link
  std::int64_t delivered = 0;        // deliveries scheduled (incl. dups)
  std::int64_t dropped_random = 0;   // independent base loss
  std::int64_t dropped_burst = 0;    // Gilbert–Elliott losses
  std::int64_t dropped_blackout = 0; // lost to blackout windows
  std::int64_t duplicated = 0;       // messages delivered twice
  std::int64_t reordered = 0;        // messages sent on the detour path
  std::int64_t delay_spiked = 0;     // messages hit by a spike window
  std::int64_t blackouts = 0;        // blackout windows begun
  std::int64_t spikes = 0;           // spike windows begun

  std::int64_t dropped() const {
    return dropped_random + dropped_burst + dropped_blackout;
  }
};

/// Propagation segment with the fault model above: `DelayLink` semantics
/// (base delay, Gaussian jitter, independent loss, FIFO order) plus
/// seeded burst loss, reordering, duplication, blackouts and delay spikes.
///
/// Used for the media path behind the LTE uplink (or the wireline access
/// path) and for the viewer -> sender feedback/NACK back-channel, each with
/// its own `ChaosConfig` so the two directions fail independently.
///
/// `Sink` is any callable taking `(T, SimTime delivered_at)`; it becomes
/// the consumer of the link's delivery lane.
template <typename T,
          typename Sink = std::function<void(T, SimTime delivered_at)>>
class ChaosLink {
 public:
  ChaosLink(sim::Simulator& simulator, DelayLinkConfig base,
            ChaosConfig chaos, std::uint64_t seed, Sink sink)
      : sim_(simulator), base_(base), chaos_(chaos), rng_(seed),
        deliveries_(simulator, std::move(sink)) {}

  /// Sends one message through the fault model. Draw order is part of the
  /// determinism contract: window updates, burst chain, base loss, jitter,
  /// reorder, duplicate — and every draw is skipped when its feature is
  /// disabled, so the zero-fault config replays `DelayLink` exactly.
  void send(T message) {
    ++stats_.sent;
    const SimTime now = sim_.now();
    update_windows(now);

    if (now < blackout_until_) {
      ++stats_.dropped_blackout;
      return;
    }
    if (chaos_.burst_enabled() || chaos_.ge_loss_good > 0.0) {
      if (chaos_.burst_enabled()) {
        const double flip = bad_ ? chaos_.ge_p_bad_good : chaos_.ge_p_good_bad;
        if (rng_.bernoulli(flip)) {
          bad_ = !bad_;
          if (trace_) {
            trace_->instant(now, trace_category_, "burst",
                            {{"bad", bad_ ? 1.0 : 0.0}});
          }
        }
      }
      if (rng_.bernoulli(bad_ ? chaos_.ge_loss_bad : chaos_.ge_loss_good)) {
        ++stats_.dropped_burst;
        return;
      }
    }
    if (rng_.bernoulli(base_.loss_prob)) {
      ++stats_.dropped_random;
      return;
    }

    SimDuration delay = base_.propagation;
    if (base_.jitter_std > 0) {
      const double j =
          rng_.normal(0.0, static_cast<double>(base_.jitter_std));
      delay += static_cast<SimDuration>(j);
      if (delay < 0) delay = 0;
    }
    if (now < spike_until_) {
      delay += spike_extra_;
      ++stats_.delay_spiked;
    }

    bool reordered = false;
    if (chaos_.reorder_prob > 0.0 && rng_.bernoulli(chaos_.reorder_prob)) {
      reordered = true;
      ++stats_.reordered;
      delay += rng_.uniform_int(0, chaos_.reorder_extra);
    }

    SimTime at = now + delay;
    if (!reordered) {
      // FIFO clamp, as in DelayLink; detoured packets neither obey it nor
      // advance it, which is what lets later sends overtake them.
      if (at < last_delivery_) at = last_delivery_;
      last_delivery_ = at;
    }
    deliver_at(at, message);

    if (chaos_.duplicate_prob > 0.0 &&
        rng_.bernoulli(chaos_.duplicate_prob)) {
      ++stats_.duplicated;
      const SimTime dup_at = at + rng_.uniform_int(0, chaos_.duplicate_skew);
      deliver_at(dup_at, std::move(message));
    }
  }

  std::int64_t dropped() const { return stats_.dropped(); }
  const ChaosStats& stats() const { return stats_; }

  /// Fault-injection tracing: window openings (blackout/spike) and burst-
  /// state flips become instants under the given category (one category per
  /// link, e.g. "chaos.media" vs "chaos.feedback"). nullptr = off.
  void set_trace(obs::TraceRecorder* trace, const char* category) {
    trace_ = trace;
    trace_category_ = category;
  }

 private:
  void deliver_at(SimTime at, T message) {
    ++stats_.delivered;
    deliveries_.push(at, std::move(message));
  }

  /// Opens blackout/spike windows on the traffic clock (same lazy Poisson
  /// idiom as `lte::DiagFaultModel::update_silence`).
  void update_windows(SimTime now) {
    if (chaos_.blackout_per_min > 0.0) {
      if (next_blackout_at_ < 0) {
        next_blackout_at_ = now + poisson_gap(chaos_.blackout_per_min);
      }
      if (now >= next_blackout_at_) {
        ++stats_.blackouts;
        const SimDuration span =
            std::max(chaos_.blackout_min_duration,
                     sec_f(rng_.exponential(
                         to_seconds(chaos_.blackout_mean_duration))));
        blackout_until_ = std::max(blackout_until_, now + span);
        if (trace_) {
          trace_->instant(now, trace_category_, "blackout",
                          {{"span_ms", to_millis(span)}});
        }
        next_blackout_at_ =
            blackout_until_ + poisson_gap(chaos_.blackout_per_min);
      }
    }
    if (chaos_.spike_per_min > 0.0) {
      if (next_spike_at_ < 0) {
        next_spike_at_ = now + poisson_gap(chaos_.spike_per_min);
      }
      if (now >= next_spike_at_) {
        ++stats_.spikes;
        spike_extra_ = std::max<SimDuration>(
            msec(1),
            sec_f(rng_.exponential(to_seconds(chaos_.spike_mean_extra))));
        spike_until_ = std::max(spike_until_, now + chaos_.spike_duration);
        if (trace_) {
          trace_->instant(now, trace_category_, "spike",
                          {{"extra_ms", to_millis(spike_extra_)},
                           {"span_ms", to_millis(chaos_.spike_duration)}});
        }
        next_spike_at_ = spike_until_ + poisson_gap(chaos_.spike_per_min);
      }
    }
  }

  SimDuration poisson_gap(double per_min) {
    return sec_f(rng_.exponential(60.0 / per_min));
  }

  sim::Simulator& sim_;
  DelayLinkConfig base_;
  ChaosConfig chaos_;
  Rng rng_;
  // The FIFO clamp keeps a fault-free link's deliveries monotone, so they
  // all take the lane's fast path; a delivery that a detour or duplicate
  // puts behind the lane's last item falls back to the one-shot heap.
  sim::FifoLane<T, Sink> deliveries_;

  SimTime last_delivery_ = 0;
  bool bad_ = false;                // Gilbert–Elliott state
  SimTime blackout_until_ = 0;
  SimTime next_blackout_at_ = -1;
  SimTime spike_until_ = 0;
  SimTime next_spike_at_ = -1;
  SimDuration spike_extra_ = 0;

  ChaosStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  const char* trace_category_ = "chaos";
};

}  // namespace poi360::net
