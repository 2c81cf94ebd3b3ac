#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/obs/trace.h"
#include "poi360/rtp/packet.h"
#include "poi360/sim/simulator.h"

namespace poi360::rtp {

/// WebRTC-style packet pacer.
///
/// Encoded packets queue in the application-layer "video buffer" (Fig. 9)
/// and are released onto the transport at the RTP sending rate R_rtp. This
/// is the knob FBCC's Eq. 7 turns: the pacer rate can exceed the encoder
/// bitrate to pull queued traffic forward and refill the modem buffer, or
/// fall below it, in which case the backlog grows here rather than in the
/// firmware buffer.
///
/// `Sink` is any callable taking the released `RtpPacket`; a session passes
/// a concrete functor so each release is a direct call.
template <typename Sink = std::function<void(RtpPacket)>>
class Pacer {
 public:
  Pacer(sim::Simulator& simulator, Bitrate initial_rate, Sink sink,
        SimDuration tick = msec(5))
      : sim_(simulator), rate_(initial_rate), sink_(std::move(sink)),
        tick_(tick) {
    if (tick <= 0) throw std::invalid_argument("pacer tick must be positive");
  }

  /// Begins the periodic pacing schedule. Call once.
  void start() {
    sim_.schedule_periodic(sim_.now() + tick_, tick_,
                           [this]() { on_tick(); });
  }

  void enqueue(RtpPacket packet) {
    queued_bytes_ += packet.bytes;
    if (trace_ && !packet.is_retransmission && packet.fragment == 0) {
      trace_->span_begin(
          sim_.now(), "frame", "pace", packet.frame_id,
          {{"fragments", static_cast<double>(packet.fragments)},
           {"queued_bytes", static_cast<double>(queued_bytes_)}});
    }
    queue_.push_back(std::move(packet));
  }

  /// Queue-jumps a retransmission (WebRTC pacers prioritize RTX).
  void enqueue_front(RtpPacket packet) {
    queued_bytes_ += packet.bytes;
    queue_.push_front(std::move(packet));
  }

  void set_rate(Bitrate rate) { rate_ = std::max(rate, 0.0); }
  Bitrate rate() const { return rate_; }

  /// Purges queued packets of an abandoned frame (keyframe-recovery path:
  /// the receiver has already given up on it, so pacing its remaining
  /// fragments would burn uplink bytes a famine can't spare). Returns the
  /// number of packets dropped. Retransmissions already queued for the
  /// frame are purged too.
  std::size_t drop_frame(std::int64_t frame_id) {
    const std::size_t dropped = queue_.erase_if([&](const RtpPacket& p) {
      if (p.frame_id != frame_id) return false;
      queued_bytes_ -= p.bytes;
      return true;
    });
    if (trace_ && dropped > 0) {
      // Close the pace span (its last fragment will never be released) and
      // mark the purge as a recovery action.
      trace_->span_end(sim_.now(), "frame", "pace", frame_id);
      trace_->instant(sim_.now(), "recovery", "pacer.drop_frame",
                      {{"packets", static_cast<double>(dropped)}}, frame_id);
    }
    return dropped;
  }

  std::int64_t queued_bytes() const { return queued_bytes_; }
  std::size_t queued_packets() const { return queue_.size(); }

  /// Frame-lifecycle tracing: the "pace" span of frame N runs from its
  /// first fragment entering the queue to its last fragment released onto
  /// the transport; purges emit an instant. nullptr = off.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  void on_tick() {
    budget_bytes_ += rate_ * to_seconds(tick_) / 8.0;
    // An idle pacer must not bank unbounded credit: cap at two ticks' worth
    // so a queue that refills after a gap is still paced, not blasted.
    const double cap =
        std::max(2.0 * rate_ * to_seconds(tick_) / 8.0, 2400.0);
    budget_bytes_ = std::min(budget_bytes_, cap);

    // WebRTC semantics: a packet may be sent whenever credit is positive
    // (the budget may go negative and is paid back on later ticks).
    while (!queue_.empty() && budget_bytes_ > 0.0) {
      RtpPacket p = std::move(queue_.front());
      queue_.pop_front();
      queued_bytes_ -= p.bytes;
      budget_bytes_ -= static_cast<double>(p.bytes);
      p.send_time = sim_.now();
      if (trace_ && !p.is_retransmission && p.fragment == p.fragments - 1) {
        trace_->span_end(sim_.now(), "frame", "pace", p.frame_id);
      }
      sink_(std::move(p));
    }
    if (queue_.empty() && budget_bytes_ < 0.0) {
      // Debt is only meaningful while traffic is pending.
      budget_bytes_ = 0.0;
    }
  }

  sim::Simulator& sim_;
  Bitrate rate_;
  Sink sink_;
  SimDuration tick_;

  Fifo<RtpPacket> queue_;
  std::int64_t queued_bytes_ = 0;
  double budget_bytes_ = 0.0;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace poi360::rtp
