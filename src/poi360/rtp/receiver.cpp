#include "poi360/rtp/receiver.h"

#include <algorithm>
#include <utility>

namespace poi360::rtp {

RtpReceiver::RtpReceiver(sim::Simulator& simulator, Config config,
                         FrameSink frame_sink, NackSink nack_sink)
    : sim_(simulator),
      config_(config),
      frame_sink_(std::move(frame_sink)),
      nack_sink_(std::move(nack_sink)) {}

void RtpReceiver::start() {
  sim_.schedule_periodic(sim_.now() + config_.nack_retry, config_.nack_retry,
                         [this]() { on_nack_retry(); });
}

bool RtpReceiver::validate(const RtpPacket& packet) {
  if (packet.seq < 0 || packet.frame_id < 0 || packet.bytes <= 0 ||
      packet.fragments <= 0 || packet.fragments > config_.max_fragments ||
      packet.fragment < 0 || packet.fragment >= packet.fragments) {
    return false;
  }
  // A seq absurdly far ahead of the stream is a corrupted header, not
  // 20000 genuine losses: NACKing the whole range would flood the reverse
  // path and pin per-seq state for packets that never existed.
  if (packet.seq > next_expected_seq_ + config_.max_seq_jump) return false;
  return true;
}

SimDuration RtpReceiver::retry_interval(int attempts) const {
  if (!config_.nack_backoff) return 0;  // eligible at every tick (legacy)
  const int exponent = std::min(attempts - 1, 4);
  return config_.nack_retry * (SimDuration{1} << exponent);
}

void RtpReceiver::detect_gaps(std::int64_t seq, SimTime now) {
  if (seq < next_expected_seq_) {
    // Retransmission (or reordering): no longer missing.
    nacks_.erase(seq);
    return;
  }
  if (seq > next_expected_seq_) {
    std::vector<std::int64_t> missing;
    for (std::int64_t s = next_expected_seq_; s < seq; ++s) {
      missing.push_back(s);
      nacks_.emplace(s, NackState{.attempts = 1,
                                  .next_retry_at = now + retry_interval(1)});
    }
    interval_lost_ += static_cast<std::int64_t>(missing.size());
    recovery_.peak_outstanding_nacks =
        std::max(recovery_.peak_outstanding_nacks, nacks_.size());
    // Cap the per-loss state: the oldest seqs are the least likely to ever
    // be retransmitted, so they go first.
    while (nacks_.size() > config_.max_outstanding_nacks) {
      nacks_.erase(nacks_.begin());
      ++recovery_.nack_evictions;
    }
    if (nack_sink_ && !missing.empty()) {
      if (trace_) {
        trace_->instant(now, "recovery", "rtp.nack",
                        {{"seqs", static_cast<double>(missing.size())},
                         {"first_seq", static_cast<double>(missing.front())}});
      }
      nack_sink_(missing);
    }
  }
  next_expected_seq_ = seq + 1;
}

std::size_t RtpReceiver::find_assembly(std::int64_t frame_id) const {
  for (std::size_t i = 0; i < open_; ++i) {
    if (frames_[i].frame_id == frame_id) return i;
  }
  return frames_.size();
}

std::size_t RtpReceiver::open_assembly() {
  if (open_ == frames_.size()) frames_.emplace_back();
  return open_++;
}

void RtpReceiver::close_assembly(std::size_t index) {
  --open_;
  if (index != open_) std::swap(frames_[index], frames_[open_]);
}

void RtpReceiver::on_packet(const RtpPacket& packet, SimTime arrival) {
  if (!validate(packet)) {
    ++recovery_.invalid_packets;
    return;
  }

  ++interval_received_;
  arrivals_.push_back({arrival, total_bytes_});
  total_bytes_ += packet.bytes;
  while (arrivals_.front().first < arrival - sec(2)) {
    arrivals_.pop_front();
    ++arrivals_popped_;
  }

  detect_gaps(packet.seq, arrival);

  if (finished_.find(packet.frame_id) != nullptr) {
    // Late duplicate of a frame already delivered or abandoned; opening a
    // fresh assembly for it would leak state that can never complete.
    ++recovery_.stale_packets;
    return;
  }

  std::size_t index = find_assembly(packet.frame_id);
  if (index == frames_.size()) {
    if (trace_) {
      trace_->span_begin(
          arrival, "frame", "assemble", packet.frame_id,
          {{"fragments", static_cast<double>(packet.fragments)}});
    }
    // Counting the frame about to open.
    recovery_.peak_assemblies =
        std::max(recovery_.peak_assemblies, open_ + 1);
    if (open_ + 1 > config_.max_assemblies) {
      // Evict the stalest assembly before opening the new one, so no
      // reference into frames_ is held across the eviction.
      std::int64_t victim = packet.frame_id;
      SimTime oldest = arrival + 1;
      for (std::size_t i = 0; i < open_; ++i) {
        const Assembly& other = frames_[i];
        if (other.first_arrival < oldest ||
            (other.first_arrival == oldest && other.frame_id < victim)) {
          oldest = other.first_arrival;
          victim = other.frame_id;
        }
      }
      if (victim != packet.frame_id) {
        std::vector<std::int64_t> abandoned;
        evict_assembly(victim, abandoned);
        ++recovery_.assembly_evictions;
        if (pli_sink_ && !abandoned.empty()) {
          recovery_.keyframe_requests +=
              static_cast<std::int64_t>(abandoned.size());
          if (trace_) {
            trace_->instant(arrival, "recovery", "rtp.pli",
                            {{"frames", static_cast<double>(abandoned.size())},
                             {"cap_eviction", 1.0}});
          }
          pli_sink_(abandoned);
        }
      }
    }
    index = open_assembly();
    Assembly& fresh = frames_[index];
    fresh.frame_id = packet.frame_id;
    fresh.received.assign(static_cast<std::size_t>(packet.fragments), 0);
    fresh.received_count = 0;
    fresh.bytes = 0;
    fresh.capture_time = packet.capture_time;
    fresh.first_send_time = packet.send_time;
    fresh.last_send_time = 0;
    fresh.first_arrival = arrival;
    fresh.had_loss = false;
  }
  Assembly& a = frames_[index];
  const auto idx = static_cast<std::size_t>(packet.fragment);
  if (idx >= a.received.size() || a.received[idx]) {
    ++recovery_.duplicate_packets;
    return;
  }
  a.received[idx] = 1;
  ++a.received_count;
  a.bytes += packet.bytes;
  a.first_send_time = std::min(a.first_send_time, packet.send_time);
  a.last_send_time = std::max(a.last_send_time, packet.send_time);
  a.had_loss = a.had_loss || packet.is_retransmission;

  if (a.received_count == static_cast<int>(a.received.size())) {
    CompletedFrame done{
        .frame_id = packet.frame_id,
        .capture_time = a.capture_time,
        .bytes = a.bytes,
        .first_send_time = a.first_send_time,
        .last_send_time = a.last_send_time,
        .first_arrival = a.first_arrival,
        .completion = arrival,
        .fragments = static_cast<int>(a.received.size()),
        .had_loss = a.had_loss,
    };
    close_assembly(index);
    finished_.try_emplace(packet.frame_id);
    ++frames_completed_;
    if (trace_) {
      trace_->span_end(arrival, "frame", "assemble", packet.frame_id,
                       {{"bytes", static_cast<double>(done.bytes)},
                        {"had_loss", done.had_loss ? 1.0 : 0.0}});
    }
    if (frame_sink_) frame_sink_(done);
  }
}

void RtpReceiver::evict_assembly(std::int64_t frame_id,
                                 std::vector<std::int64_t>& abandoned) {
  close_assembly(find_assembly(frame_id));
  finished_.try_emplace(frame_id);
  abandoned.push_back(frame_id);
  if (trace_) {
    // The frame's last fragment will never arrive: close its assemble span
    // at the moment recovery gave up on it.
    trace_->span_end(sim_.now(), "frame", "assemble", frame_id,
                     {{"abandoned", 1.0}});
    trace_->instant(sim_.now(), "recovery", "rtp.abandon", {}, frame_id);
  }
}

void RtpReceiver::abandon_overdue(SimTime now) {
  if (config_.frame_deadline <= 0) return;
  std::vector<std::int64_t> overdue;
  for (std::size_t i = 0; i < open_; ++i) {
    if (now - frames_[i].first_arrival >= config_.frame_deadline) {
      overdue.push_back(frames_[i].frame_id);
    }
  }
  if (overdue.empty()) return;
  std::sort(overdue.begin(), overdue.end());
  std::vector<std::int64_t> abandoned;
  for (std::int64_t id : overdue) evict_assembly(id, abandoned);
  recovery_.frames_abandoned += static_cast<std::int64_t>(abandoned.size());
  if (pli_sink_) {
    recovery_.keyframe_requests +=
        static_cast<std::int64_t>(abandoned.size());
    if (trace_) {
      trace_->instant(now, "recovery", "rtp.pli",
                      {{"frames", static_cast<double>(abandoned.size())},
                       {"deadline", 1.0}});
    }
    pli_sink_(abandoned);
  }
}

void RtpReceiver::on_nack_retry() {
  const SimTime now = sim_.now();
  abandon_overdue(now);
  if (nacks_.empty() || !nack_sink_) return;
  std::vector<std::int64_t> missing;
  std::int64_t give_ups = 0;
  for (auto it = nacks_.begin(); it != nacks_.end();) {
    NackState& state = it->second;
    if (now < state.next_retry_at) {
      ++it;
      continue;
    }
    if (config_.nack_retry_budget > 0 &&
        state.attempts >= config_.nack_retry_budget) {
      it = nacks_.erase(it);
      ++recovery_.nack_give_ups;
      ++give_ups;
      continue;
    }
    ++state.attempts;
    state.next_retry_at = now + retry_interval(state.attempts);
    missing.push_back(it->first);
    ++it;
  }
  if (trace_ && give_ups > 0) {
    trace_->instant(now, "recovery", "rtp.nack_give_up",
                    {{"seqs", static_cast<double>(give_ups)}});
  }
  if (missing.empty()) return;
  if (trace_) {
    trace_->instant(now, "recovery", "rtp.nack_retry",
                    {{"seqs", static_cast<double>(missing.size())}});
  }
  nack_sink_(missing);
}

double RtpReceiver::take_loss_fraction() {
  const std::int64_t total = interval_received_ + interval_lost_;
  const double fraction =
      total > 0 ? static_cast<double>(interval_lost_) /
                      static_cast<double>(total)
                : 0.0;
  interval_received_ = 0;
  interval_lost_ = 0;
  return fraction;
}

Bitrate RtpReceiver::incoming_rate(SimDuration window) const {
  if (arrivals_.empty() || window <= 0) return 0.0;
  // No estimate until a full window of history exists: a half-filled window
  // under-reads the rate, and the AIMD cap would slash the target at session
  // start.
  if (arrivals_.back().first - arrivals_.front().first < window) {
    return 0.0;
  }
  const SimTime cutoff = arrivals_.back().first - window;
  auto cursor = std::find_if(
      rate_cursors_.begin(), rate_cursors_.end(),
      [window](const RateCursor& c) { return c.window == window; });
  if (cursor == rate_cursors_.end()) {
    std::rotate(rate_cursors_.begin(), rate_cursors_.end() - 1,
                rate_cursors_.end());
    cursor = rate_cursors_.begin();
    *cursor = RateCursor{.window = window};
  }
  // Entries behind the cursor are older than an earlier cutoff, so older
  // than this one; the newest entry is not, which ends the walk.
  std::size_t i = std::max(cursor->position, arrivals_popped_) -
                  arrivals_popped_;
  while (arrivals_[i].first < cutoff) ++i;
  cursor->position = arrivals_popped_ + i;
  return rate_of(total_bytes_ - arrivals_[i].second, window);
}

}  // namespace poi360::rtp
