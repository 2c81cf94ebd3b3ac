#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "poi360/common/time.h"
#include "poi360/rtp/packet.h"

namespace poi360::rtp {

/// Splits encoded frames into MTU-sized RTP packets with a running
/// transport-wide sequence number.
class Packetizer {
 public:
  explicit Packetizer(std::int64_t mtu_bytes = 1200) : mtu_(mtu_bytes) {
    if (mtu_bytes <= 0) throw std::invalid_argument("mtu must be positive");
  }

  /// Fragments a frame of `total_bytes` captured at `capture_time`, handing
  /// each fragment to `emit(RtpPacket)` in fragment order.
  template <typename Emit>
  void packetize(std::int64_t frame_id, SimTime capture_time,
                 std::int64_t total_bytes, Emit&& emit) {
    if (total_bytes <= 0) throw std::invalid_argument("empty frame");
    const int fragments = static_cast<int>((total_bytes + mtu_ - 1) / mtu_);
    std::int64_t remaining = total_bytes;
    for (int f = 0; f < fragments; ++f) {
      RtpPacket p;
      p.seq = next_seq_++;
      p.frame_id = frame_id;
      p.fragment = f;
      p.fragments = fragments;
      p.bytes = std::min(mtu_, remaining);
      p.capture_time = capture_time;
      remaining -= p.bytes;
      emit(p);
    }
  }

 private:
  std::int64_t mtu_;
  std::int64_t next_seq_ = 0;
};

}  // namespace poi360::rtp
