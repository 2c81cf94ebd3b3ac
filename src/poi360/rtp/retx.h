#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "poi360/common/recent_keys.h"
#include "poi360/rtp/packet.h"

namespace poi360::rtp {

/// Bounded history of sent packets, looked up by sequence number when a
/// NACK asks for a retransmission. Holds the last `capacity` distinct seqs
/// inserted, in contiguous storage that grows up to the capacity.
class SentPacketCache {
 public:
  explicit SentPacketCache(std::size_t capacity = 8192) : seqs_(capacity) {}

  void insert(const RtpPacket& packet) {
    // Re-inserting a seq (a retransmission passing the pacer again) only
    // refreshes the payload in place; its age in the history is unchanged.
    std::size_t slot = seqs_.find(packet.seq);
    if (slot == RecentKeys::npos) {
      slot = seqs_.insert(packet.seq);
      if (slot == RecentKeys::npos) return;
      if (slot == packets_.size()) {
        packets_.push_back(packet);
        return;
      }
    }
    packets_[slot] = packet;
  }

  std::optional<RtpPacket> lookup(std::int64_t seq) const {
    const std::size_t slot = seqs_.find(seq);
    if (slot == RecentKeys::npos) return std::nullopt;
    return packets_[slot];
  }

  std::size_t size() const { return seqs_.size(); }

 private:
  RecentKeys seqs_;
  std::vector<RtpPacket> packets_;  // by RecentKeys slot
};

}  // namespace poi360::rtp
