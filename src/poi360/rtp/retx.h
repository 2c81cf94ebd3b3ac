#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "poi360/common/recent_keys.h"
#include "poi360/common/time.h"
#include "poi360/rtp/packet.h"

namespace poi360::rtp {

/// Bounded history of sent packets, looked up by sequence number when a
/// NACK asks for a retransmission. Holds the last `capacity` distinct seqs
/// inserted, in contiguous storage that grows up to the capacity.
///
/// Each slot also records the retransmission state of its seq: when it was
/// last queued for retransmission, and whether that copy still waits in the
/// pacer. A new (or reused) slot starts with neither.
class SentPacketCache {
 public:
  explicit SentPacketCache(std::size_t capacity = 8192) : seqs_(capacity) {}

  void insert(const RtpPacket& packet) {
    // Re-inserting a seq (a retransmission leaving the pacer) refreshes the
    // payload in place and clears the queued mark; its age in the history
    // and its retransmission stamp are unchanged.
    std::size_t slot = seqs_.find(packet.seq);
    if (slot == RecentKeys::npos) {
      slot = seqs_.insert(packet.seq);
      if (slot == RecentKeys::npos) return;
      if (slot == packets_.size()) {
        packets_.push_back(packet);
        retx_.push_back(Retx{});
      } else {
        packets_[slot] = packet;
        retx_[slot] = Retx{};
      }
      return;
    }
    packets_[slot] = packet;
    retx_[slot].queued = false;
  }

  std::optional<RtpPacket> lookup(std::int64_t seq) const {
    const std::size_t slot = seqs_.find(seq);
    if (slot == RecentKeys::npos) return std::nullopt;
    return packets_[slot];
  }

  /// Claims `seq` for retransmission at `now`: returns its packet, stamped
  /// `now` and marked queued until it is re-inserted. Returns nullopt, and
  /// changes nothing, when the seq is absent, its previous retransmission is
  /// still queued, or that one was queued less than `dedup_window` ago.
  std::optional<RtpPacket> claim_retransmission(std::int64_t seq, SimTime now,
                                                SimDuration dedup_window) {
    const std::size_t slot = seqs_.find(seq);
    if (slot == RecentKeys::npos) return std::nullopt;
    Retx& r = retx_[slot];
    if (r.queued || now < r.queued_at + dedup_window) return std::nullopt;
    r.queued_at = now;
    r.queued = true;
    return packets_[slot];
  }

  std::size_t size() const { return seqs_.size(); }

 private:
  // A seq never queued reads as queued this long before time 0, so no
  // window can reach it.
  static constexpr SimTime kNeverQueued =
      std::numeric_limits<SimTime>::min() / 2;

  // One word per slot: every sent packet pays for it, retransmitted or not.
  struct Retx {
    std::int64_t queued_at : 63 = kNeverQueued;  // last queued for retx
    bool queued : 1 = false;  // that copy still waits in the pacer
  };
  static_assert(sizeof(Retx) == sizeof(SimTime));

  RecentKeys seqs_;
  std::vector<RtpPacket> packets_;  // by RecentKeys slot
  std::vector<Retx> retx_;          // by RecentKeys slot
};

}  // namespace poi360::rtp
