#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "poi360/common/id_ring.h"
#include "poi360/common/time.h"
#include "poi360/rtp/packet.h"

namespace poi360::rtp {

/// Bounded history of sent packets, looked up by sequence number when a
/// NACK asks for a retransmission: an `IdRing` capped at `capacity` slots,
/// so a seq is held iff it was inserted and no seq inserted after it shares
/// its residue mod `capacity`. RTP seqs are dense and increasing, so that
/// is the last `capacity` seqs sent.
///
/// Each entry also records the retransmission state of its seq: when it
/// was last queued for retransmission, and whether that copy still waits
/// in the pacer. A new (or taken-over) entry starts with neither.
class SentPacketCache {
 public:
  /// `capacity` must be a power of two.
  explicit SentPacketCache(std::size_t capacity = 8192) : sent_(capacity) {}

  /// Re-inserting a seq (a retransmission leaving the pacer) refreshes the
  /// payload in place and clears the queued mark; its retransmission stamp
  /// is unchanged.
  void insert(const RtpPacket& packet) {
    Entry& entry = *sent_.try_emplace(packet.seq).first;
    entry.packet = packet;
    entry.retx.queued = false;
  }

  /// Claims `seq` for retransmission at `now`: returns its packet, stamped
  /// `now` and marked queued until it is re-inserted. Returns nullopt, and
  /// changes nothing, when the seq is absent, its previous retransmission is
  /// still queued, or that one was queued less than `dedup_window` ago.
  std::optional<RtpPacket> claim_retransmission(std::int64_t seq, SimTime now,
                                                SimDuration dedup_window) {
    Entry* entry = sent_.find(seq);
    if (entry == nullptr) return std::nullopt;
    Retx& r = entry->retx;
    if (r.queued || now < r.queued_at + dedup_window) return std::nullopt;
    r.queued_at = now;
    r.queued = true;
    return entry->packet;
  }

  std::size_t size() const { return sent_.size(); }

 private:
  // A seq never queued reads as queued this long before time 0, so no
  // window can reach it.
  static constexpr SimTime kNeverQueued =
      std::numeric_limits<SimTime>::min() / 4;

  // One word per entry: every sent packet pays for it, retransmitted or
  // not.
  struct Retx {
    std::int64_t queued_at : 63 = kNeverQueued;  // last queued for retx
    bool queued : 1 = false;  // that copy still waits in the pacer
  };
  static_assert(sizeof(Retx) == sizeof(SimTime));

  struct Entry {
    RtpPacket packet;
    Retx retx;
  };

  IdRing<Entry> sent_;
};

}  // namespace poi360::rtp
