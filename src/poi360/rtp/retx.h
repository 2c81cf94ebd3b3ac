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
/// Each entry holds what a retransmission re-sends — the packet's frame,
/// fragment, size and capture time; its seq is the entry's id — and the
/// retransmission state of its seq: when it was last queued for
/// retransmission, and whether that copy still waits in the pacer. A new
/// (or taken-over) entry starts with neither. A slot is 48 bytes.
class SentPacketCache {
 public:
  /// `capacity` must be a power of two.
  explicit SentPacketCache(std::size_t capacity = 8192) : sent_(capacity) {}

  /// Re-inserting a seq (a retransmission leaving the pacer) refreshes the
  /// payload in place and clears the queued mark; its retransmission stamp
  /// is unchanged.
  void insert(const RtpPacket& packet) {
    Entry& entry = *sent_.try_emplace(packet.seq).first;
    entry.frame_id = packet.frame_id;
    entry.capture_time = packet.capture_time;
    entry.bytes = packet.bytes;
    entry.fragment = packet.fragment;
    entry.fragments = packet.fragments;
    entry.retx.queued = false;
  }

  /// Claims `seq` for retransmission at `now`: returns its packet, stamped
  /// `now` and marked queued until it is re-inserted. Returns nullopt, and
  /// changes nothing, when the seq is absent, its previous retransmission is
  /// still queued, or that one was queued less than `dedup_window` ago.
  /// The returned packet's `send_time` and `is_retransmission` are left at
  /// their defaults: the pacer stamps the one, the caller sets the other.
  std::optional<RtpPacket> claim_retransmission(std::int64_t seq, SimTime now,
                                                SimDuration dedup_window) {
    Entry* entry = sent_.find(seq);
    if (entry == nullptr) return std::nullopt;
    Retx& r = entry->retx;
    if (r.queued || now < r.queued_at + dedup_window) return std::nullopt;
    r.queued_at = now;
    r.queued = true;
    RtpPacket packet;
    packet.seq = seq;
    packet.frame_id = entry->frame_id;
    packet.fragment = entry->fragment;
    packet.fragments = entry->fragments;
    packet.bytes = entry->bytes;
    packet.capture_time = entry->capture_time;
    return packet;
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
    std::int64_t frame_id = 0;
    SimTime capture_time = 0;
    std::int64_t bytes = 0;
    int fragment = 0;
    int fragments = 1;
    Retx retx;
  };
  static_assert(sizeof(Entry) == 40);  // + the ring's 8-byte id: 48

  IdRing<Entry> sent_;
};

}  // namespace poi360::rtp
