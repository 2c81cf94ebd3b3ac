#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "poi360/common/time.h"
#include "poi360/rtp/packet.h"

namespace poi360::rtp {

/// Bounded history of sent packets, looked up by sequence number when a
/// NACK asks for a retransmission.
///
/// Each seq sits at slot `seq mod n` of a power-of-two ring (the `IdRing`
/// idiom), so a lookup is one index and one compare. Inserting a new seq
/// whose slot still holds another one doubles the ring until the two part,
/// up to `capacity` slots; at full size the new seq takes the slot. A seq is
/// therefore held iff it was inserted and no seq inserted after it shares
/// its residue mod `capacity`. RTP seqs are dense and increasing, so that
/// is the last `capacity` seqs sent.
///
/// Each slot also records the retransmission state of its seq: when it was
/// last queued for retransmission, and whether that copy still waits in the
/// pacer. A new (or taken-over) slot starts with neither.
class SentPacketCache {
 public:
  /// `capacity` must be a power of two.
  explicit SentPacketCache(std::size_t capacity = 8192)
      : capacity_(capacity) {
    if (!std::has_single_bit(capacity)) {
      throw std::invalid_argument(
          "SentPacketCache capacity must be a power of two");
    }
  }

  void insert(const RtpPacket& packet) {
    if (slots_.empty()) slots_.resize(std::min(kInitialSlots, capacity_));
    while (true) {
      Slot& slot = slot_of(packet.seq);
      if (!slot.retx.live) {
        slot = Slot{packet, Retx{.live = true}};
        ++size_;
        return;
      }
      if (slot.packet.seq == packet.seq) {
        // Re-inserting a seq (a retransmission leaving the pacer) refreshes
        // the payload in place and clears the queued mark; its
        // retransmission stamp is unchanged.
        slot.packet = packet;
        slot.retx.queued = false;
        return;
      }
      if (slots_.size() == capacity_) {
        slot = Slot{packet, Retx{.live = true}};
        return;
      }
      grow();
    }
  }

  /// Claims `seq` for retransmission at `now`: returns its packet, stamped
  /// `now` and marked queued until it is re-inserted. Returns nullopt, and
  /// changes nothing, when the seq is absent, its previous retransmission is
  /// still queued, or that one was queued less than `dedup_window` ago.
  std::optional<RtpPacket> claim_retransmission(std::int64_t seq, SimTime now,
                                                SimDuration dedup_window) {
    const std::size_t i = index_of(seq);
    if (i == kAbsent) return std::nullopt;
    Retx& r = slots_[i].retx;
    if (r.queued || now < r.queued_at + dedup_window) return std::nullopt;
    r.queued_at = now;
    r.queued = true;
    return slots_[i].packet;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  // A seq never queued reads as queued this long before time 0, so no
  // window can reach it.
  static constexpr SimTime kNeverQueued =
      std::numeric_limits<SimTime>::min() / 4;

  // One word per slot: every sent packet pays for it, retransmitted or not.
  struct Retx {
    std::int64_t queued_at : 62 = kNeverQueued;  // last queued for retx
    bool queued : 1 = false;  // that copy still waits in the pacer
    bool live : 1 = false;    // the slot holds a seq
  };
  static_assert(sizeof(Retx) == sizeof(SimTime));

  struct Slot {
    RtpPacket packet;
    Retx retx;
  };

  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  std::size_t slot_index(std::int64_t seq) const {
    return static_cast<std::uint64_t>(seq) & (slots_.size() - 1);
  }
  Slot& slot_of(std::int64_t seq) { return slots_[slot_index(seq)]; }

  // Index of the slot holding `seq`, or kAbsent.
  std::size_t index_of(std::int64_t seq) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t i = slot_index(seq);
    return slots_[i].retx.live && slots_[i].packet.seq == seq ? i : kAbsent;
  }

  // Live seqs in distinct slots mod n stay distinct mod 2n.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.retx.live) slot_of(slot.packet.seq) = slot;
    }
  }

  std::size_t capacity_;
  std::vector<Slot> slots_;  // power-of-two ring, up to capacity_ slots
  std::size_t size_ = 0;     // live slots
};

}  // namespace poi360::rtp
