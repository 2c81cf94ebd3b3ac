#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "poi360/common/rng.h"

#include "poi360/rtp/pacer.h"
#include "poi360/rtp/packetizer.h"
#include "poi360/rtp/receiver.h"
#include "poi360/rtp/retx.h"
#include "poi360/sim/simulator.h"

namespace poi360::rtp {
namespace {

// Every fragment of one frame, in the order packetize emits them.
std::vector<RtpPacket> fragments_of(Packetizer& p, std::int64_t frame_id,
                                    SimTime capture_time, std::int64_t bytes) {
  std::vector<RtpPacket> out;
  p.packetize(frame_id, capture_time, bytes,
              [&out](const RtpPacket& packet) { out.push_back(packet); });
  return out;
}

TEST(Packetizer, SplitsAtMtu) {
  Packetizer p(1200);
  const auto packets = fragments_of(p, 7, msec(100), 3000);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].bytes, 1200);
  EXPECT_EQ(packets[1].bytes, 1200);
  EXPECT_EQ(packets[2].bytes, 600);
  for (int f = 0; f < 3; ++f) {
    EXPECT_EQ(packets[f].frame_id, 7);
    EXPECT_EQ(packets[f].fragment, f);
    EXPECT_EQ(packets[f].fragments, 3);
    EXPECT_EQ(packets[f].capture_time, msec(100));
    EXPECT_EQ(packets[f].seq, f);
  }
}

TEST(Packetizer, SequenceNumbersContinueAcrossFrames) {
  Packetizer p(1000);
  (void)fragments_of(p, 0, 0, 2500);  // 3 packets: seq 0..2
  const auto second = fragments_of(p, 1, 0, 1500);
  EXPECT_EQ(second[0].seq, 3);
  EXPECT_EQ(second[1].seq, 4);
}

TEST(Packetizer, ExactMultipleOfMtu) {
  Packetizer p(1200);
  const auto packets = fragments_of(p, 0, 0, 2400);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[1].bytes, 1200);
}

TEST(Packetizer, RejectsEmptyFrames) {
  Packetizer p(1200);
  EXPECT_THROW(fragments_of(p, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(Packetizer(0), std::invalid_argument);
}

TEST(Pacer, ReleasesAtConfiguredRate) {
  sim::Simulator s;
  std::vector<SimTime> sent;
  Pacer pacer(s, mbps(1), [&](RtpPacket p) { sent.push_back(p.send_time); });
  pacer.start();
  s.schedule_at(0, [&]() {
    for (int i = 0; i < 10; ++i) {
      RtpPacket p;
      p.seq = i;
      p.bytes = 1250;  // 10 ms at 1 Mbps
      pacer.enqueue(p);
    }
  });
  s.run_until(sec(1));
  ASSERT_EQ(sent.size(), 10u);
  // 10 packets of 10 ms each paced over ~100 ms (5 ms tick granularity).
  EXPECT_GE(sent.back() - sent.front(), msec(80));
  EXPECT_LE(sent.back(), msec(150));
}

TEST(Pacer, QueueJumpsRetransmissions) {
  sim::Simulator s;
  std::vector<std::int64_t> order;
  Pacer pacer(s, kbps(100), [&](RtpPacket p) { order.push_back(p.seq); });
  pacer.start();
  s.schedule_at(0, [&]() {
    for (int i = 0; i < 3; ++i) {
      RtpPacket p;
      p.seq = i;
      p.bytes = 1000;
      pacer.enqueue(p);
    }
    RtpPacket rtx;
    rtx.seq = 99;
    rtx.bytes = 500;
    rtx.is_retransmission = true;
    pacer.enqueue_front(rtx);
  });
  s.run_until(sec(60));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 99);
}

TEST(Pacer, RateChangeTakesEffect) {
  sim::Simulator s;
  int sent = 0;
  Pacer pacer(s, kbps(8), [&](RtpPacket) { ++sent; });  // 1000 B/s
  pacer.start();
  s.schedule_at(0, [&]() {
    for (int i = 0; i < 100; ++i) {
      RtpPacket p;
      p.bytes = 1000;
      pacer.enqueue(p);
    }
  });
  s.run_until(sec(2));
  const int slow = sent;
  EXPECT_LE(slow, 4);
  s.schedule_at(sec(2), [&]() { pacer.set_rate(mbps(8)); });
  s.run_until(sec(3));
  EXPECT_EQ(sent, 100);  // drained quickly after the raise
}

TEST(Pacer, TracksQueuedBytes) {
  sim::Simulator s;
  Pacer pacer(s, kbps(8), [](RtpPacket) {});
  RtpPacket p;
  p.bytes = 700;
  pacer.enqueue(p);
  pacer.enqueue(p);
  EXPECT_EQ(pacer.queued_bytes(), 1400);
  EXPECT_EQ(pacer.queued_packets(), 2u);
}

// drop_frame purges every queued packet of one frame, retransmissions at
// the front included, and releases the survivors in their queued order.
TEST(Pacer, DropFramePurgesOnlyThatFrameInOrder) {
  sim::Simulator s;
  std::vector<std::pair<std::int64_t, bool>> released;  // (seq, rtx)
  Pacer pacer(s, mbps(100), [&](RtpPacket p) {
    released.push_back({p.seq, p.is_retransmission});
  });
  const auto packet = [](std::int64_t seq, std::int64_t frame,
                         std::int64_t bytes, bool rtx) {
    RtpPacket p;
    p.seq = seq;
    p.frame_id = frame;
    p.bytes = bytes;
    p.is_retransmission = rtx;
    return p;
  };
  // Frames 1, 2 and 3 in order; then a retransmission of frame 2 and one of
  // frame 1 jump the queue, so the front reads rtx 1, rtx 4, 0, 1, ...
  std::int64_t seq = 0;
  for (const std::int64_t frame : {1, 1, 1, 2, 2, 2, 3, 3}) {
    pacer.enqueue(packet(seq, frame, 100 + seq, false));
    ++seq;
  }
  pacer.enqueue_front(packet(4, 2, 1000, true));
  pacer.enqueue_front(packet(1, 1, 2000, true));
  const std::int64_t all = 8 * 100 + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) + 3000;
  ASSERT_EQ(pacer.queued_bytes(), all);

  EXPECT_EQ(pacer.drop_frame(7), 0u);
  EXPECT_EQ(pacer.queued_bytes(), all);
  EXPECT_EQ(pacer.drop_frame(2), 4u);
  EXPECT_EQ(pacer.queued_packets(), 6u);
  EXPECT_EQ(pacer.queued_bytes(), all - 1000 - (103 + 104 + 105));
  EXPECT_EQ(pacer.drop_frame(2), 0u);

  pacer.start();
  s.run_until(msec(50));
  const std::vector<std::pair<std::int64_t, bool>> want{
      {1, true}, {0, false}, {1, false}, {2, false}, {6, false}, {7, false}};
  EXPECT_EQ(released, want);
  EXPECT_EQ(pacer.queued_bytes(), 0);
}

TEST(Pacer, IdleDoesNotBankUnboundedCredit) {
  sim::Simulator s;
  std::vector<SimTime> sent;
  Pacer pacer(s, mbps(1), [&](RtpPacket p) { sent.push_back(p.send_time); });
  pacer.start();
  // One second of idle, then a large burst: the burst must still be paced.
  s.schedule_at(sec(1), [&]() {
    for (int i = 0; i < 20; ++i) {
      RtpPacket p;
      p.bytes = 1250;
      pacer.enqueue(p);
    }
  });
  s.run_until(sec(3));
  ASSERT_EQ(sent.size(), 20u);
  EXPECT_GE(sent.back() - sent.front(), msec(150));
}

// ----------------------------------------------------------------- retx --

// Whether the cache holds `seq`, and with what payload, through the public
// API: a held seq is claimed for retransmission and the claimed copy is
// re-inserted, as when it leaves the pacer, which clears the queued mark
// again. Only for caches whose seqs are never left queued.
std::optional<RtpPacket> probe(SentPacketCache& cache, std::int64_t seq) {
  auto packet = cache.claim_retransmission(seq, 0, 0);
  if (packet) cache.insert(*packet);
  return packet;
}

TEST(SentPacketCache, LookupAndEviction) {
  SentPacketCache cache(4);
  RtpPacket p;
  for (int i = 0; i < 6; ++i) {
    p.seq = i;
    p.bytes = 100 + i;
    cache.insert(p);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(probe(cache, 0).has_value());
  EXPECT_FALSE(probe(cache, 1).has_value());
  const auto five = probe(cache, 5);
  ASSERT_TRUE(five.has_value());
  EXPECT_EQ(five->bytes, 105);
  EXPECT_EQ(cache.size(), 4u);

  // A new seq takes the slot of its residue mod the capacity, not the
  // oldest one: after a gap, seq 13 evicts seq 5 and leaves seq 2.
  p.seq = 13;
  p.bytes = 113;
  cache.insert(p);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(probe(cache, 5).has_value());
  EXPECT_TRUE(probe(cache, 2).has_value());
  // A seq that only shares a held seq's residue is absent.
  EXPECT_FALSE(probe(cache, 9).has_value());
  EXPECT_FALSE(probe(cache, 13 - 4 * 1024).has_value());
  EXPECT_EQ(probe(cache, 13)->bytes, 113);

  // Below the capacity nothing is evicted: seqs whose slots collide in the
  // small starting ring part as it grows.
  SentPacketCache big(1024);
  for (const std::int64_t seq : {0, 64, 128, 512, -100}) {
    p.seq = seq;
    big.insert(p);
  }
  EXPECT_EQ(big.size(), 5u);
  for (const std::int64_t seq : {0, 64, 128, 512, -100}) {
    EXPECT_TRUE(probe(big, seq).has_value()) << "seq " << seq;
  }
  p.seq = 1024;  // shares seq 0's residue mod the capacity
  big.insert(p);
  EXPECT_EQ(big.size(), 5u);
  EXPECT_FALSE(probe(big, 0).has_value());
  EXPECT_TRUE(probe(big, 1024).has_value());
}

TEST(SentPacketCache, RejectsACapacityThatIsNotAPowerOfTwo) {
  EXPECT_THROW(SentPacketCache(0), std::invalid_argument);
  EXPECT_THROW(SentPacketCache(3), std::invalid_argument);
  EXPECT_THROW(SentPacketCache(8191), std::invalid_argument);
  EXPECT_NO_THROW(SentPacketCache(1));
  EXPECT_NO_THROW(SentPacketCache(8192));
}

TEST(SentPacketCache, DuplicateSeqUpdatesInPlaceWithoutEviction) {
  // Re-inserting a seq (pacer resending a retransmission) must not take a
  // second slot: bookkeeping that double-counted the seq evicted live
  // entries early.
  SentPacketCache cache(4);
  RtpPacket p;
  p.seq = 0;
  p.bytes = 100;
  cache.insert(p);
  p.bytes = 999;  // same seq, refreshed payload
  cache.insert(p);
  EXPECT_EQ(cache.size(), 1u);
  const auto zero = probe(cache, 0);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->bytes, 999);

  for (int i = 1; i <= 3; ++i) {
    RtpPacket q;
    q.seq = i;
    q.bytes = 100 + i;
    cache.insert(q);
  }
  // Exactly at capacity: every seq must still be resident.
  EXPECT_EQ(cache.size(), 4u);
  for (int i = 0; i <= 3; ++i) {
    EXPECT_TRUE(probe(cache, i).has_value()) << "seq " << i;
  }
  RtpPacket q;
  q.seq = 4;
  q.bytes = 104;
  cache.insert(q);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(probe(cache, 0).has_value());  // seq 4 took its slot
  EXPECT_TRUE(probe(cache, 4).has_value());
}

TEST(SentPacketCache, RetransmissionStampAndQueuedMark) {
  constexpr SimDuration kWindow = msec(150);
  SentPacketCache cache(2);
  RtpPacket p;
  p.seq = 7;
  p.bytes = 1200;
  cache.insert(p);

  // Absent seqs are never claimed, nor is one sharing a held seq's slot.
  EXPECT_FALSE(cache.claim_retransmission(99, 0, kWindow).has_value());
  EXPECT_FALSE(cache.claim_retransmission(5, 0, kWindow).has_value());

  // A fresh slot has neither stamp nor mark: the first NACK claims it.
  const auto claimed = cache.claim_retransmission(7, msec(10), kWindow);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->bytes, 1200);

  // Marked queued: no second copy, however late the NACK.
  EXPECT_FALSE(cache.claim_retransmission(7, sec(10), kWindow).has_value());

  // The copy leaving the pacer clears the mark but keeps the stamp, so a
  // NACK inside the window after it was queued is still suppressed.
  p.is_retransmission = true;
  cache.insert(p);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.claim_retransmission(7, msec(159), kWindow).has_value());
  EXPECT_TRUE(cache.claim_retransmission(7, msec(160), kWindow).has_value());

  // A copy that never leaves the pacer (a PLI purge) keeps its mark until
  // the slot is reused; the reused slot starts with neither.
  EXPECT_FALSE(cache.claim_retransmission(7, sec(10), kWindow).has_value());
  RtpPacket q;
  q.seq = 8;
  cache.insert(q);
  EXPECT_TRUE(cache.claim_retransmission(8, msec(160), kWindow).has_value());
  q.seq = 9;
  cache.insert(q);  // takes seq 7's slot (both are odd)
  // Two slots, held by 8 and 9 (claimed below): seq 7 is gone.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.claim_retransmission(9, msec(160), kWindow).has_value());
  EXPECT_FALSE(cache.claim_retransmission(8, sec(10), kWindow).has_value());
}

// The sent-packet history's contract as a node map: a seq is held iff it
// was inserted and no seq inserted after it shares its residue mod the
// capacity. Kept as the reference the ring must match.
class ReferenceSentPacketCache {
 public:
  explicit ReferenceSentPacketCache(std::size_t capacity)
      : capacity_(capacity) {}

  void insert(const RtpPacket& packet) {
    const bool inserted = by_seq_.insert_or_assign(packet.seq, packet).second;
    if (!inserted) return;
    const std::uint64_t residue =
        static_cast<std::uint64_t>(packet.seq) % capacity_;
    const auto holder = by_residue_.find(residue);
    if (holder != by_residue_.end()) by_seq_.erase(holder->second);
    by_residue_[residue] = packet.seq;
  }

  std::optional<RtpPacket> lookup(std::int64_t seq) const {
    const auto it = by_seq_.find(seq);
    if (it == by_seq_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t size() const { return by_seq_.size(); }

 private:
  std::uint64_t capacity_;
  std::unordered_map<std::int64_t, RtpPacket> by_seq_;
  std::unordered_map<std::uint64_t, std::int64_t> by_residue_;
};

// `a` is a claimed copy, `b` the reference's stored packet: equal in every
// field a retransmission re-sends. The claimed copy leaves `send_time` (the
// pacer stamps it) and `is_retransmission` (the session sets it) unset.
bool same_packet(const std::optional<RtpPacket>& a,
                 const std::optional<RtpPacket>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->seq == b->seq && a->frame_id == b->frame_id &&
         a->fragment == b->fragment && a->fragments == b->fragments &&
         a->bytes == b->bytes && a->capture_time == b->capture_time &&
         a->send_time == 0 && !a->is_retransmission;
}

TEST(SentPacketCache, MatchesTheMapAndDequeReferenceUnderRandomTraffic) {
  for (const std::size_t capacity : {std::size_t{4}, std::size_t{8192}}) {
    Rng rng(capacity);
    SentPacketCache cache(capacity);
    ReferenceSentPacketCache reference(capacity);
    std::int64_t next_seq = 0;
    const int ops = capacity < 100 ? 5000 : 60000;
    for (int op = 0; op < ops; ++op) {
      RtpPacket p;
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.6) {
        // Fresh packet, sometimes after a gap in the seq space.
        next_seq += rng.bernoulli(0.1) ? rng.uniform_int(2, 40) : 1;
        p.seq = next_seq;
      } else if (kind < 0.8) {
        // Refresh (a retransmission passing the pacer again): a recent seq
        // that may or may not still be held.
        const auto back = static_cast<std::int64_t>(2 * capacity + 4);
        p.seq = next_seq - rng.uniform_int(0, back);
      } else if (kind < 0.82) {
        // Far-away and negative seqs land on the residues of live ones.
        p.seq = rng.uniform_int(-1'000'000, 1'000'000) * 4096;
      } else {
        const std::int64_t seq =
            next_seq - rng.uniform_int(0, static_cast<std::int64_t>(
                                              2 * capacity + 4));
        ASSERT_TRUE(same_packet(probe(cache, seq), reference.lookup(seq)))
            << "capacity " << capacity << " op " << op << " seq " << seq;
        continue;
      }
      p.frame_id = p.seq / 3;
      p.fragment = static_cast<int>(op % 5);
      p.fragments = 5;
      p.bytes = rng.uniform_int(1, 1200);
      p.capture_time = op / 7;
      p.send_time = op;
      p.is_retransmission = kind >= 0.6;
      cache.insert(p);
      reference.insert(p);
      ASSERT_EQ(cache.size(), reference.size())
          << "capacity " << capacity << " op " << op;
    }
    // Every seq the reference holds is held with the same payload, and no
    // other seq in the touched range is.
    for (std::int64_t seq = next_seq - static_cast<std::int64_t>(capacity) - 50;
         seq <= next_seq + 1; ++seq) {
      ASSERT_TRUE(same_packet(probe(cache, seq), reference.lookup(seq)))
          << "capacity " << capacity << " seq " << seq;
    }
  }
}

// ------------------------------------------------------------- receiver --

struct ReceiverHarness {
  sim::Simulator s;
  std::vector<RtpReceiver::CompletedFrame> frames;
  std::vector<std::int64_t> nacked;
  RtpReceiver receiver{
      s, RtpReceiver::Config{},
      [this](const RtpReceiver::CompletedFrame& f) { frames.push_back(f); },
      [this](const std::vector<std::int64_t>& seqs) {
        nacked.insert(nacked.end(), seqs.begin(), seqs.end());
      }};
};

TEST(Receiver, AssemblesFrameFromFragments) {
  ReceiverHarness h;
  Packetizer p(1000);
  const auto packets = fragments_of(p, 5, msec(10), 2500);
  SimTime t = msec(50);
  for (auto packet : packets) {
    packet.send_time = msec(40);
    h.receiver.on_packet(packet, t);
    t += msec(3);
  }
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_EQ(h.frames[0].frame_id, 5);
  EXPECT_EQ(h.frames[0].bytes, 2500);
  EXPECT_EQ(h.frames[0].capture_time, msec(10));
  EXPECT_EQ(h.frames[0].first_arrival, msec(50));
  EXPECT_EQ(h.frames[0].completion, msec(56));
  EXPECT_EQ(h.frames[0].fragments, 3);
  EXPECT_TRUE(h.nacked.empty());
}

TEST(Receiver, DetectsGapAndNacks) {
  ReceiverHarness h;
  Packetizer p(1000);
  const auto packets = fragments_of(p, 0, 0, 3000);  // seq 0,1,2
  h.receiver.on_packet(packets[0], msec(1));
  h.receiver.on_packet(packets[2], msec(2));  // seq 1 missing
  ASSERT_EQ(h.nacked.size(), 1u);
  EXPECT_EQ(h.nacked[0], 1);
  EXPECT_TRUE(h.frames.empty());
  // Retransmission completes the frame.
  auto rtx = packets[1];
  rtx.is_retransmission = true;
  h.receiver.on_packet(rtx, msec(30));
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_TRUE(h.frames[0].had_loss);
  EXPECT_EQ(h.frames[0].completion, msec(30));
}

TEST(Receiver, DuplicatePacketsIgnored) {
  ReceiverHarness h;
  Packetizer p(1000);
  const auto packets = fragments_of(p, 0, 0, 2000);
  h.receiver.on_packet(packets[0], msec(1));
  h.receiver.on_packet(packets[0], msec(2));  // duplicate
  EXPECT_TRUE(h.frames.empty());
  h.receiver.on_packet(packets[1], msec(3));
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_EQ(h.frames[0].bytes, 2000);
}

TEST(Receiver, LossFractionInterval) {
  ReceiverHarness h;
  Packetizer p(1000);
  const auto a = fragments_of(p, 0, 0, 1000);  // seq 0
  const auto b = fragments_of(p, 1, 0, 1000);  // seq 1
  const auto c = fragments_of(p, 2, 0, 1000);  // seq 2
  h.receiver.on_packet(a[0], msec(1));
  h.receiver.on_packet(c[0], msec(2));  // seq 1 lost
  EXPECT_NEAR(h.receiver.take_loss_fraction(), 1.0 / 3.0, 1e-9);
  // Counters reset after the call.
  EXPECT_DOUBLE_EQ(h.receiver.take_loss_fraction(), 0.0);
  (void)b;
}

TEST(Receiver, NackRetryFiresPeriodically) {
  ReceiverHarness h;
  h.receiver.start();
  Packetizer p(1000);
  const auto packets = fragments_of(p, 0, 0, 3000);
  h.s.schedule_at(msec(1), [&]() {
    h.receiver.on_packet(packets[0], msec(1));
    h.receiver.on_packet(packets[2], msec(1));  // gap at seq 1
  });
  h.s.run_until(msec(350));
  // Initial NACK plus ~3 retries at 100 ms cadence.
  EXPECT_GE(h.nacked.size(), 3u);
  for (auto seq : h.nacked) EXPECT_EQ(seq, 1);
}

TEST(Receiver, IncomingRateNeedsFullWindow) {
  ReceiverHarness h;
  Packetizer p(1000);
  auto pkt = fragments_of(p, 0, 0, 1000)[0];
  h.receiver.on_packet(pkt, msec(10));
  EXPECT_DOUBLE_EQ(h.receiver.incoming_rate(msec(500)), 0.0);
}

// ------------------------------------------------- bounded recovery --

// Harness with an explicit recovery config and a PLI sink.
struct BoundedHarness {
  explicit BoundedHarness(RtpReceiver::Config config) : receiver{make(config)} {}

  RtpReceiver make(RtpReceiver::Config config) {
    return RtpReceiver(
        s, config,
        [this](const RtpReceiver::CompletedFrame& f) { frames.push_back(f); },
        [this](const std::vector<std::int64_t>& seqs) {
          nacked.insert(nacked.end(), seqs.begin(), seqs.end());
        });
  }

  sim::Simulator s;
  std::vector<RtpReceiver::CompletedFrame> frames;
  std::vector<std::int64_t> nacked;
  std::vector<std::int64_t> plis;
  RtpReceiver receiver;
};

RtpPacket make_packet(std::int64_t seq, std::int64_t frame_id, int fragment,
                      int fragments, std::int64_t bytes = 1000) {
  RtpPacket p;
  p.seq = seq;
  p.frame_id = frame_id;
  p.fragment = fragment;
  p.fragments = fragments;
  p.bytes = bytes;
  return p;
}

TEST(Receiver, RejectsGarbageHeaders) {
  BoundedHarness h{{}};
  h.receiver.on_packet(make_packet(-1, 0, 0, 1), msec(1));      // bad seq
  h.receiver.on_packet(make_packet(0, -5, 0, 1), msec(1));      // bad frame
  h.receiver.on_packet(make_packet(0, 0, 0, 1, 0), msec(1));    // empty
  h.receiver.on_packet(make_packet(0, 0, 2, 2), msec(1));       // frag oob
  h.receiver.on_packet(make_packet(0, 0, -1, 2), msec(1));      // frag < 0
  h.receiver.on_packet(make_packet(0, 0, 0, 0), msec(1));       // no frags
  h.receiver.on_packet(make_packet(0, 0, 0, 1 << 20), msec(1)); // frag flood
  EXPECT_EQ(h.receiver.recovery_stats().invalid_packets, 7);
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  EXPECT_TRUE(h.nacked.empty());
  EXPECT_EQ(h.receiver.total_media_bytes(), 0);
}

TEST(Receiver, RejectsAbsurdSeqJumpInsteadOfNackingTheRange) {
  BoundedHarness h{{}};
  h.receiver.on_packet(make_packet(0, 0, 0, 2), msec(1));
  // A corrupted header claiming seq 1e9 is not a billion losses.
  h.receiver.on_packet(make_packet(1'000'000'000, 1, 0, 2), msec(2));
  EXPECT_EQ(h.receiver.recovery_stats().invalid_packets, 1);
  EXPECT_TRUE(h.nacked.empty());
  EXPECT_EQ(h.receiver.outstanding_nacks(), 0u);
  // The stream continues undisturbed afterwards.
  h.receiver.on_packet(make_packet(1, 0, 1, 2), msec(3));
  EXPECT_EQ(h.frames.size(), 1u);
}

TEST(Receiver, StalePacketDoesNotReopenFinishedFrame) {
  BoundedHarness h{{}};
  const auto p0 = make_packet(0, 7, 0, 2);
  const auto p1 = make_packet(1, 7, 1, 2);
  h.receiver.on_packet(p0, msec(1));
  h.receiver.on_packet(p1, msec(2));
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  // A late duplicate of the finished frame must not open a ghost assembly
  // (the legacy receiver leaked one per late duplicate).
  h.receiver.on_packet(p1, msec(40));
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 1);
  EXPECT_EQ(h.frames.size(), 1u);  // and never double-completes
}

TEST(Receiver, StalenessCoversExactlyTheLast1024FinishedFrames) {
  BoundedHarness h{{}};
  // Frames 0..1024 complete in order: 1025 finished frames.
  std::int64_t seq = 0;
  for (std::int64_t f = 0; f <= 1024; ++f) {
    h.receiver.on_packet(make_packet(seq++, f, 0, 1), msec(1));
  }
  ASSERT_EQ(h.frames.size(), 1025u);
  // Frame 1 is the 1024th most recent: a late duplicate of it is stale.
  h.receiver.on_packet(make_packet(seq++, 1, 0, 2), msec(2));
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 1);
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  // Frame 0 is the 1025th: it has left the history and opens an assembly.
  h.receiver.on_packet(make_packet(seq++, 0, 0, 2), msec(3));
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 1);
  EXPECT_EQ(h.receiver.assemblies(), 1u);
}

TEST(Receiver, LateDuplicateOfAFrameFinishedWithinTheLast1024IsStale) {
  BoundedHarness h{{}};
  // 512 two-fragment frames with even ids finish in descending id order,
  // so the finished ids are neither dense nor increasing.
  std::int64_t seq = 0;
  std::vector<RtpPacket> last_fragments;
  for (std::int64_t f = 1022; f >= 0; f -= 2) {
    h.receiver.on_packet(make_packet(seq++, f, 0, 2), msec(1));
    last_fragments.push_back(make_packet(seq++, f, 1, 2));
    h.receiver.on_packet(last_fragments.back(), msec(1));
  }
  ASSERT_EQ(h.frames.size(), 512u);
  // Every frame finished fewer than 1024 frames ago: a late duplicate of
  // its last fragment is stale and opens no assembly.
  for (const RtpPacket& p : last_fragments) {
    h.receiver.on_packet(p, msec(50));
  }
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 512);
  EXPECT_EQ(h.receiver.recovery_stats().duplicate_packets, 0);
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  EXPECT_EQ(h.frames.size(), 512u);
}

TEST(Receiver, ReorderedFragmentsStillAssemble) {
  BoundedHarness h{{}};
  // Frame of 4 fragments arriving 3,0,2,1: NACKs fire for the transient
  // gaps, but the frame completes and each seq's state clears on arrival.
  h.receiver.on_packet(make_packet(3, 0, 3, 4), msec(1));
  EXPECT_EQ(h.nacked, (std::vector<std::int64_t>{0, 1, 2}));
  h.receiver.on_packet(make_packet(0, 0, 0, 4), msec(2));
  h.receiver.on_packet(make_packet(2, 0, 2, 4), msec(3));
  h.receiver.on_packet(make_packet(1, 0, 1, 4), msec(4));
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_EQ(h.frames[0].fragments, 4);
  EXPECT_EQ(h.receiver.outstanding_nacks(), 0u);
}

TEST(Receiver, NackBudgetGivesUpAfterConfiguredAttempts) {
  BoundedHarness h{{.nack_retry_budget = 3}};
  h.receiver.start();
  h.s.schedule_at(msec(1), [&]() {
    h.receiver.on_packet(make_packet(0, 0, 0, 3), msec(1));
    h.receiver.on_packet(make_packet(2, 0, 2, 3), msec(1));  // seq 1 missing
  });
  h.s.run_until(sec(2));
  // Initial NACK (attempt 1) + retries up to the budget, then give up.
  EXPECT_EQ(h.nacked.size(), 3u);
  EXPECT_EQ(h.receiver.outstanding_nacks(), 0u);
  EXPECT_EQ(h.receiver.recovery_stats().nack_give_ups, 1);
}

TEST(Receiver, NackBackoffDoublesTheRetryInterval) {
  auto count_nacks = [](bool backoff) {
    BoundedHarness h{{.nack_backoff = backoff}};
    h.receiver.start();
    h.s.schedule_at(msec(1), [&]() {
      h.receiver.on_packet(make_packet(0, 0, 0, 3), msec(1));
      h.receiver.on_packet(make_packet(2, 0, 2, 3), msec(1));
    });
    h.s.run_until(msec(950));  // ticks at 100..900 ms
    return h.nacked.size();
  };
  // Legacy cadence: initial + one per 100 ms tick. Backoff: initial, then
  // ~200/400/800 ms — a third of the reverse-path traffic.
  const auto legacy = count_nacks(false);
  const auto backed = count_nacks(true);
  EXPECT_EQ(legacy, 10u);
  EXPECT_EQ(backed, 4u);
}

TEST(Receiver, FrameDeadlineAbandonsAndRequestsKeyframe) {
  BoundedHarness h{{.frame_deadline = msec(300)}};
  h.receiver.set_pli_sink([&](const std::vector<std::int64_t>& ids) {
    h.plis.insert(h.plis.end(), ids.begin(), ids.end());
  });
  h.receiver.start();
  h.s.schedule_at(msec(1), [&]() {
    h.receiver.on_packet(make_packet(0, 5, 0, 2), msec(1));  // never finishes
  });
  h.s.run_until(sec(1));
  EXPECT_TRUE(h.frames.empty());
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  const auto& r = h.receiver.recovery_stats();
  EXPECT_EQ(r.frames_abandoned, 1);
  EXPECT_EQ(r.keyframe_requests, 1);
  EXPECT_EQ(h.plis, (std::vector<std::int64_t>{5}));
  // The straggler arriving after abandonment is stale, not a ghost.
  h.receiver.on_packet(make_packet(1, 5, 1, 2), sec(1));
  EXPECT_EQ(h.receiver.assemblies(), 0u);
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 1);
}

TEST(Receiver, AssemblyCapEvictsTheStalestFrame) {
  BoundedHarness h{{.max_assemblies = 4}};
  h.receiver.set_pli_sink([&](const std::vector<std::int64_t>& ids) {
    h.plis.insert(h.plis.end(), ids.begin(), ids.end());
  });
  // Six incomplete 2-fragment frames; contiguous seqs so no NACK noise.
  for (int f = 0; f < 6; ++f) {
    h.receiver.on_packet(make_packet(f, f, 0, 2), msec(10 * (f + 1)));
  }
  EXPECT_EQ(h.receiver.assemblies(), 4u);
  const auto& r = h.receiver.recovery_stats();
  EXPECT_EQ(r.assembly_evictions, 2);
  EXPECT_EQ(h.plis, (std::vector<std::int64_t>{0, 1}));  // oldest first
  EXPECT_EQ(r.peak_assemblies, 5u);  // transiently one over, then evicted
  // Evicted frames are finished: their packets are now stale.
  h.receiver.on_packet(make_packet(100, 0, 1, 2), msec(100));
  EXPECT_EQ(h.receiver.recovery_stats().stale_packets, 1);
  EXPECT_EQ(h.receiver.assemblies(), 4u);
}

TEST(Receiver, NackStateIsCappedAtTheConfiguredLimit) {
  BoundedHarness h{{.max_outstanding_nacks = 10}};
  h.receiver.on_packet(make_packet(0, 0, 0, 2), msec(1));
  h.receiver.on_packet(make_packet(50, 1, 0, 2), msec(2));  // 49 missing
  EXPECT_EQ(h.receiver.outstanding_nacks(), 10u);
  const auto& r = h.receiver.recovery_stats();
  EXPECT_EQ(r.nack_evictions, 39);
  EXPECT_EQ(r.peak_outstanding_nacks, 49u);
}

TEST(Receiver, IncomingRateMatchesSteadyStream) {
  ReceiverHarness h;
  Packetizer p(1000);
  // 1000 bytes every 10 ms = 800 kbps.
  for (int i = 0; i < 150; ++i) {
    auto pkt = fragments_of(p, i, 0, 1000)[0];
    h.receiver.on_packet(pkt, msec(10) * (i + 1));
  }
  EXPECT_NEAR(h.receiver.incoming_rate(msec(500)) / 1e3, 800.0, 40.0);
  EXPECT_EQ(h.receiver.frames_completed(), 150);
  EXPECT_EQ(h.receiver.total_media_bytes(), 150'000);
}

// incoming_rate walks one cursor per window; a binary search over the same
// arrival log is the reference. Arrivals come in runs with equal stamps and
// now and then after an idle gap longer than the 2 s log, so the receiver
// drops the log's expired half dozens of times between queries. The 500 ms
// and 1 s windows are queried interleaved, as a session does, and a rare
// third window (or one longer than the log) evicts one of their cursors.
TEST(Receiver, IncomingRateMatchesTheBinarySearchReference) {
  ReceiverHarness h;
  Packetizer p(1200);
  Rng rng(7);
  // (arrival, media bytes received before it), as the receiver logs it.
  std::vector<std::pair<SimTime, std::int64_t>> log;
  std::int64_t total = 0;
  const auto reference = [&](SimDuration window) -> Bitrate {
    const SimTime newest = log.back().first;
    const auto live =
        std::partition_point(log.begin(), log.end(), [&](const auto& a) {
          return a.first < newest - sec(2);
        });
    if (newest - live->first < window) return 0.0;
    const auto first =
        std::partition_point(live, log.end(), [&](const auto& a) {
          return a.first < newest - window;
        });
    return rate_of(total - first->second, window);
  };

  SimTime t = 0;
  int queries = 0;
  for (std::int64_t frame = 0; frame < 3000; ++frame) {
    t += rng.bernoulli(0.01) ? rng.uniform_int(sec(2), sec(3))
                             : rng.uniform_int(0, msec(40));
    for (const RtpPacket& packet :
         fragments_of(p, frame, t, rng.uniform_int(200, 6000))) {
      if (!rng.bernoulli(0.4)) t += rng.uniform_int(0, msec(3));
      h.receiver.on_packet(packet, t);
      log.emplace_back(t, total);
      total += packet.bytes;
      for (const SimDuration window : {msec(500), sec(1)}) {
        if (rng.bernoulli(0.3)) {
          ASSERT_EQ(h.receiver.incoming_rate(window), reference(window))
              << "frame " << frame << " window " << window;
          ++queries;
        }
      }
      if (rng.bernoulli(0.005)) {
        const SimDuration window =
            rng.bernoulli(0.5) ? msec(250) : rng.uniform_int(sec(2), sec(3));
        ASSERT_EQ(h.receiver.incoming_rate(window), reference(window))
            << "frame " << frame << " window " << window;
      }
    }
  }
  EXPECT_EQ(h.receiver.total_media_bytes(), total);
  EXPECT_GT(queries, 1000);
}

}  // namespace
}  // namespace poi360::rtp
