#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/id_ring.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/obs/trace.h"
#include "poi360/rtp/packet.h"
#include "poi360/sim/simulator.h"

namespace poi360::rtp {

/// Reassembles frames from RTP packets, recovers losses via NACK, and keeps
/// the arrival statistics the congestion controllers feed on.
///
/// Recovery is bounded: every per-loss and per-frame state this class holds
/// has a cap or a deadline, so a hostile packet stream (bursty loss,
/// reordering, duplication, garbage headers — see `net::ChaosConfig`) can
/// degrade quality but can never grow the receiver's memory without limit
/// or leave a frame waiting forever.
class RtpReceiver {
 public:
  /// Loss-recovery policy. The defaults reproduce the legacy behaviour
  /// exactly (unlimited retries at the `nack_retry` cadence, no frame
  /// abandonment) so clean-path runs stay byte-identical; the hard state
  /// caps are always enforced but sit far above what a healthy session
  /// uses. Chaos scenarios tighten the budgets.
  struct Config {
    /// NACK retry cadence (also the deadline-scan cadence).
    SimDuration nack_retry = msec(100);
    /// Max NACK transmissions per missing seq (initial + retries);
    /// 0 = unlimited (legacy). Exhausting the budget gives the seq up —
    /// its frame is then rescued only by the abandonment deadline.
    int nack_retry_budget = 0;
    /// When true, the per-seq retry interval doubles after every attempt
    /// (capped at 16x); false keeps the legacy every-tick resend.
    bool nack_backoff = false;
    /// Incomplete assemblies older than this are abandoned: state evicted,
    /// the frame declared lost, and a PLI-style keyframe-recovery request
    /// emitted. 0 disables the deadline (legacy).
    SimDuration frame_deadline = 0;
    /// Hard caps on reassembly and NACK state (always enforced; oldest
    /// entries are evicted first).
    std::size_t max_assemblies = 256;
    std::size_t max_outstanding_nacks = 4096;
    /// A packet whose seq jumps further than this past the next expected
    /// seq is rejected as garbage instead of NACKing the whole range.
    std::int64_t max_seq_jump = 20000;
    /// Header plausibility ceiling: fragments-per-frame.
    int max_fragments = 4096;
  };

  /// A fully received frame, with the timing needed downstream: the display
  /// pipeline uses `completion`, GCC's delay-gradient filter uses the
  /// (send, arrival) pairs of consecutive frames.
  struct CompletedFrame {
    std::int64_t frame_id = 0;
    SimTime capture_time = 0;
    std::int64_t bytes = 0;
    SimTime first_send_time = 0;
    SimTime last_send_time = 0;
    SimTime first_arrival = 0;
    SimTime completion = 0;
    int fragments = 0;
    bool had_loss = false;
  };

  /// Robustness counters: what the validation and bounded-recovery layers
  /// did to a (possibly hostile) packet stream.
  struct RecoveryStats {
    std::int64_t invalid_packets = 0;    // failed header validation
    std::int64_t stale_packets = 0;      // for already finished frames
    std::int64_t duplicate_packets = 0;  // fragment already held
    std::int64_t frames_abandoned = 0;   // deadline expiries
    std::int64_t assembly_evictions = 0; // cap-driven evictions
    std::int64_t nack_give_ups = 0;      // retry budget exhausted
    std::int64_t nack_evictions = 0;     // cap-driven NACK-state drops
    std::int64_t keyframe_requests = 0;  // abandoned frames signalled (PLI)
    std::size_t peak_assemblies = 0;     // high-water marks vs. the caps
    std::size_t peak_outstanding_nacks = 0;
  };

  using FrameSink = std::function<void(const CompletedFrame&)>;
  /// Batch of sequence numbers to retransmit.
  using NackSink = std::function<void(const std::vector<std::int64_t>&)>;
  /// Batch of abandoned frame ids (PLI-style keyframe-recovery request).
  using PliSink = std::function<void(const std::vector<std::int64_t>&)>;

  RtpReceiver(sim::Simulator& simulator, Config config, FrameSink frame_sink,
              NackSink nack_sink);

  /// Installs the keyframe-recovery request sink (optional).
  void set_pli_sink(PliSink sink) { pli_sink_ = std::move(sink); }

  /// Begins the periodic NACK retry + abandonment schedule. Call once.
  void start();

  void on_packet(const RtpPacket& packet, SimTime arrival);

  /// Fraction of packets first seen as missing since the last call
  /// (WebRTC receiver-report style); resets the interval counters.
  double take_loss_fraction();

  /// Throughput over the trailing window, from packet arrivals.
  Bitrate incoming_rate(SimDuration window = msec(500)) const;

  std::int64_t total_media_bytes() const { return total_bytes_; }
  std::int64_t frames_completed() const { return frames_completed_; }

  const RecoveryStats& recovery_stats() const { return recovery_; }
  std::size_t assemblies() const { return open_; }
  std::size_t outstanding_nacks() const { return nacks_.size(); }
  const Config& config() const { return config_; }

  /// Frame-lifecycle tracing: the "assemble" span of frame N runs from its
  /// first arriving fragment to completion (or abandonment); NACK batches,
  /// give-ups and PLI requests emit recovery instants. nullptr = off.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  struct Assembly {
    std::int64_t frame_id = 0;
    std::vector<char> received;
    int received_count = 0;
    std::int64_t bytes = 0;
    SimTime capture_time = 0;
    SimTime first_send_time = 0;
    SimTime last_send_time = 0;
    SimTime first_arrival = 0;
    bool had_loss = false;
  };

  /// Per-missing-seq recovery state (ordered: lowest = oldest loss).
  struct NackState {
    int attempts = 0;        // transmissions so far
    SimTime next_retry_at = 0;
  };

  bool validate(const RtpPacket& packet);
  std::size_t find_assembly(std::int64_t frame_id) const;
  std::size_t open_assembly();
  void close_assembly(std::size_t index);
  void detect_gaps(std::int64_t seq, SimTime now);
  void on_nack_retry();
  void abandon_overdue(SimTime now);
  void evict_assembly(std::int64_t frame_id,
                      std::vector<std::int64_t>& abandoned);
  SimDuration retry_interval(int attempts) const;

  sim::Simulator& sim_;
  Config config_;
  FrameSink frame_sink_;
  NackSink nack_sink_;
  PliSink pli_sink_;

  // Open assemblies occupy [0, open_), in no particular order; the entries
  // past open_ are closed ones kept so their `received` buffers are reused.
  // Only a few frames are in flight at once, so lookup is a linear scan.
  std::vector<Assembly> frames_;
  std::size_t open_ = 0;
  std::int64_t next_expected_seq_ = 0;
  std::map<std::int64_t, NackState> nacks_;

  // Recently finished (completed or abandoned) frames: packets for these
  // are stale — without this a late duplicate would re-open a ghost
  // assembly that can never complete. Frames finish in about id order, so
  // a 1024-slot cap covers the last 1024 frames.
  IdRing<std::monostate> finished_{1024};

  // Interval loss accounting.
  std::int64_t interval_received_ = 0;
  std::int64_t interval_lost_ = 0;

  // Trailing arrival log for rate estimation: (arrival time, media bytes
  // received before this packet), popped once older than 2 s. Arrival
  // times are nondecreasing, so a window's cutoff only moves forward: each
  // window keeps a cursor on the first entry at or past its last cutoff,
  // and incoming_rate walks it on from there. Sessions ask for two windows
  // (500 ms and 1 s); a third evicts the least recently added cursor.
  Fifo<std::pair<SimTime, std::int64_t>> arrivals_;
  std::size_t arrivals_popped_ = 0;  // entries ever popped from arrivals_
  struct RateCursor {
    SimDuration window = 0;    // 0 = unused
    std::size_t position = 0;  // arrivals_popped_ + index into arrivals_
  };
  mutable std::array<RateCursor, 2> rate_cursors_{};

  std::int64_t total_bytes_ = 0;
  std::int64_t frames_completed_ = 0;
  RecoveryStats recovery_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace poi360::rtp
