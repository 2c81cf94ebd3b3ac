#pragma once

// Harness logic that the self-tests cover: percentiles with sample counts,
// folding frame-lifecycle spans into the per-frame delay ledger, the frame
// conservation check, frame-record digests and the replay-input recorder.

#include <cstdint>
#include <string>
#include <vector>

#include "poi360/common/time.h"
#include "poi360/metrics/session_metrics.h"
#include "poi360/obs/trace.h"

namespace e2ebench {

using poi360::SimDuration;
using poi360::SimTime;

// -- percentiles ------------------------------------------------------------

/// A percentile together with the sample count it came from. `tail_ok` is
/// false when fewer than ten order statistics lie beyond the percentile's
/// rank, in which case the value must not be presented as a measured tail.
struct Pct {
  double value = 0.0;
  std::size_t n = 0;
  bool tail_ok = false;
};

/// p in [0, 1]; linear interpolation between order statistics (the
/// definition `statistics.quantiles(..., method="inclusive")` uses).
/// Sorts `xs` in place. n == 0 gives value 0 and tail_ok false.
Pct percentile(std::vector<double>& xs, double p);

double median(std::vector<double> xs);

// -- delay ledger -------------------------------------------------------------

/// Boundaries of one frame's life, folded from the session's `frame` spans.
/// -1 marks a stamp that never appeared.
struct FrameStamps {
  std::int64_t id = -1;
  SimTime capture = -1;      ///< `capture` instant
  SimTime encode_end = -1;   ///< `encode` span end (handed to the pacer)
  SimTime pace_end = -1;     ///< `pace` span end (last fragment released)
  SimTime phy_begin = -1;    ///< `phy` span begin (first fragment in modem)
  SimTime phy_end = -1;      ///< `phy` span end (last fragment drained)
  SimTime assemble_begin = -1;
  SimTime assemble_end = -1;
  SimTime display = -1;      ///< `display` instant
  double display_delay_ms = -1.0;  ///< the display instant's own delay arg
  std::int64_t bytes = 0;
  int fragments = 0;
  int mode = 0;
  int roi_i = 0;
  int roi_j = 0;
  double rv_bps = 0.0;
  bool retransmitted = false;  ///< assembled only after a retransmission
  bool abandoned = false;      ///< receiver gave up on it
  bool pacer_dropped = false;  ///< sender purged it on a PLI request
};

/// Segment names in chain order; the five sum to capture -> display.
inline constexpr const char* kSegments[] = {"encode", "pacer_wait", "uplink",
                                            "core_assemble", "playout"};
inline constexpr int kSegmentCount = 5;

struct Ledger {
  /// Per displayed, fully stamped frame: segment durations in ms.
  std::vector<double> segment_ms[kSegmentCount];
  std::vector<double> total_ms;
  std::int64_t displayed = 0;      ///< display instants seen
  std::int64_t ledgered = 0;       ///< displayed frames with every stamp
  std::int64_t incomplete = 0;     ///< displayed frames missing a stamp
  std::int64_t sum_mismatch = 0;   ///< segments != capture->display
  std::int64_t retransmitted = 0;  ///< displayed after a retransmission
  std::int64_t abandoned = 0;      ///< abandoned by the receiver
  std::int64_t pacer_dropped = 0;  ///< purged from the pacer
  std::int64_t skipped = 0;        ///< `skip` instants (sender backpressure)
  std::int64_t captured = 0;       ///< `capture` instants
  std::int64_t packets = 0;        ///< first-transmission fragments
  std::int64_t nacked_seqs = 0;    ///< seqs requested by rtp.nack/_retry
};

/// Folds one session's trace events into per-frame stamps (ordered by id).
std::vector<FrameStamps> fold_frames(const std::vector<poi360::obs::TraceEvent>& events,
                                     Ledger& counts);

/// Splits each displayed frame into the five segments and checks that they
/// sum exactly to the frame's capture -> display delay. Appends to `out`.
void build_ledger(const std::vector<FrameStamps>& frames, Ledger& out);

void merge_into(Ledger& dst, const Ledger& src);

// -- correctness --------------------------------------------------------------

/// Public frame counts of one session (or one serving summary).
struct FrameCounts {
  std::int64_t captured = 0;
  std::int64_t displayed = 0;
  std::int64_t skipped = 0;
  std::int64_t abandoned = 0;
};

/// displayed + skipped + abandoned <= captured, and displayed > 0.
bool conserves(const FrameCounts& c, std::string* why = nullptr);

/// Frames a session captures over `duration`: the capture timer fires at
/// 5 ms and then every `interval`.
std::int64_t captured_frames(SimDuration duration, SimDuration interval);

FrameCounts frame_counts(const poi360::metrics::SessionMetrics& m,
                         SimDuration duration, SimDuration interval);

/// FNV-1a over every field of every frame record.
std::uint64_t frame_digest(const std::vector<poi360::metrics::FrameRecord>& frames);
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

// -- replay inputs --------------------------------------------------------------

/// Inputs recorded from traced sessions for the standalone layer replays.
struct ReplayInputs {
  struct Frame {
    SimTime encode_end = 0;   ///< when the frame's packets reach the pacer
    SimTime phy_begin = 0;    ///< first fragment enters the modem buffer
    SimTime pace_end = 0;     ///< last fragment leaves the pacer
    SimTime assemble_begin = 0;
    SimTime assemble_end = 0; ///< -1 when never assembled
    std::int64_t bytes = 0;
    int fragments = 0;
    int mode = 0;
    int roi_i = 0;
    int roi_j = 0;
    double rv_bps = 0.0;
  };
  std::vector<Frame> frames;  ///< frames that reached the modem, by id
  std::vector<poi360::metrics::RateSample> rates;  ///< via the trace hook
  SimDuration duration = 0;
};

/// Keeps every frame that entered the modem buffer with complete pacer and
/// PHY stamps; frames that never left the sender are not replayable.
ReplayInputs record_replay_inputs(const std::vector<FrameStamps>& frames,
                                  std::vector<poi360::metrics::RateSample> rates,
                                  SimDuration duration);

}  // namespace e2ebench
