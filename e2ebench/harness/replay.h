#pragma once

// Standalone layer replays: each drives one library layer through its public
// API with inputs recorded from a workload's own traced sessions, and
// reports host time and work counts. Nothing here runs a full Session.

#include <cstdint>
#include <vector>

#include "ledger.h"
#include "poi360/core/config.h"

namespace e2ebench {

struct ReplayCost {
  double host_ns = 0.0;      ///< wall time of the replay
  std::int64_t work = 0;     ///< layer operations performed (see each replay)
  std::int64_t events = 0;   ///< simulator events the replay fired
};

/// Bare Simulator: the session's periodic lanes (subframe, diag, capture,
/// feedback, pacer, receiver retry, throughput, watchdogs) plus one-shot
/// events at the recorded per-frame and per-packet times. work = events.
ReplayCost replay_sim(const poi360::core::SessionConfig& config,
                      const ReplayInputs& in);

/// LteUplink fed the recorded fragment arrivals (spread between each
/// frame's phy begin and pace end). work = subframes.
ReplayCost replay_lte(const poi360::core::SessionConfig& config,
                      const ReplayInputs& in);

/// SharedCell::share for `ues` sessions (+ `extra` cross-traffic UEs) every
/// subframe, demand taken from the recorded firmware-buffer samples of
/// `inputs[k % inputs.size()]`. work = report_demand+share pairs.
ReplayCost replay_share(const std::vector<const ReplayInputs*>& inputs,
                        int ues, int extra_ues);

/// Pacer fed the recorded frames at their encode end, rate following the
/// recorded R_rtp samples. work = pacer ticks.
ReplayCost replay_pacer(const poi360::core::SessionConfig& config,
                        const ReplayInputs& in);

/// RtpReceiver fed the recorded frames' fragments spread over their
/// assembly windows. host_ns covers only the on_packet calls. work = packets.
ReplayCost replay_receiver(const poi360::core::SessionConfig& config,
                           const ReplayInputs& in);

/// GccSender::on_feedback over feedback built from the recorded rate
/// samples, repeated to at least `min_calls`. work = calls.
ReplayCost replay_gcc(const poi360::core::SessionConfig& config,
                      const ReplayInputs& in, std::int64_t min_calls);

/// FbccController::on_diag over diag reports rebuilt from the recorded rate
/// samples, repeated to at least `min_calls`. work = calls.
ReplayCost replay_fbcc(const poi360::core::SessionConfig& config,
                       const ReplayInputs& in, std::int64_t min_calls);

/// PanoramicEncoder::encode for every recorded capture (mode, ROI, R_v),
/// then roi_region_psnr for each encoded frame. work = frames.
struct VideoCost {
  ReplayCost encode;
  ReplayCost psnr;
};
VideoCost replay_video(const poi360::core::SessionConfig& config,
                       const ReplayInputs& in);

}  // namespace e2ebench
