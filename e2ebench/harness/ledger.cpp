#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

namespace e2ebench {

using poi360::obs::Phase;
using poi360::obs::TraceEvent;

Pct percentile(std::vector<double>& xs, double p) {
  Pct out;
  out.n = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  out.value = xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
  // Order statistics strictly above the interpolation point.
  const std::size_t beyond = xs.size() - 1 - lo;
  out.tail_ok = beyond >= 10;
  return out;
}

double median(std::vector<double> xs) { return percentile(xs, 0.5).value; }

namespace {

bool is(const char* a, const char* b) { return a && std::strcmp(a, b) == 0; }

double arg(const TraceEvent& e, const char* key, double fallback = 0.0) {
  for (int i = 0; i < e.n_args; ++i) {
    if (is(e.args[i].key, key)) return e.args[i].value;
  }
  return fallback;
}

}  // namespace

std::vector<FrameStamps> fold_frames(const std::vector<TraceEvent>& events,
                                     Ledger& counts) {
  std::map<std::int64_t, FrameStamps> frames;
  auto at = [&](std::int64_t id) -> FrameStamps& {
    FrameStamps& f = frames[id];
    f.id = id;
    return f;
  };
  for (const TraceEvent& e : events) {
    if (is(e.category, "recovery")) {
      if (is(e.name, "rtp.abandon")) {
        at(e.id).abandoned = true;
      } else if (is(e.name, "pacer.drop_frame")) {
        at(e.id).pacer_dropped = true;
      } else if (is(e.name, "rtp.nack") || is(e.name, "rtp.nack_retry")) {
        counts.nacked_seqs += static_cast<std::int64_t>(arg(e, "seqs"));
      }
      continue;
    }
    if (!is(e.category, "frame")) continue;
    if (is(e.name, "skip")) {
      ++counts.skipped;
      continue;
    }
    if (e.id < 0) continue;
    FrameStamps& f = at(e.id);
    const bool begin = e.phase == Phase::kSpanBegin;
    const bool end = e.phase == Phase::kSpanEnd;
    if (is(e.name, "capture")) {
      ++counts.captured;
      f.capture = e.time;
      f.mode = static_cast<int>(arg(e, "mode"));
      f.roi_i = static_cast<int>(arg(e, "roi_i"));
      f.roi_j = static_cast<int>(arg(e, "roi_j"));
      f.rv_bps = arg(e, "rv_bps");
    } else if (is(e.name, "encode") && end) {
      f.encode_end = e.time;
      f.bytes = static_cast<std::int64_t>(arg(e, "bytes"));
    } else if (is(e.name, "pace") && end) {
      if (f.pace_end < 0) f.pace_end = e.time;
    } else if (is(e.name, "phy") && begin) {
      f.phy_begin = e.time;
      f.fragments = static_cast<int>(arg(e, "fragments"));
      counts.packets += f.fragments;
    } else if (is(e.name, "phy") && end) {
      f.phy_end = e.time;
    } else if (is(e.name, "assemble") && begin) {
      f.assemble_begin = e.time;
    } else if (is(e.name, "assemble") && end) {
      f.assemble_end = e.time;
      if (arg(e, "had_loss") > 0.0) f.retransmitted = true;
      if (arg(e, "abandoned") > 0.0) f.abandoned = true;
    } else if (is(e.name, "display")) {
      f.display = e.time;
      f.display_delay_ms = arg(e, "delay_ms", -1.0);
    }
  }
  std::vector<FrameStamps> out;
  out.reserve(frames.size());
  for (auto& [id, f] : frames) out.push_back(f);
  return out;
}

void build_ledger(const std::vector<FrameStamps>& frames, Ledger& out) {
  for (const FrameStamps& f : frames) {
    if (f.abandoned) ++out.abandoned;
    if (f.pacer_dropped) ++out.pacer_dropped;
    if (f.display < 0) continue;
    ++out.displayed;
    if (f.retransmitted) ++out.retransmitted;
    const SimTime chain[] = {f.capture, f.encode_end, f.pace_end, f.phy_end,
                             f.assemble_end, f.display};
    bool complete = true;
    for (int i = 0; i < 6; ++i) {
      if (chain[i] < 0 || (i > 0 && chain[i] < chain[i - 1])) complete = false;
    }
    if (!complete) {
      ++out.incomplete;
      continue;
    }
    ++out.ledgered;
    SimDuration sum = 0;
    for (int s = 0; s < kSegmentCount; ++s) {
      const SimDuration d = chain[s + 1] - chain[s];
      sum += d;
      out.segment_ms[s].push_back(poi360::to_millis(d));
    }
    // The display instant carries the session's own capture->display delay;
    // the segments must account for all of it, to the microsecond.
    const double total = poi360::to_millis(sum);
    if (std::abs(total - f.display_delay_ms) > 1e-3 ||
        sum != f.display - f.capture) {
      ++out.sum_mismatch;
    }
    out.total_ms.push_back(total);
  }
}

void merge_into(Ledger& dst, const Ledger& src) {
  for (int s = 0; s < kSegmentCount; ++s) {
    dst.segment_ms[s].insert(dst.segment_ms[s].end(), src.segment_ms[s].begin(),
                             src.segment_ms[s].end());
  }
  dst.total_ms.insert(dst.total_ms.end(), src.total_ms.begin(), src.total_ms.end());
  dst.displayed += src.displayed;
  dst.ledgered += src.ledgered;
  dst.incomplete += src.incomplete;
  dst.sum_mismatch += src.sum_mismatch;
  dst.retransmitted += src.retransmitted;
  dst.abandoned += src.abandoned;
  dst.pacer_dropped += src.pacer_dropped;
  dst.skipped += src.skipped;
  dst.captured += src.captured;
  dst.packets += src.packets;
  dst.nacked_seqs += src.nacked_seqs;
}

bool conserves(const FrameCounts& c, std::string* why) {
  if (c.displayed <= 0) {
    if (why) *why = "no frame displayed";
    return false;
  }
  if (c.displayed + c.skipped + c.abandoned > c.captured) {
    if (why) {
      *why = "displayed+skipped+abandoned=" +
             std::to_string(c.displayed + c.skipped + c.abandoned) +
             " > captured=" + std::to_string(c.captured);
    }
    return false;
  }
  return true;
}

std::int64_t captured_frames(SimDuration duration, SimDuration interval) {
  const SimTime first = poi360::msec(5);
  if (duration < first || interval <= 0) return 0;
  return (duration - first) / interval + 1;
}

FrameCounts frame_counts(const poi360::metrics::SessionMetrics& m,
                         SimDuration duration, SimDuration interval) {
  const auto& reg = m.registry();
  return FrameCounts{
      .captured = captured_frames(duration, interval),
      .displayed = m.displayed_frames(),
      .skipped = m.skipped_frames(),
      .abandoned = reg.counter_value("transport.frames_abandoned") +
                   reg.counter_value("transport.assembly_evictions"),
  };
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t frame_digest(const std::vector<poi360::metrics::FrameRecord>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& f : frames) {
    const std::int64_t ints[] = {f.frame_id, f.capture_time, f.display_time,
                                 f.delay, static_cast<std::int64_t>(f.mos),
                                 f.mode_id, f.roi_mismatch ? 1 : 0};
    const double reals[] = {f.roi_level, f.min_level, f.roi_psnr_db};
    h = fnv1a(h, ints, sizeof(ints));
    h = fnv1a(h, reals, sizeof(reals));
  }
  return h;
}

ReplayInputs record_replay_inputs(const std::vector<FrameStamps>& frames,
                                  std::vector<poi360::metrics::RateSample> rates,
                                  SimDuration duration) {
  ReplayInputs in;
  in.duration = duration;
  in.rates = std::move(rates);
  for (const FrameStamps& f : frames) {
    if (f.encode_end < 0 || f.phy_begin < 0 || f.pace_end < f.phy_begin ||
        f.fragments <= 0 || f.bytes <= 0) {
      continue;
    }
    in.frames.push_back(ReplayInputs::Frame{
        .encode_end = f.encode_end,
        .phy_begin = f.phy_begin,
        .pace_end = f.pace_end,
        .assemble_begin = f.assemble_begin,
        .assemble_end = f.abandoned ? -1 : f.assemble_end,
        .bytes = f.bytes,
        .fragments = f.fragments,
        .mode = f.mode,
        .roi_i = f.roi_i,
        .roi_j = f.roi_j,
        .rv_bps = f.rv_bps,
    });
  }
  return in;
}

}  // namespace e2ebench
