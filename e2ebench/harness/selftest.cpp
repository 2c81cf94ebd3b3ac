// Self-tests for the harness's own logic: percentiles with n, span folding
// into the delay ledger, the conservation check and the replay recorder.
// `e2ebench selftest` exits non-zero on the first failure; run.py runs it
// before every measurement.

#include <cmath>
#include <cstdio>
#include <vector>

#include "ledger.h"
#include "poi360/core/session.h"

using namespace e2ebench;
using poi360::msec;
using poi360::obs::Phase;
using poi360::obs::TraceEvent;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

TraceEvent ev(Phase ph, const char* cat, const char* name, std::int64_t id,
              poi360::SimTime t, std::initializer_list<poi360::obs::TraceArg> args = {}) {
  TraceEvent e;
  e.phase = ph;
  e.category = cat;
  e.name = name;
  e.id = id;
  e.time = t;
  for (const auto& a : args) e.args[e.n_args++] = a;
  return e;
}

/// One frame's full chain: capture at `c`, segments in ms as given.
void chain(std::vector<TraceEvent>& out, std::int64_t id, poi360::SimTime c,
           int enc, int pace, int up, int core, int play, double had_loss = 0.0,
           bool with_phy_end = true, double delay_shift_ms = 0.0) {
  const poi360::SimTime e = c + msec(enc), p = e + msec(pace), u = p + msec(up),
                        a = u + msec(core), d = a + msec(play);
  out.push_back(ev(Phase::kInstant, "frame", "capture", id, c,
                   {{"mode", 3}, {"roi_i", 5}, {"roi_j", 4}, {"rv_bps", 2e6}}));
  out.push_back(ev(Phase::kSpanBegin, "frame", "encode", id, c, {{"bytes", 9000}}));
  out.push_back(ev(Phase::kSpanEnd, "frame", "encode", id, e, {{"bytes", 9000}}));
  out.push_back(ev(Phase::kSpanBegin, "frame", "pace", id, e));
  out.push_back(ev(Phase::kSpanBegin, "frame", "phy", id, e + msec(1), {{"fragments", 8}}));
  out.push_back(ev(Phase::kSpanEnd, "frame", "pace", id, p));
  if (with_phy_end) out.push_back(ev(Phase::kSpanEnd, "frame", "phy", id, u));
  out.push_back(ev(Phase::kSpanBegin, "frame", "assemble", id, u + msec(1)));
  out.push_back(ev(Phase::kSpanEnd, "frame", "assemble", id, a,
                   {{"bytes", 9000}, {"had_loss", had_loss}}));
  out.push_back(ev(Phase::kInstant, "frame", "display", id, d,
                   {{"delay_ms", poi360::to_millis(d - c) + delay_shift_ms}}));
}

void test_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const Pct p50 = percentile(xs, 0.5);
  expect(near(p50.value, 50.5) && p50.n == 100 && p50.tail_ok, "p50 of 1..100");
  const Pct p99 = percentile(xs, 0.99);
  expect(near(p99.value, 99.01) && !p99.tail_ok, "p99 of 100 samples is not a resolved tail");
  std::vector<double> big(2000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  expect(percentile(big, 0.99).tail_ok, "p99 of 2000 samples is resolved");
  std::vector<double> none;
  const Pct empty = percentile(none, 0.5);
  expect(empty.n == 0 && empty.value == 0.0 && !empty.tail_ok, "empty percentile");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median");
}

void test_folding() {
  std::vector<TraceEvent> events;
  chain(events, 1, msec(5), 120, 10, 30, 20, 170);
  chain(events, 2, msec(33), 120, 4, 50, 140, 170, /*had_loss=*/1.0);
  // Frame 3: abandoned by the receiver, never displayed.
  events.push_back(ev(Phase::kInstant, "frame", "capture", 3, msec(61)));
  events.push_back(ev(Phase::kSpanEnd, "frame", "encode", 3, msec(181), {{"bytes", 500}}));
  events.push_back(ev(Phase::kSpanBegin, "frame", "phy", 3, msec(182), {{"fragments", 1}}));
  events.push_back(ev(Phase::kSpanEnd, "frame", "pace", 3, msec(182)));
  events.push_back(ev(Phase::kSpanBegin, "frame", "assemble", 3, msec(220)));
  events.push_back(ev(Phase::kSpanEnd, "frame", "assemble", 3, msec(900), {{"abandoned", 1.0}}));
  events.push_back(ev(Phase::kInstant, "recovery", "rtp.abandon", 3, msec(900)));
  events.push_back(ev(Phase::kInstant, "recovery", "rtp.nack", -1, msec(300), {{"seqs", 3}}));
  // Frame 4: phy end lost -> displayed but not ledgerable.
  chain(events, 4, msec(89), 120, 10, 30, 20, 170, 0.0, /*with_phy_end=*/false);
  events.push_back(ev(Phase::kInstant, "frame", "skip", -1, msec(117)));

  Ledger counts;
  const std::vector<FrameStamps> frames = fold_frames(events, counts);
  expect(frames.size() == 4, "four frames folded");
  build_ledger(frames, counts);
  expect(counts.displayed == 3, "three displayed");
  expect(counts.ledgered == 2, "two ledgered");
  expect(counts.incomplete == 1, "missing phy end is incomplete");
  expect(counts.retransmitted == 1, "had_loss counts as retransmitted");
  expect(counts.abandoned == 1, "abandoned frame counted");
  expect(counts.sum_mismatch == 0, "segments sum to capture->display");
  expect(counts.skipped == 1 && counts.captured == 4, "skip and capture counts");
  expect(counts.nacked_seqs == 3, "nack seqs counted");
  expect(counts.packets == 8 + 8 + 1 + 8, "first-transmission fragments");
  const double want[kSegmentCount] = {120, 10, 30, 20, 170};
  bool segs = true;
  for (int s = 0; s < kSegmentCount; ++s) segs &= near(counts.segment_ms[s][0], want[s]);
  expect(segs, "frame 1 segments");
  expect(near(counts.total_ms[1], 120 + 4 + 50 + 140 + 170), "frame 2 total");

  // A display instant whose own delay disagrees with the chain is caught.
  std::vector<TraceEvent> bad;
  chain(bad, 9, 0, 120, 10, 30, 20, 170, 0.0, true, /*delay_shift_ms=*/2.5);
  Ledger bad_counts;
  build_ledger(fold_frames(bad, bad_counts), bad_counts);
  expect(bad_counts.sum_mismatch == 1, "doctored display delay is a mismatch");

  // Replay recorder keeps frames that reached the modem; the abandoned one
  // keeps its PHY timing but no assembly end.
  std::vector<poi360::metrics::RateSample> rates(3);
  const ReplayInputs in = record_replay_inputs(frames, rates, poi360::sec(1));
  expect(in.frames.size() == 4, "recorder keeps every frame that entered the modem");
  expect(in.rates.size() == 3 && in.duration == poi360::sec(1), "recorder keeps rates");
  expect(in.frames[2].assemble_end == -1 && in.frames[2].bytes == 500,
         "abandoned frame has no assembly end");
  expect(in.frames[0].fragments == 8 && in.frames[0].mode == 3 && in.frames[0].roi_i == 5 &&
             near(in.frames[0].rv_bps, 2e6),
         "recorder copies fragments, mode, ROI and R_v");
  std::vector<FrameStamps> unsent(1);
  unsent[0].id = 7;
  unsent[0].encode_end = msec(10);
  expect(record_replay_inputs(unsent, {}, poi360::sec(1)).frames.empty(),
         "frames that never reached the modem are not replayed");
}

void test_conservation() {
  expect(conserves({100, 90, 5, 5}), "exactly conserved");
  expect(!conserves({100, 90, 5, 10}), "more out than captured");
  expect(!conserves({100, 0, 0, 0}), "nothing displayed");
  expect(captured_frames(poi360::sec(1), msec(25)) == 40, "capture count");

  poi360::core::SessionConfig c = poi360::core::presets::cellular_static();
  c.duration = poi360::sec(15);
  poi360::core::Session s(c);
  s.run();
  const SimDuration interval = poi360::sec(1) / c.encoder.fps;
  FrameCounts real = frame_counts(s.metrics(), c.duration, interval);
  expect(conserves(real), "a real session conserves frames");
  real.displayed += real.captured;  // doctored result
  expect(!conserves(real), "doctored session result fails conservation");
  expect(frame_digest(s.metrics().frames()) != frame_digest({}), "digest covers frames");
}

}  // namespace

int run_selftest() {
  test_percentile();
  test_folding();
  test_conservation();
  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
