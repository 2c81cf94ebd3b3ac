// Google-benchmark microbenchmarks of the hot paths: per-frame compression
// matrix construction, encoding, quality evaluation, the congestion
// controllers, head-motion sampling, and raw simulator event throughput.
// These guard against performance regressions in the components every
// session executes tens of thousands of times.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/core/adaptive_compression.h"
#include "poi360/core/fbcc.h"
#include "poi360/core/mismatch.h"
#include "poi360/core/session.h"
#include "poi360/gcc/trendline.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/lte/uplink.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/trace.h"
#include "poi360/roi/head_motion.h"
#include "poi360/rtp/receiver.h"
#include "poi360/rtp/retx.h"
#include "poi360/serve/fleet_driver.h"
#include "poi360/sim/fifo_lane.h"
#include "poi360/sim/simulator.h"
#include "poi360/video/compression.h"
#include "poi360/video/quality.h"

using namespace poi360;

static void BM_CompressionMatrix(benchmark::State& state) {
  const auto grid = video::TileGrid::paper_default();
  const video::GeometricMode mode(1.4);
  int i = 0;
  for (auto _ : state) {
    auto m = mode.matrix_for(grid, {i++ % grid.cols(), 4});
    benchmark::DoNotOptimize(m.effective_tiles());
  }
}
BENCHMARK(BM_CompressionMatrix);

// The per-frame path in Session: the (mode, ROI) matrix comes out of the
// ModeMatrixCache instead of being rebuilt.
static void BM_CompressionMatrixCached(benchmark::State& state) {
  const auto grid = video::TileGrid::paper_default();
  const video::GeometricMode mode(1.4);
  video::ModeMatrixCache cache(grid);
  cache.add_mode(3, mode);
  int i = 0;
  for (auto _ : state) {
    auto m = cache.matrix(3, {i++ % grid.cols(), 4});
    benchmark::DoNotOptimize(m->effective_tiles());
  }
}
BENCHMARK(BM_CompressionMatrixCached);

static void BM_RoiRegionPsnr(benchmark::State& state) {
  const auto grid = video::TileGrid::paper_default();
  const video::GeometricMode mode(1.4);
  const auto matrix = mode.matrix_for(grid, {6, 4});
  const video::QualityModel model;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video::roi_region_psnr(
        model, grid, matrix, {i++ % grid.cols(), 4}, 0.06));
  }
}
BENCHMARK(BM_RoiRegionPsnr);

// First-touch quality evaluation: a freshly built matrix per iteration, so
// the PSNR ring sidecar's freeze (per-tile factors + per-center partial
// sums) is inside the timed region. This is what a session pays once per
// (mode, ROI) matrix, amortized across every later display.
static void BM_RoiRegionPsnrCold(benchmark::State& state) {
  const auto grid = video::TileGrid::paper_default();
  const video::GeometricMode mode(1.4);
  const video::QualityModel model;
  int i = 0;
  for (auto _ : state) {
    const auto matrix = mode.matrix_for(grid, {i++ % grid.cols(), 4});
    benchmark::DoNotOptimize(
        video::roi_region_psnr(model, grid, matrix, {6, 4}, 0.06));
  }
}
BENCHMARK(BM_RoiRegionPsnrCold);

// Steady state: a cache-shared matrix whose sidecar is already frozen,
// evaluated at a varying display ROI — the per-displayed-frame cost inside
// Session::on_display.
static void BM_RoiRegionPsnrWarm(benchmark::State& state) {
  const auto grid = video::TileGrid::paper_default();
  const video::GeometricMode mode(1.4);
  video::ModeMatrixCache cache(grid);
  cache.add_mode(3, mode);
  const auto matrix = cache.matrix(3, {6, 4});
  const video::QualityModel model;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video::roi_region_psnr(
        model, grid, *matrix, {i++ % grid.cols(), 4}, 0.06));
  }
}
BENCHMARK(BM_RoiRegionPsnrWarm);

static void BM_TrendlineUpdate(benchmark::State& state) {
  gcc::TrendlineEstimator trendline;
  SimTime send = 0, arrival = msec(40);
  for (auto _ : state) {
    send += msec(28);
    arrival += msec(28) + (send % msec(3));
    benchmark::DoNotOptimize(trendline.update(send, arrival));
  }
}
BENCHMARK(BM_TrendlineUpdate);

static void BM_FbccOnDiag(benchmark::State& state) {
  core::FbccController fbcc(mbps(3));
  lte::DiagReport report{.time = 0,
                         .buffer_bytes = 8000,
                         .tbs_bytes = 15000,
                         .interval = msec(40)};
  for (auto _ : state) {
    report.time += msec(40);
    report.buffer_bytes = 6000 + (report.time / msec(40)) % 4000;
    fbcc.on_diag(report);
    benchmark::DoNotOptimize(fbcc.rtp_rate());
  }
}
BENCHMARK(BM_FbccOnDiag);

static void BM_HeadMotionSample(benchmark::State& state) {
  roi::StochasticHeadMotion motion({}, 42);
  SimTime t = 0;
  for (auto _ : state) {
    t += msec(28);
    benchmark::DoNotOptimize(motion.orientation_at(t % sec(600)));
  }
}
BENCHMARK(BM_HeadMotionSample);

static void BM_MismatchTracker(benchmark::State& state) {
  core::MismatchTracker tracker;
  SimTime t = 0;
  int i = 0;
  for (auto _ : state) {
    t += msec(28);
    const double level = (i++ % 40 < 10) ? 1.6 : 1.0;
    benchmark::DoNotOptimize(
        tracker.on_frame(t, msec(420), level, 1.0, {i % 12, 4}));
  }
}
BENCHMARK(BM_MismatchTracker);

static void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    long counter = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_at(msec(i), [&counter]() { ++counter; });
    }
    simulator.run_until(sec(2));
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEvents);

// One-shot events whose capture is the size of a link's packet delivery
// ([this, RtpPacket, SimTime] = 72 bytes), past std::function's inline
// buffer, so each one allocates. This prices only the chaos fallback: a
// delivery that leaves its FIFO lane for the heap (a reordered or
// duplicated packet), which no benchmark workload takes.
static void BM_SimulatorPayloadEvents(benchmark::State& state) {
  struct Payload {
    std::int64_t words[9];
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    long counter = 0;
    Payload payload{};
    payload.words[0] = 1;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_at(
          msec(i), [&counter, payload]() { counter += payload.words[0]; });
    }
    simulator.run_until(sec(2));
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorPayloadEvents);

// The same 1000 deliveries pushed through a FIFO lane, as every link
// delivery, frame handoff and display is: the payload waits in the lane's
// ring and is handed straight to the consumer, with no callback built and
// no heap sift per item.
static void BM_SimulatorLaneEvents(benchmark::State& state) {
  struct Payload {
    std::int64_t words[9];
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    long counter = 0;
    sim::FifoLane<Payload> lane(
        simulator, [&counter](Payload p, SimTime) { counter += p.words[0]; });
    Payload payload{};
    payload.words[0] = 1;
    for (int i = 0; i < 1000; ++i) lane.push(msec(i), payload);
    simulator.run_until(sec(2));
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorLaneEvents);

// The tracing hot path in its two states, guarding the "zero overhead
// when disabled" contract. Disabled = the null-pointer test every
// instrumented component performs with tracing off (the only cost clean
// runs pay); Enabled = a full span begin/end pair into the recorder.
static void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder* trace = nullptr;
  SimTime t = 0;
  long hits = 0;
  for (auto _ : state) {
    t += msec(1);
    if (trace) {
      trace->span_begin(t, "frame", "pace", t, {{"x", 1.0}});
      trace->span_end(t, "frame", "pace", t);
    } else {
      ++hits;
    }
    benchmark::DoNotOptimize(trace);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

static void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::TraceRecorder recorder(1 << 12);
  SimTime t = 0;
  for (auto _ : state) {
    t += msec(1);
    recorder.span_begin(t, "frame", "pace", t, {{"x", 1.0}});
    recorder.span_end(t, "frame", "pace", t);
    benchmark::DoNotOptimize(recorder.recorded());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TraceSpanEnabled);

// Labeled-series resolution on a warm registry: the map lookup a driver
// pays when it has NOT cached the returned reference. Registration caches
// pointers on the hot path, so this prices the fallback (and the publish
// loop's per-period lookups) against a registry of fleet-scale cardinality.
static void BM_LabeledCounterLookup(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int cell = 0; cell < 16; ++cell) {
    for (const char* rung : {"FBCC/POI360", "GCC/POI360"}) {
      registry.counter("slo.breach", {{"cell", std::to_string(cell)},
                                      {"rung", rung},
                                      {"objective", "freeze_ratio"}});
    }
  }
  const obs::Labels labels{
      {"cell", "7"}, {"rung", "GCC/POI360"}, {"objective", "freeze_ratio"}};
  for (auto _ : state) {
    obs::Counter& c = registry.counter("slo.breach", labels);
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_LabeledCounterLookup);

// The pure per-session sampling decision every admission makes when a
// trace budget is configured: one SplitMix64 mix of the session seed
// against the keep fraction. Must stay a handful of ns — it sits on the
// soak/fleet admission path for every arriving session.
static void BM_TraceSampleDecision(benchmark::State& state) {
  obs::TraceSampler sampler(
      obs::TraceSampleConfig{.keep_fraction = 0.25, .max_concurrent = 0});
  std::uint64_t seed = 0;
  long kept = 0;
  for (auto _ : state) {
    if (sampler.keeps(++seed)) ++kept;
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_TraceSampleDecision);

// A session's fixed-cadence streams over one simulated second: the 1 ms
// subframe tick, the 5 ms pacer tick, frame capture (~28 ms), and the
// 40 ms diag report. This is the dominant event population of every run.
static void BM_SimulatorPeriodic(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    long counter = 0;
    simulator.schedule_periodic(msec(1), msec(1), [&counter]() { ++counter; });
    simulator.schedule_periodic(msec(5), msec(5), [&counter]() { ++counter; });
    simulator.schedule_periodic(msec(28), msec(28),
                                [&counter]() { ++counter; });
    simulator.schedule_periodic(msec(40), msec(40),
                                [&counter]() { ++counter; });
    simulator.run_until(sec(1));
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1285);
}
BENCHMARK(BM_SimulatorPeriodic);

// The fleet cell's per-subframe scheduling query: one UE's proportional-fair
// share off the committed demand snapshot plus the piecewise-constant
// background timeline. Every cellular session pays this once per millisecond
// when a fleet cell is attached, so it must stay a couple of lookups — no
// allocation, no RNG beyond the timeline frontier extension.
static void BM_SharedCellShare(benchmark::State& state) {
  lte::SharedCell cell({}, 42);
  const int a = cell.register_ue(1.0);
  const int b = cell.register_ue(1.0);
  cell.report_demand(a, 10000);
  cell.report_demand(b, 10000);
  cell.commit_demand();
  SimTime t = 0;
  for (auto _ : state) {
    t += msec(1);
    benchmark::DoNotOptimize(cell.share(a, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedCellShare);

// Steady-state FleetCell stepping: 4 full sessions (mixed FBCC/GCC ladder)
// sharing one cell, advanced one 100 ms quantum per iteration. Items =
// session-quanta, so items/s prices the per-session step cost the fleet
// perf gate bounds.
static void BM_FleetSessionStep(benchmark::State& state) {
  serve::FleetConfig config;
  config.cells = 1;
  config.sessions_per_cell = 4;
  config.duration = sec(86400);  // never reached; the bench paces time
  serve::FleetCell cell(config, 0);
  cell.start();
  SimTime t = 0;
  for (auto _ : state) {
    t += msec(100);
    cell.advance_to(t);
  }
  state.SetItemsProcessed(state.iterations() * config.sessions_per_cell);
}
BENCHMARK(BM_FleetSessionStep);

// One standard normal from the owned polar-method distribution; the spare
// deviate halves the log/sqrt/engine work per draw.
static void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
  }
}
BENCHMARK(BM_RngNormal);

// One simulated second of a saturated LTE uplink on the paper's default
// channel: 250 grants (channel + telegraph steps, BSR, TBS drain) and 40
// diagnostic reports, fed by a 12 Mbps source every 5 ms.
static void BM_LteUplinkSecond(benchmark::State& state) {
  struct Blob {
    std::int64_t bytes = 0;
  };
  sim::Simulator simulator;
  std::int64_t drained = 0;
  lte::LteUplink<Blob> uplink(simulator, lte::ChannelConfig{},
                              lte::UplinkConfig{}, 1,
                              [&](Blob b, SimTime) { drained += b.bytes; });
  uplink.set_diag_sink([](const lte::DiagReport&) {});
  uplink.start();
  simulator.schedule_periodic(msec(5), msec(5), [&]() {
    uplink.push(Blob{bytes_at_rate(mbps(12), msec(5))});
  });
  SimTime t = 0;
  for (auto _ : state) {
    t += sec(1);
    simulator.run_until(t);
  }
  benchmark::DoNotOptimize(drained);
}
BENCHMARK(BM_LteUplinkSecond);

// One raw draw of the owned MT19937-64 engine under every Rng; its block
// refill is amortized over the 312 draws of each block.
static void BM_RngEngineDraw(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.engine()());
  }
}
BENCHMARK(BM_RngEngineDraw);

// One paper-config cellular session constructed and started (its periodic
// streams scheduled): what every batch run, fleet slot and soak arrival
// pays once before its first event. After the first iteration the process
// holds the configuration's shared compression-mode tables, so this is the
// warm-process build.
static void BM_SessionBuild(benchmark::State& state) {
  const core::SessionConfig config;
  for (auto _ : state) {
    core::Session session(config);
    session.start();
    benchmark::DoNotOptimize(session.now());
  }
}
BENCHMARK(BM_SessionBuild);

// One sent packet recorded in a full 8192-slot retransmission history: the
// new seq overwrites slot `seq mod 8192` (48 bytes: the seq, the fields a
// retransmission re-sends and the retransmission word), which held the seq
// sent 8192 packets before it. Every packet the pacer releases pays this
// once. The packets come from a prebuilt ring of 4096 consecutive seqs
// (8-fragment frames), each moved on by 4096 once inserted, so it is read
// again 4096 inserts after that store; bumping one packet's seq right
// before each insert would price the loop's own store-to-load forwarding
// instead of the cache.
static void BM_SentPacketCacheInsert(benchmark::State& state) {
  constexpr std::int64_t kBatch = 4096;
  rtp::SentPacketCache cache;
  std::vector<rtp::RtpPacket> packets(kBatch);
  for (std::int64_t i = 0; i < kBatch; ++i) {
    packets[i].seq = i;
    packets[i].frame_id = i / 8;
    packets[i].fragment = static_cast<int>(i % 8);
    packets[i].fragments = 8;
    packets[i].bytes = 1200;
    packets[i].capture_time = msec(28) * (i / 8);
  }
  std::size_t next = 0;
  auto insert_next = [&] {
    rtp::RtpPacket& packet = packets[next];
    cache.insert(packet);
    packet.seq += kBatch;
    next = (next + 1) % kBatch;
  };
  for (int i = 0; i < 2 * 8192; ++i) insert_next();
  for (auto _ : state) insert_next();
  benchmark::DoNotOptimize(
      cache.claim_retransmission(packets[next].seq - 1, 0, 0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SentPacketCacheInsert);

// One 8-fragment frame through RtpReceiver::on_packet, in order and
// loss-free: assembly open/close, staleness check, arrival log and the
// completion callback.
static void BM_ReceiverFrame(benchmark::State& state) {
  sim::Simulator simulator;
  std::int64_t completed = 0;
  rtp::RtpReceiver receiver(
      simulator, rtp::RtpReceiver::Config{},
      [&completed](const rtp::RtpReceiver::CompletedFrame&) { ++completed; },
      [](const std::vector<std::int64_t>&) {});
  rtp::RtpPacket packet;
  packet.fragments = 8;
  packet.bytes = 1200;
  SimTime arrival = 0;
  for (auto _ : state) {
    for (int f = 0; f < 8; ++f) {
      packet.fragment = f;
      arrival += 400;
      receiver.on_packet(packet, arrival);
      ++packet.seq;
    }
    ++packet.frame_id;
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReceiverFrame);

// Entry point: google-benchmark's main plus an `--out-json <path>` alias for
// `--benchmark_out=<path> --benchmark_out_format=json`, matching the flag
// the experiment benches take and what tools/check_perf.py consumes.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end(); ++it) {
    const std::string_view a(*it);
    if (a == "--out-json" && std::next(it) != args.end()) {
      out_flag = std::string("--benchmark_out=") + *std::next(it);
      it = args.erase(it, it + 2);
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
      break;
    }
    if (a.rfind("--out-json=", 0) == 0) {
      out_flag =
          std::string("--benchmark_out=") + std::string(a.substr(11));
      it = args.erase(it);
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
      break;
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
