// Fleet-layer tests: the SharedCell proportional-fair scheduler with
// registered UEs, the admission controller's pricing, and the FleetDriver
// end-to-end gates (FleetGate.*) that the fleet sanitizer gates re-run under
// asan/tsan. The background process's draw-identity contract lives in
// test_lte_shared_cell.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "poi360/common/json.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/serve/admission.h"
#include "poi360/serve/fleet_driver.h"

using namespace poi360;

namespace {

TEST(SharedCell, SharesSplitAmongBackloggedUes) {
  // No background users: shares are a pure function of the committed demand.
  lte::SharedCell::Config config;
  config.background.background_users = 0;
  lte::SharedCell cell(config, 1);
  const int a = cell.register_ue(1.0);
  const int b = cell.register_ue(1.0);
  const int c = cell.register_ue(2.0);

  // Nothing committed yet: each asker only counts itself.
  EXPECT_DOUBLE_EQ(1.0, cell.share(a, msec(1)));

  cell.report_demand(a, 5000);
  cell.report_demand(b, 5000);
  cell.report_demand(c, 5000);
  cell.commit_demand();
  EXPECT_DOUBLE_EQ(1.0 / 4.0, cell.share(a, msec(2)));
  EXPECT_DOUBLE_EQ(1.0 / 4.0, cell.share(b, msec(2)));
  EXPECT_DOUBLE_EQ(2.0 / 4.0, cell.share(c, msec(2)));

  // b drains: its weight leaves the denominator at the next commit, and an
  // idle b still prices itself into its own share (grant-slot cost).
  cell.report_demand(b, 0);
  cell.commit_demand();
  EXPECT_DOUBLE_EQ(1.0 / 3.0, cell.share(a, msec(3)));
  EXPECT_DOUBLE_EQ(2.0 / 3.0, cell.share(c, msec(3)));
  EXPECT_DOUBLE_EQ(1.0 / 4.0, cell.share(b, msec(3)));
}

TEST(SharedCell, LiveDemandInvisibleUntilCommit) {
  lte::SharedCell::Config config;
  config.background.background_users = 0;
  lte::SharedCell cell(config, 1);
  const int a = cell.register_ue(1.0);
  const int b = cell.register_ue(1.0);
  cell.report_demand(a, 1000);
  cell.report_demand(b, 1000);
  cell.commit_demand();
  EXPECT_DOUBLE_EQ(0.5, cell.share(a, msec(1)));
  // b reports empty mid-quantum: a's share must not move until the boundary.
  cell.report_demand(b, 0);
  EXPECT_DOUBLE_EQ(0.5, cell.share(a, msec(2)));
  cell.commit_demand();
  EXPECT_DOUBLE_EQ(1.0, cell.share(a, msec(3)));
}

// The fleet driver interleaves sessions one quantum at a time, so UE B asks
// about times UE A already passed. Re-querying an earlier time must return
// exactly what was returned the first time (the background timeline is a
// recording, not a destructive advance).
TEST(SharedCell, NonMonotoneQueriesAreConsistent) {
  lte::SharedCell cell({}, 9);
  const int ue = cell.register_ue(1.0);
  cell.report_demand(ue, 1);
  cell.commit_demand();
  std::vector<double> first;
  for (SimTime t = 0; t <= sec(3); t += msec(7)) {
    first.push_back(cell.share(ue, t));
  }
  // Frontier is now at 3 s; replay the same grid backwards.
  std::size_t i = first.size();
  for (SimTime t = sec(3) - (sec(3) % msec(7)); t >= 0; t -= msec(7)) {
    ASSERT_DOUBLE_EQ(first[--i], cell.share(ue, t)) << "t=" << t;
    if (t == 0) break;
  }
}

TEST(SharedCell, TrimKeepsCoveringSegment) {
  lte::SharedCell cell({}, 9);
  const int ue = cell.register_ue(1.0);
  cell.report_demand(ue, 1);
  cell.commit_demand();
  const double at_2s = cell.share(ue, sec(2));
  const double at_5s = cell.share(ue, sec(5));
  cell.trim(sec(2));
  // The segment covering 2 s survives a trim at 2 s.
  EXPECT_DOUBLE_EQ(at_2s, cell.share(ue, sec(2)));
  EXPECT_DOUBLE_EQ(at_5s, cell.share(ue, sec(5)));
}

TEST(SharedCell, ProspectiveSharePricesAnArrival) {
  lte::SharedCell::Config config;
  config.background.background_users = 0;
  lte::SharedCell cell(config, 1);
  EXPECT_DOUBLE_EQ(1.0, cell.prospective_share(msec(1)));
  const int a = cell.register_ue(1.0);
  cell.report_demand(a, 100);
  cell.commit_demand();
  EXPECT_DOUBLE_EQ(0.5, cell.prospective_share(msec(2)));
}

TEST(SharedCell, RejectsNonPositiveWeight) {
  lte::SharedCell cell({}, 1);
  EXPECT_THROW(cell.register_ue(0.0), std::invalid_argument);
  EXPECT_THROW(cell.register_ue(-1.0), std::invalid_argument);
}

TEST(CellHandle, DetachedHandleIsInert) {
  lte::CellHandle handle;
  EXPECT_FALSE(handle.attached());
  EXPECT_DOUBLE_EQ(1.0, handle.share(sec(1)));
  handle.report_backlog(1000);  // must be a no-op, not a crash
}

// The controller's own cell prices arrivals: with no background users the
// share is 1.0, and admitted demand is reserved out of the headroom.
TEST(Admission, AttachedCellDrivesHeadroom) {
  serve::AdmissionController::Config config;
  config.cell.background_users = 0;  // full share
  serve::AdmissionController admission(config, 1);
  const Bitrate base = admission.headroom(msec(1));
  EXPECT_DOUBLE_EQ(config.cell_capacity * config.headroom_fraction, base);

  admission.on_admitted(mbps(100));
  EXPECT_DOUBLE_EQ(base - mbps(100), admission.headroom(msec(3)));
}

TEST(Fleet, JainIndexBasics) {
  EXPECT_DOUBLE_EQ(0.0, serve::jain_index({}));
  EXPECT_DOUBLE_EQ(1.0, serve::jain_index({2.0, 2.0, 2.0}));
  // One user hogging everything: J -> 1/n.
  EXPECT_NEAR(1.0 / 3.0, serve::jain_index({1.0, 0.0, 0.0}), 1e-12);
}

TEST(Fleet, RungLabels) {
  serve::FleetRung rung;
  EXPECT_EQ("FBCC/POI360", serve::to_string(rung));
  rung.rate_control = core::RateControl::kGcc;
  rung.compression = core::CompressionScheme::kConduit;
  EXPECT_EQ("GCC/Conduit", serve::to_string(rung));
}

serve::FleetConfig small_fleet() {
  serve::FleetConfig config;
  config.cells = 2;
  config.sessions_per_cell = 4;
  config.duration = sec(6);
  config.seed = 3;
  return config;
}

// Sharding cells across workers must not change a single byte of the report.
TEST(FleetGate, DeterministicAcrossJobs) {
  serve::FleetConfig config = small_fleet();
  config.jobs = 1;
  const serve::FleetSummary serial = serve::FleetDriver(config).run();
  config.jobs = 4;
  const serve::FleetSummary sharded = serve::FleetDriver(config).run();
  EXPECT_EQ(serve::to_text(serial), serve::to_text(sharded));
  EXPECT_EQ(serve::to_json(serial), serve::to_json(sharded));
  EXPECT_EQ(0, serial.failed_sessions);
}

// Cells built and stepped on two parallel_for workers at once. Every
// session fetches its compression-mode tables from the process-wide
// registry; the cells use configurations no other test uses, two of them
// shared and the others distinct, so first lookups and insertions race on
// the registry (under fleet_tsan_gate). Each cell's results equal the same
// cell run alone.
TEST(FleetGate, SharedModeTablesAcrossWorkers) {
  serve::FleetConfig base = small_fleet();
  base.cells = 1;
  base.sessions_per_cell = 3;
  base.duration = sec(3);
  base.session.pyramid_c = 1.31;
  base.ladder = {{core::RateControl::kFbcc, core::CompressionScheme::kPoi360},
                 {core::RateControl::kGcc, core::CompressionScheme::kConduit},
                 {core::RateControl::kGcc, core::CompressionScheme::kPyramid}};
  std::vector<serve::FleetConfig> configs(4, base);
  configs[1].seed = 4;  // same tables as cell 0
  configs[2].session.pyramid_c = 1.32;
  configs[3].session.conduit_fov_radius = 2;

  auto run_cell = [](const serve::FleetConfig& config) {
    serve::FleetCell cell(config, 0);
    cell.start();
    for (SimTime t = 0; t < config.duration;) {
      t = std::min<SimTime>(t + config.advance_quantum, config.duration);
      cell.advance_to(t);
    }
    cell.finish();
    return cell.results();
  };
  std::vector<std::vector<serve::FleetSessionResult>> sharded(configs.size());
  runner::BatchRunner::parallel_for(
      2, configs.size(),
      [&](std::size_t k) { sharded[k] = run_cell(configs[k]); });

  for (std::size_t k = 0; k < configs.size(); ++k) {
    const std::vector<serve::FleetSessionResult> alone = run_cell(configs[k]);
    ASSERT_EQ(alone.size(), sharded[k].size());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      const serve::FleetSessionResult& a = alone[i];
      const serve::FleetSessionResult& b = sharded[k][i];
      EXPECT_TRUE(b.ok) << b.error;
      EXPECT_GT(b.displayed_frames, 0) << "cell " << k << " slot " << i;
      EXPECT_EQ(a.displayed_frames, b.displayed_frames);
      EXPECT_EQ(a.mean_throughput_mbps, b.mean_throughput_mbps);
      EXPECT_EQ(a.freeze_ratio, b.freeze_ratio);
      EXPECT_EQ(a.mean_delay_ms, b.mean_delay_ms);
      EXPECT_EQ(a.mean_roi_psnr_db, b.mean_roi_psnr_db);
    }
  }
}

// Mixed FBCC/GCC population on one cell: every session must make progress
// and the fairness indices must be meaningful (in (0, 1], both rung
// populations reported).
TEST(FleetGate, MixedLadderFairnessSmoke) {
  serve::FleetConfig config = small_fleet();
  config.cells = 1;
  config.sessions_per_cell = 6;
  config.duration = sec(8);
  const serve::FleetSummary summary = serve::FleetDriver(config).run();
  ASSERT_EQ(6u, summary.sessions.size());
  EXPECT_EQ(0, summary.failed_sessions);
  for (const serve::FleetSessionResult& s : summary.sessions) {
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_GT(s.displayed_frames, 0) << "cell " << s.cell << " slot "
                                     << s.index;
    EXPECT_GT(s.mean_throughput_mbps, 0.0);
  }
  EXPECT_GT(summary.jain_all, 0.0);
  EXPECT_LE(summary.jain_all, 1.0 + 1e-12);
  ASSERT_EQ(2u, summary.jain_by_rung.size());
  EXPECT_EQ("FBCC/POI360", summary.jain_by_rung[0].first);
  EXPECT_EQ("GCC/POI360", summary.jain_by_rung[1].first);
  for (const auto& [rung, jain] : summary.jain_by_rung) {
    EXPECT_GT(jain, 0.0) << rung;
    EXPECT_LE(jain, 1.0 + 1e-12) << rung;
  }
}

// More sessions sharing the same cell must depress per-session throughput —
// the contention is real, not cosmetic.
TEST(FleetGate, ContentionDepressesPerSessionThroughput) {
  serve::FleetConfig config = small_fleet();
  config.cells = 1;
  config.sessions_per_cell = 1;
  config.ladder = {{core::RateControl::kFbcc,
                    core::CompressionScheme::kPoi360}};
  config.voice.count = 0;
  config.ftp.count = 0;
  const serve::FleetSummary solo = serve::FleetDriver(config).run();
  config.sessions_per_cell = 8;
  const serve::FleetSummary crowded = serve::FleetDriver(config).run();
  ASSERT_EQ(0, solo.failed_sessions);
  ASSERT_EQ(0, crowded.failed_sessions);
  EXPECT_LT(crowded.mean_throughput_mbps,
            0.7 * solo.mean_throughput_mbps);
}

std::vector<std::string> keys_of(const common::Json& j) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : j.items()) keys.push_back(key);
  return keys;
}

void expect_percentiles(const common::Json& j,
                        const serve::FleetPercentiles& p) {
  EXPECT_EQ(keys_of(j), (std::vector<std::string>{"p10", "p50", "p90", "p99"}));
  EXPECT_EQ(j.at("p10").as_double(), p.p10);
  EXPECT_EQ(j.at("p50").as_double(), p.p50);
  EXPECT_EQ(j.at("p90").as_double(), p.p90);
  EXPECT_EQ(j.at("p99").as_double(), p.p99);
}

// The summary JSON is built as a common::Json: parsing it back yields
// exactly the v1 keys and nesting, and every number unchanged.
TEST(FleetSummaryJson, ParsesBackToTheV1KeysAndExactNumbers) {
  serve::FleetConfig config = small_fleet();
  config.sessions_per_cell = 2;
  config.duration = sec(4);
  const serve::FleetSummary s = serve::FleetDriver(config).run();
  const common::Json j = common::Json::parse(serve::to_json(s));

  EXPECT_EQ(keys_of(j),
            (std::vector<std::string>{
                "schema", "seed", "cells", "sessions_per_cell", "duration_s",
                "failed_sessions", "freeze_ratio", "mismatch_ratio",
                "frame_delay_ms", "mean_throughput_mbps", "jain_all",
                "jain_by_rung", "sessions"}));
  EXPECT_EQ(j.at("schema").as_string(), "poi360.fleet.v1");
  EXPECT_EQ(j.get_u64("seed", 0), s.seed);
  EXPECT_EQ(j.at("cells").as_i64(), s.cells);
  EXPECT_EQ(j.at("sessions_per_cell").as_i64(), s.sessions_per_cell);
  EXPECT_EQ(j.at("duration_s").as_double(), to_seconds(s.duration));
  EXPECT_EQ(j.at("failed_sessions").as_i64(), s.failed_sessions);
  expect_percentiles(j.at("freeze_ratio"), s.freeze);
  expect_percentiles(j.at("mismatch_ratio"), s.mismatch);
  expect_percentiles(j.at("frame_delay_ms"), s.delay_ms);
  EXPECT_EQ(j.at("mean_throughput_mbps").as_double(), s.mean_throughput_mbps);
  EXPECT_EQ(j.at("jain_all").as_double(), s.jain_all);

  const common::Json& jain = j.at("jain_by_rung");
  ASSERT_EQ(jain.items().size(), s.jain_by_rung.size());
  for (const auto& [rung, index] : s.jain_by_rung) {
    EXPECT_EQ(jain.at(rung).as_double(), index) << rung;
  }

  const common::Json& rows = j.at("sessions");
  ASSERT_EQ(rows.size(), s.sessions.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const common::Json& row = rows.at(i);
    const serve::FleetSessionResult& r = s.sessions[i];
    EXPECT_EQ(keys_of(row),
              (std::vector<std::string>{"cell", "slot", "rung", "seed", "ok",
                                        "displayed", "thpt_mbps", "freeze",
                                        "mismatch", "delay_ms", "p95_ms",
                                        "psnr_db"}));
    EXPECT_EQ(row.at("cell").as_i64(), r.cell);
    EXPECT_EQ(row.at("slot").as_i64(), r.index);
    EXPECT_EQ(row.at("rung").as_string(), r.rung);
    EXPECT_EQ(row.get_u64("seed", 0), r.seed);
    EXPECT_EQ(row.at("ok").as_bool(), r.ok);
    EXPECT_EQ(row.at("displayed").as_i64(), r.displayed_frames);
    EXPECT_EQ(row.at("thpt_mbps").as_double(), r.mean_throughput_mbps);
    EXPECT_EQ(row.at("freeze").as_double(), r.freeze_ratio);
    EXPECT_EQ(row.at("mismatch").as_double(), r.mismatch_ratio);
    EXPECT_EQ(row.at("delay_ms").as_double(), r.mean_delay_ms);
    EXPECT_EQ(row.at("p95_ms").as_double(), r.p95_delay_ms);
    EXPECT_EQ(row.at("psnr_db").as_double(), r.mean_roi_psnr_db);
  }
}

// A session that throws is reported failed with its error; the cell and the
// rest of the fleet carry on.
TEST(Fleet, SessionFailureIsReportedNotThrown) {
  serve::FleetConfig config = small_fleet();
  config.cells = 1;
  config.sessions_per_cell = 2;
  config.duration = sec(1);
  config.session.uplink.bsr_delay = msec(3);  // off the grant cadence: throws
  const serve::FleetSummary s = serve::FleetDriver(config).run();
  ASSERT_EQ(2u, s.sessions.size());
  EXPECT_EQ(2, s.failed_sessions);
  for (const serve::FleetSessionResult& r : s.sessions) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
  }
  EXPECT_NE(serve::to_text(s).find("FAILED: "), std::string::npos);
}

TEST(Fleet, RunIsSingleShot) {
  serve::FleetConfig config = small_fleet();
  config.cells = 1;
  config.sessions_per_cell = 1;
  config.duration = sec(1);
  serve::FleetDriver driver(config);
  driver.run();
  EXPECT_THROW(driver.run(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Fleet telemetry plane.

// Turning the plane on must not change a byte of the fleet report — the
// telemetry is an observer, not a participant.
TEST(FleetTelemetry, PlaneOnKeepsSummaryByteIdentical) {
  const serve::FleetConfig plain = small_fleet();
  serve::FleetConfig instrumented = plain;
  instrumented.telemetry.enabled = true;
  const serve::FleetSummary a = serve::FleetDriver(plain).run();
  const serve::FleetSummary b = serve::FleetDriver(instrumented).run();
  EXPECT_EQ(serve::to_text(a), serve::to_text(b));
  EXPECT_EQ(serve::to_json(a), serve::to_json(b));
}

// The merged master registry must be identical for every worker count:
// cells own disjoint (cell, rung) label sets and publish idempotently.
TEST(FleetGate, TelemetryMasterIdenticalAcrossJobs) {
  serve::FleetConfig config = small_fleet();
  config.telemetry.enabled = true;
  config.jobs = 1;
  serve::FleetDriver serial(config);
  serial.run();
  config.jobs = 4;
  serve::FleetDriver sharded(config);
  sharded.run();

  ASSERT_NE(serial.telemetry_plane(), nullptr);
  ASSERT_NE(sharded.telemetry_plane(), nullptr);
  const std::string a = serial.telemetry_plane()->registry().prometheus_text();
  const std::string b = sharded.telemetry_plane()->registry().prometheus_text();
  EXPECT_EQ(a, b);

  // Per-(cell,rung) labeled families made it into the master.
  EXPECT_NE(a.find("poi360_fleet_freeze_ratio{cell=\"0\","
                   "rung=\"FBCC/POI360\"}"),
            std::string::npos)
      << a;
  EXPECT_NE(a.find("poi360_fleet_freeze_ratio{cell=\"1\","
                   "rung=\"GCC/POI360\"}"),
            std::string::npos);
  EXPECT_NE(a.find("# TYPE poi360_fleet_frame_delay_hist histogram"),
            std::string::npos);
  // Both cells' sessions were counted.
  EXPECT_NE(a.find("poi360_fleet_sessions{cell=\"0\","
                   "rung=\"FBCC/POI360\"} 2"),
            std::string::npos);
}

// The per-rung mean-delay gauge is the display-weighted mean of the
// sessions' frame delays, i.e. what each session's frames() column holds.
TEST(FleetTelemetry, MeanDelayGaugeMatchesSessionFrames) {
  serve::FleetConfig config = small_fleet();
  config.cells = 1;
  config.sessions_per_cell = 3;
  config.ladder = {serve::FleetRung{core::RateControl::kFbcc,
                                    core::CompressionScheme::kPoi360}};
  config.telemetry.enabled = true;
  serve::FleetDriver driver(config);
  const serve::FleetSummary summary = driver.run();
  ASSERT_EQ(3u, summary.sessions.size());

  double delay_sum_ms = 0.0;
  std::int64_t displayed = 0;
  for (const serve::FleetSessionResult& r : summary.sessions) {
    ASSERT_TRUE(r.ok) << r.error;
    delay_sum_ms += r.mean_delay_ms * static_cast<double>(r.displayed_frames);
    displayed += r.displayed_frames;
  }
  ASSERT_GT(displayed, 0);
  const double gauge = driver.telemetry_plane()->registry().gauge_value(
      "fleet.mean_delay_ms", {{"cell", "0"}, {"rung", "FBCC/POI360"}});
  const double expected = delay_sum_ms / static_cast<double>(displayed);
  EXPECT_GT(gauge, 0.0);
  EXPECT_NEAR(gauge, expected, 1e-9 * expected);
}

TEST(FleetTelemetry, TraceSamplingExportsBoundedSubset) {
  serve::FleetConfig config = small_fleet();
  config.sessions_per_cell = 6;
  const std::string dir =
      std::string(::testing::TempDir()) + "poi360_fleet_traces";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  config.telemetry.trace_dir = dir;
  config.telemetry.enabled = true;
  config.telemetry.trace_sampling.keep_fraction = 0.5;
  config.telemetry.trace_sampling.max_concurrent = 3;  // per cell

  serve::FleetDriver driver(config);
  const serve::FleetSummary summary = driver.run();
  EXPECT_EQ(summary.failed_sessions, 0);

  std::size_t files = 0;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(de.path().string().find(".trace.json"), std::string::npos);
    ++files;
  }
  // Sampled subset: bounded by the per-cell budget, nonzero for this seed.
  EXPECT_GT(files, 0u);
  EXPECT_LE(files, 2u * 3u);  // cells * max_concurrent
  // Trace accounting surfaced per cell in the master registry.
  const std::string text =
      driver.telemetry_plane()->registry().prometheus_text();
  EXPECT_NE(text.find("poi360_fleet_trace_kept{cell=\"0\"}"),
            std::string::npos)
      << text;
  std::filesystem::remove_all(dir);
}

}  // namespace
