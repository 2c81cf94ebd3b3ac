#include "poi360/serve/fleet_driver.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "poi360/common/json.h"
#include "poi360/common/stats.h"
#include "poi360/common/table.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/runner/experiment_spec.h"

namespace poi360::serve {

namespace {

FleetPercentiles percentiles_of(const SampleSet& samples) {
  FleetPercentiles p;
  if (samples.empty()) return p;
  p.p10 = samples.percentile(0.10);
  p.p50 = samples.percentile(0.50);
  p.p90 = samples.percentile(0.90);
  p.p99 = samples.percentile(0.99);
  return p;
}

std::string percentiles_text(const FleetPercentiles& p, int decimals) {
  return "p10=" + fmt(p.p10, decimals) + " p50=" + fmt(p.p50, decimals) +
         " p90=" + fmt(p.p90, decimals) + " p99=" + fmt(p.p99, decimals);
}

common::Json percentiles_json(const FleetPercentiles& p) {
  common::Json j = common::Json::object();
  j.set("p10", p.p10);
  j.set("p50", p.p50);
  j.set("p90", p.p90);
  j.set("p99", p.p99);
  return j;
}

}  // namespace

std::string to_string(const FleetRung& rung) {
  return core::to_string(rung.rate_control) + "/" +
         core::to_string(rung.compression);
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

FleetCell::FleetCell(const FleetConfig& config, int cell_index,
                     TelemetryPlane* plane)
    : config_(config),
      cell_index_(cell_index),
      cell_(config.cell,
            Rng(config.seed)
                .fork(0xF1EE7u + static_cast<std::uint64_t>(cell_index))
                .engine()()),
      cross_rng_(Rng(config.seed).fork(0xCB05u).fork(
          static_cast<std::uint64_t>(cell_index))),
      plane_(plane),
      sampler_(config.telemetry.trace_sampling) {
  if (config_.ladder.empty()) {
    throw std::invalid_argument("fleet ladder must not be empty");
  }
  const bool tracing = plane_ && config_.telemetry.tracing_on();
  const int n = std::max(1, config_.sessions_per_cell);
  slots_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const FleetRung& rung =
        config_.ladder[static_cast<std::size_t>(i) % config_.ladder.size()];
    ManagedSession::Config mc;
    mc.id = i;
    mc.planned_duration = config_.duration;
    core::SessionConfig& sc = mc.session;
    sc = config_.session;
    sc.network = core::NetworkType::kCellular;
    sc.rate_control = rung.rate_control;
    sc.compression = rung.compression;
    sc.duration = config_.duration;
    sc.seed = runner::derive_seed(config_.seed, cell_index * n + i);
    // The shared cell is the only contention source: the private OU load
    // and explicit background cell would double-count the competition.
    sc.channel.explicit_users = -1;
    sc.channel.mean_cell_load = 0.0;
    sc.channel.load_std = 0.0;
    sc.cell_handle = lte::CellHandle(&cell_, cell_.register_ue(1.0));
    // Trace sampling is a pure function of the session's derived seed — no
    // RNG draw, so enabling it cannot perturb the simulation stream.
    bool traced = false;
    if (tracing && sampler_.admit(sc.seed)) {
      sc.trace.enabled = true;
      sc.trace.capacity = config_.telemetry.trace_sampling.event_capacity;
      traced = true;
    }
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    slot.rung = to_string(rung);
    slot.slo = SessionSlo(config_.telemetry.slo, traced);
    slot.ms.admit(std::move(mc), 0);
  }
  add_cross_traffic(config_.voice);
  add_cross_traffic(config_.ftp);
  if (plane_) register_telemetry();
}

void FleetCell::register_telemetry() {
  const std::string cell_label = std::to_string(cell_index_);
  next_publish_ = std::max<SimDuration>(msec(1), config_.telemetry.publish_period);

  telemetry_.set_help("fleet.freeze_ratio",
                      "Frozen-frame ratio per (cell, rung) population");
  telemetry_.set_help("slo.breach",
                      "SLO objectives newly breached (fast+slow burn over "
                      "threshold)");
  // One series per distinct rung label; sessions map onto them cyclically,
  // so the series count is bounded by the ladder, not the population.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Linear scan over the few distinct rung labels seen so far.
    int idx = -1;
    for (std::size_t j = 0; j < i; ++j) {
      if (slots_[j].rung == slots_[i].rung) {
        idx = slots_[j].series;
        break;
      }
    }
    if (idx < 0) {
      const obs::Labels labels{{"cell", cell_label}, {"rung", slots_[i].rung}};
      RungSeries series;
      series.sessions = &telemetry_.gauge("fleet.sessions", labels);
      series.freeze_ratio = &telemetry_.gauge("fleet.freeze_ratio", labels);
      series.mismatch_ratio =
          &telemetry_.gauge("fleet.mismatch_ratio", labels);
      series.mean_delay_ms = &telemetry_.gauge("fleet.mean_delay_ms", labels);
      series.displayed = &telemetry_.gauge("fleet.displayed_frames", labels);
      for (int o = 0; o < obs::kSloObjectives; ++o) {
        obs::Labels slo_labels = labels;
        slo_labels.emplace_back(
            "objective",
            obs::slo_objective_name(static_cast<obs::SloObjective>(o)));
        series.slo_breach[o] = &telemetry_.counter("slo.breach", slo_labels);
        series.slo_recovered[o] =
            &telemetry_.counter("slo.recovered", slo_labels);
      }
      series.delay_hist = &telemetry_.bucket_histogram(
          "fleet.frame.delay_hist", obs::BucketHistogram::latency_ms_bounds(),
          labels);
      idx = static_cast<int>(rung_series_.size());
      rung_series_.push_back(series);
    }
    slots_[i].series = idx;
  }
  if (config_.telemetry.tracing_on()) {
    const obs::Labels labels{{"cell", cell_label}};
    telemetry_.counter("fleet.trace.kept", labels);
    telemetry_.counter("fleet.trace.sampled_out", labels);
    telemetry_.counter("fleet.trace.budget_rejected", labels);
  }
}

FleetCell::~FleetCell() = default;

void FleetCell::add_cross_traffic(const CrossTrafficSpec& spec) {
  for (int i = 0; i < spec.count; ++i) {
    CrossSource src;
    src.ue = cell_.register_ue(std::max(1e-3, spec.weight));
    src.mean_on = std::max<SimDuration>(msec(10), spec.mean_on);
    src.mean_off = std::max<SimDuration>(msec(10), spec.mean_off);
    // Random initial phase, like the cell's background users.
    const double duty = to_seconds(src.mean_on) /
                        (to_seconds(src.mean_on) + to_seconds(src.mean_off));
    src.active = cross_rng_.bernoulli(duty);
    src.toggle_at = sec_f(cross_rng_.exponential(
        to_seconds(src.active ? src.mean_on : src.mean_off)));
    cell_.report_demand(src.ue, src.active ? 1 : 0);
    cross_.push_back(src);
  }
}

void FleetCell::step_cross_traffic(SimTime t) {
  for (CrossSource& src : cross_) {
    while (src.toggle_at <= t) {
      src.active = !src.active;
      src.toggle_at += std::max<SimDuration>(
          msec(10), sec_f(cross_rng_.exponential(to_seconds(
                        src.active ? src.mean_on : src.mean_off))));
    }
    cell_.report_demand(src.ue, src.active ? 1 : 0);
  }
}

void FleetCell::start() {
  for (Slot& slot : slots_) slot.ms.activate(0);
  cell_.commit_demand();
}

void FleetCell::advance_to(SimTime t) {
  // Freeze the quantum's demand snapshot with every session (and the cross
  // traffic) sitting at master time now_, so the shares each session sees
  // in (now_, t] do not depend on the order the sessions are stepped in.
  step_cross_traffic(now_);
  cell_.commit_demand();
  cell_.trim(now_);
  for (Slot& slot : slots_) slot.ms.advance_until(t);
  now_ = t;
  if (plane_ && t >= next_publish_) {
    publish_telemetry(t);
    while (next_publish_ <= t) {
      next_publish_ +=
          std::max<SimDuration>(msec(1), config_.telemetry.publish_period);
    }
  }
}

void FleetCell::publish_telemetry(SimTime t) {
  const std::string cell_label = std::to_string(cell_index_);
  struct RungAgg {
    std::int64_t sessions = 0;
    std::int64_t displayed = 0;
    std::int64_t frozen = 0;
    std::int64_t lost = 0;
    std::int64_t mismatched = 0;
    double delay_sum_ms = 0.0;
  };
  std::vector<RungAgg> agg(rung_series_.size());

  for (Slot& slot : slots_) {
    core::Session* session = slot.ms.session();
    if (!session || slot.ms.state() == SessionState::kFailed) continue;
    RungSeries& series = rung_series_[static_cast<std::size_t>(slot.series)];
    const obs::SloTransitions tr =
        slot.slo.observe(t, *session, slot.ms.id(), *series.delay_hist);
    for (int o = 0; o < obs::kSloObjectives; ++o) {
      if (tr.breached_now[o]) series.slo_breach[o]->inc();
      if (tr.recovered_now[o]) series.slo_recovered[o]->inc();
    }
    RungAgg& a = agg[static_cast<std::size_t>(slot.series)];
    ++a.sessions;
    a.displayed += slot.slo.displayed();
    a.frozen += slot.slo.frozen();
    a.lost += slot.slo.lost();
    a.mismatched += slot.slo.mismatched();
    a.delay_sum_ms += slot.slo.delay_sum_ms();
  }

  for (std::size_t r = 0; r < rung_series_.size(); ++r) {
    const RungAgg& a = agg[r];
    RungSeries& series = rung_series_[r];
    series.sessions->set(static_cast<double>(a.sessions));
    series.displayed->set(static_cast<double>(a.displayed));
    const std::int64_t handled = a.displayed + a.lost;
    series.freeze_ratio->set(
        handled > 0 ? static_cast<double>(a.frozen + a.lost) /
                          static_cast<double>(handled)
                    : 0.0);
    series.mismatch_ratio->set(
        a.displayed > 0 ? static_cast<double>(a.mismatched) /
                              static_cast<double>(a.displayed)
                        : 0.0);
    series.mean_delay_ms->set(
        a.displayed > 0 ? a.delay_sum_ms / static_cast<double>(a.displayed)
                        : 0.0);
  }
  if (config_.telemetry.tracing_on()) {
    const obs::Labels labels{{"cell", cell_label}};
    telemetry_.counter("fleet.trace.kept", labels).set(sampler_.kept());
    telemetry_.counter("fleet.trace.sampled_out", labels)
        .set(sampler_.sampled_out());
    telemetry_.counter("fleet.trace.budget_rejected", labels)
        .set(sampler_.budget_rejected());
  }
  plane_->publish(telemetry_);
}

void FleetCell::finish() {
  for (Slot& slot : slots_) slot.ms.drain();
  if (!plane_) return;
  publish_telemetry(now_);
  if (!config_.telemetry.tracing_on()) return;
  const int n = static_cast<int>(slots_.size());
  for (const Slot& slot : slots_) {
    const core::Session* session = slot.ms.session();
    if (!slot.slo.traced() || !session ||
        slot.ms.state() == SessionState::kFailed) {
      continue;
    }
    const std::string index = std::to_string(slot.ms.id());
    runner::RunSpec rs;
    rs.run_id = cell_index_ * n + static_cast<int>(slot.ms.id());
    rs.experiment = "fleet";
    rs.params = {{"cell", std::to_string(cell_index_)},
                 {"slot", index},
                 {"rung", slot.rung}};
    rs.seed = slot.ms.config().session.seed;
    write_session_trace(
        config_.telemetry.trace_dir, rs, *session,
        "fleet/cell=" + std::to_string(cell_index_) + "/slot=" + index);
  }
}

std::vector<FleetSessionResult> FleetCell::results() const {
  std::vector<FleetSessionResult> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    FleetSessionResult r;
    r.cell = cell_index_;
    r.index = static_cast<int>(slot.ms.id());
    r.seed = slot.ms.config().session.seed;
    r.rung = slot.rung;
    r.ok = slot.ms.state() != SessionState::kFailed;
    r.error = slot.ms.error();
    const core::Session* session = slot.ms.session();
    if (r.ok && session) {
      const metrics::SessionMetrics& m = session->metrics();
      r.displayed_frames = m.displayed_frames();
      r.mean_throughput_mbps = m.mean_throughput() / 1e6;
      r.freeze_ratio = m.freeze_ratio(config_.session.freeze_threshold);
      std::int64_t mismatched = 0;
      for (const metrics::FrameRecord& f : m.frames()) {
        if (f.roi_mismatch) ++mismatched;
      }
      r.mismatch_ratio =
          m.frames().empty()
              ? 0.0
              : static_cast<double>(mismatched) /
                    static_cast<double>(m.frames().size());
      const SampleSet delays = m.frame_delays_ms();
      if (!delays.empty()) {
        r.mean_delay_ms = delays.mean();
        r.p95_delay_ms = delays.percentile(0.95);
      }
      r.mean_roi_psnr_db = m.mean_roi_psnr();
    }
    out.push_back(std::move(r));
  }
  return out;
}

FleetDriver::FleetDriver(FleetConfig config) : config_(std::move(config)) {}

FleetSummary FleetDriver::run() {
  if (ran_) throw std::logic_error("FleetDriver::run may be called once");
  ran_ = true;

  const int cells = std::max(1, config_.cells);
  const SimDuration quantum =
      std::max<SimDuration>(msec(1), config_.advance_quantum);
  std::vector<std::vector<FleetSessionResult>> per_cell(
      static_cast<std::size_t>(cells));

  if (config_.telemetry.telemetry_on()) {
    plane_ = std::make_unique<TelemetryPlane>(config_.telemetry);
  }

  // Each cell is self-contained (own SharedCell, own sessions, own RNG
  // streams derived from (seed, cell index)), so sharding cells across
  // workers cannot change any cell's results — only the wall clock. Cells
  // publish disjoint label sets into the plane, so the merged master
  // registry is also identical for every worker count.
  runner::BatchRunner::parallel_for(
      config_.jobs, static_cast<std::size_t>(cells), [&](std::size_t c) {
        FleetCell cell(config_, static_cast<int>(c), plane_.get());
        cell.start();
        SimTime t = 0;
        while (t < config_.duration) {
          t = std::min<SimTime>(t + quantum, config_.duration);
          cell.advance_to(t);
        }
        cell.finish();
        per_cell[c] = cell.results();
      });

  FleetSummary s;
  s.seed = config_.seed;
  s.cells = cells;
  s.sessions_per_cell = std::max(1, config_.sessions_per_cell);
  s.duration = config_.duration;
  for (auto& rows : per_cell) {
    for (FleetSessionResult& r : rows) s.sessions.push_back(std::move(r));
  }

  SampleSet freeze;
  SampleSet mismatch;
  SampleSet delay;
  SampleSet throughput;
  std::vector<std::string> rung_order;
  std::vector<std::vector<double>> rung_throughput;
  for (const FleetSessionResult& r : s.sessions) {
    if (!r.ok) {
      ++s.failed_sessions;
      continue;
    }
    freeze.add(r.freeze_ratio);
    mismatch.add(r.mismatch_ratio);
    delay.add(r.mean_delay_ms);
    throughput.add(r.mean_throughput_mbps);
    auto it = std::find(rung_order.begin(), rung_order.end(), r.rung);
    if (it == rung_order.end()) {
      rung_order.push_back(r.rung);
      rung_throughput.emplace_back();
      it = rung_order.end() - 1;
    }
    rung_throughput[static_cast<std::size_t>(it - rung_order.begin())]
        .push_back(r.mean_throughput_mbps);
  }
  s.freeze = percentiles_of(freeze);
  s.mismatch = percentiles_of(mismatch);
  s.delay_ms = percentiles_of(delay);
  s.mean_throughput_mbps = throughput.empty() ? 0.0 : throughput.mean();
  s.jain_all = jain_index(throughput.samples());
  for (std::size_t i = 0; i < rung_order.size(); ++i) {
    s.jain_by_rung.emplace_back(rung_order[i],
                                jain_index(rung_throughput[i]));
  }
  return s;
}

std::string to_text(const FleetSummary& s) {
  std::string out;
  out += "fleet summary: seed=" + std::to_string(s.seed) +
         " cells=" + std::to_string(s.cells) +
         " sessions_per_cell=" + std::to_string(s.sessions_per_cell) +
         " duration_s=" + fmt(to_seconds(s.duration), 0) +
         " sessions=" + std::to_string(s.sessions.size()) +
         " failed=" + std::to_string(s.failed_sessions) + "\n";
  out += "  freeze_ratio   : " + percentiles_text(s.freeze, 4) + "\n";
  out += "  mismatch_ratio : " + percentiles_text(s.mismatch, 4) + "\n";
  out += "  frame_delay_ms : " + percentiles_text(s.delay_ms, 1) + "\n";
  out += "  throughput     : mean_mbps=" +
         fmt(s.mean_throughput_mbps, 3) +
         " jain_all=" + fmt(s.jain_all, 4) + "\n";
  for (const auto& [rung, jain] : s.jain_by_rung) {
    out += "  jain[" + rung + "] = " + fmt(jain, 4) + "\n";
  }
  out += "  per-session (cell slot rung seed shown thpt_mbps freeze "
         "mismatch delay_ms p95_ms psnr_db):\n";
  for (const FleetSessionResult& r : s.sessions) {
    char row[256];
    if (r.ok) {
      std::snprintf(row, sizeof(row),
                    "    %3d %4d  %-14s %8llu %6lld %9.3f %7.4f %8.4f "
                    "%8.1f %7.1f %7.2f\n",
                    r.cell, r.index, r.rung.c_str(),
                    static_cast<unsigned long long>(r.seed),
                    static_cast<long long>(r.displayed_frames),
                    r.mean_throughput_mbps, r.freeze_ratio, r.mismatch_ratio,
                    r.mean_delay_ms, r.p95_delay_ms, r.mean_roi_psnr_db);
      out += row;
    } else {
      std::snprintf(row, sizeof(row), "    %3d %4d  %-14s %8llu  FAILED: ",
                    r.cell, r.index, r.rung.c_str(),
                    static_cast<unsigned long long>(r.seed));
      out += row;
      out += r.error + "\n";
    }
  }
  return out;
}

std::string to_json(const FleetSummary& s) {
  common::Json j = common::Json::object();
  j.set("schema", "poi360.fleet.v1");
  j.set("seed", s.seed);
  j.set("cells", s.cells);
  j.set("sessions_per_cell", s.sessions_per_cell);
  j.set("duration_s", to_seconds(s.duration));
  j.set("failed_sessions", s.failed_sessions);
  j.set("freeze_ratio", percentiles_json(s.freeze));
  j.set("mismatch_ratio", percentiles_json(s.mismatch));
  j.set("frame_delay_ms", percentiles_json(s.delay_ms));
  j.set("mean_throughput_mbps", s.mean_throughput_mbps);
  j.set("jain_all", s.jain_all);
  common::Json jain = common::Json::object();
  for (const auto& [rung, index] : s.jain_by_rung) jain.set(rung, index);
  j.set("jain_by_rung", std::move(jain));
  common::Json sessions = common::Json::array();
  for (const FleetSessionResult& r : s.sessions) {
    common::Json row = common::Json::object();
    row.set("cell", r.cell);
    row.set("slot", r.index);
    row.set("rung", r.rung);
    row.set("seed", r.seed);
    row.set("ok", r.ok);
    row.set("displayed", r.displayed_frames);
    row.set("thpt_mbps", r.mean_throughput_mbps);
    row.set("freeze", r.freeze_ratio);
    row.set("mismatch", r.mismatch_ratio);
    row.set("delay_ms", r.mean_delay_ms);
    row.set("p95_ms", r.p95_delay_ms);
    row.set("psnr_db", r.mean_roi_psnr_db);
    sessions.push_back(std::move(row));
  }
  j.set("sessions", std::move(sessions));
  return j.dump(2) + "\n";
}

}  // namespace poi360::serve
