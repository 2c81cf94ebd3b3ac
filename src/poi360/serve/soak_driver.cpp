#include "poi360/serve/soak_driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "poi360/common/json.h"
#include "poi360/common/table.h"
#include "poi360/runner/experiment_spec.h"

namespace poi360::serve {

SoakDriver::SoakDriver(SoakConfig config)
    : config_(std::move(config)),
      arrivals_rng_(Rng(config_.seed).fork(0xA881)),
      durations_rng_(Rng(config_.seed).fork(0xD0A7)),
      admission_(config_.admission, Rng(config_.seed).fork(0xCE11).engine()()),
      slots_(static_cast<std::size_t>(std::max(1, config_.slots))) {
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i > 0; --i) {
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  for (Slot& slot : slots_) slot.slo = SessionSlo(config_.telemetry.slo);

  // Pre-register every serve.* entry so the registry's node count is flat
  // from the first event on — the map never grows under churn, which is one
  // of the bounded-memory marks the soak gates assert.
  for (const char* name :
       {"serve.arrivals", "serve.admission.accepted",
        "serve.admission.degrade_admissions", "serve.admission.rejected",
        "serve.admission.rejected_pool_full",
        "serve.admission.degrade_nudges", "serve.sessions.completed",
        "serve.sessions.shutdown_drained", "serve.sessions.force_drained",
        "serve.sessions.failed", "serve.frames.displayed",
        "serve.frames.skipped", "serve.frames.abandoned",
        "serve.frames.frozen", "serve.snapshots.taken"}) {
    registry_.counter(name);
  }
  for (const char* name :
       {"serve.live_sessions", "serve.pool.high_water", "serve.pool.free",
        "serve.admitted_demand_bps", "serve.headroom_bps"}) {
    registry_.gauge(name);
  }
  for (const char* name : {"serve.frame.delay_ms", "serve.frame.roi_psnr_db",
                           "serve.session.call_s"}) {
    registry_.histogram(name);
  }
  register_telemetry();
}

void SoakDriver::register_telemetry() {
  const TelemetryConfig& t = config_.telemetry;
  sampler_ = obs::TraceSampler(t.trace_sampling);
  if (!t.telemetry_on()) return;

  // Same bounded-memory contract as the serve.* block above: every labeled
  // series is registered here, once, and the cached references are the only
  // write path afterwards.
  plane_ = std::make_unique<TelemetryPlane>(t);
  registry_.set_help("slo.breach",
                     "SLO objectives newly breached (fast+slow burn over "
                     "threshold)");
  registry_.set_help("slo.recovered",
                     "SLO objectives recovered (both burn rates back under "
                     "threshold)");
  registry_.set_help("serve.frame.delay_hist",
                     "End-to-end frame delay distribution (ms)");
  for (int o = 0; o < obs::kSloObjectives; ++o) {
    const obs::Labels labels{
        {"objective",
         obs::slo_objective_name(static_cast<obs::SloObjective>(o))}};
    slo_breach_[o] = &registry_.counter("slo.breach", labels);
    slo_recovered_[o] = &registry_.counter("slo.recovered", labels);
    slo_breached_sessions_[o] =
        &registry_.gauge("slo.breached_sessions", labels);
  }
  slo_evaluations_ = &registry_.counter("slo.evaluations");
  static constexpr const char* kCloseKinds[] = {"departure", "watchdog",
                                                "shutdown", "failed"};
  for (int k = 0; k < 4; ++k) {
    closed_by_kind_[k] =
        &registry_.counter("serve.sessions.closed", {{"kind", kCloseKinds[k]}});
  }
  delay_hist_ = &registry_.bucket_histogram(
      "serve.frame.delay_hist", obs::BucketHistogram::latency_ms_bounds());
  freeze_hist_ = &registry_.bucket_histogram(
      "serve.session.freeze_ratio_hist", obs::BucketHistogram::ratio_bounds());
  if (t.tracing_on()) {
    trace_kept_ = &registry_.counter("serve.trace.kept");
    trace_sampled_out_ = &registry_.counter("serve.trace.sampled_out");
    trace_budget_rejected_ = &registry_.counter("serve.trace.budget_rejected");
  }
}

SoakSummary SoakDriver::run() {
  if (ran_) throw std::logic_error("SoakDriver::run may be called once");
  ran_ = true;

  schedule_next_arrival();
  sim_.schedule_periodic(config_.advance_quantum, config_.advance_quantum,
                         [this]() { on_advance_tick(); });
  sim_.schedule_periodic(config_.watchdog_period, config_.watchdog_period,
                         [this]() { on_watchdog_tick(); });
  if (config_.snapshot_period > 0) {
    sim_.schedule_periodic(config_.snapshot_period, config_.snapshot_period,
                           [this]() { on_snapshot_tick(); });
  }
  sim_.schedule_at(std::min(config_.warmup, config_.duration),
                   [this]() { mark_warmup(); });

  sim_.run_until(config_.duration);

  // Shutdown: every session still live at the horizon is drained cleanly —
  // a soak run never ends with sessions holding slots.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].ms.live()) continue;
    slots_[i].ms.advance_until(config_.duration);
    close_slot(i, CloseKind::kShutdown);
  }
  update_gauges();
  // Final publish so a scraper that polls after the horizon sees the
  // end-of-run state (the server stays up until the driver dies).
  if (plane_) plane_->publish(registry_);
  return summarize();
}

void SoakDriver::schedule_next_arrival() {
  const SimDuration mean =
      std::max<SimDuration>(usec(1), config_.mean_interarrival);
  const SimDuration gap = std::max<SimDuration>(
      usec(1), sec_f(arrivals_rng_.exponential(to_seconds(mean))));
  const SimTime at = sim_.now() + gap;
  if (at > config_.duration) return;  // churn stops at the horizon
  sim_.schedule_at(at, [this]() {
    on_arrival();
    schedule_next_arrival();
  });
}

SimDuration SoakDriver::draw_call_duration() {
  const SimDuration min_call =
      std::max<SimDuration>(msec(100), config_.min_call);
  const SimDuration tick = std::max<SimDuration>(msec(100), config_.call_tick);
  const double mean_ticks =
      to_seconds(std::max<SimDuration>(0, config_.mean_call - min_call)) /
      to_seconds(tick);
  // Geometric number of ticks via inversion; u in [0,1) keeps log1p finite.
  const double u = durations_rng_.uniform(0.0, 1.0);
  if (mean_ticks <= 0.0) return min_call;
  const double p = 1.0 / (1.0 + mean_ticks);
  const auto ticks = static_cast<std::int64_t>(
      std::floor(std::log1p(-u) / std::log1p(-p)));
  return min_call + std::max<std::int64_t>(0, ticks) * tick;
}

void SoakDriver::on_arrival() {
  const SimTime now = sim_.now();
  const std::int64_t id = next_arrival_id_++;
  registry_.counter("serve.arrivals").inc();

  if (free_slots_.empty()) {
    // The preallocated pool is the hard bound; nothing is grown on demand.
    registry_.counter("serve.admission.rejected_pool_full").inc();
    return;
  }

  const Bitrate demand = config_.session.initial_rate;
  const AdmissionController::Decision decision = admission_.decide(now, demand);
  if (decision == AdmissionController::Decision::kReject) {
    registry_.counter("serve.admission.rejected").inc();
    return;
  }
  if (decision == AdmissionController::Decision::kDegradeAccept) {
    // Overload: degrade the admitted population instead of refusing the
    // arrival — every active POI360 session steps one mode conservative,
    // shrinking its footprint (the feedback-guard path reused on purpose).
    registry_.counter("serve.admission.degrade_admissions").inc();
    for (Slot& other : slots_) {
      if (other.ms.state() != SessionState::kActive) continue;
      other.ms.session()->nudge_conservative();
      registry_.counter("serve.admission.degrade_nudges").inc();
    }
  } else {
    registry_.counter("serve.admission.accepted").inc();
  }

  ManagedSession::Config mc;
  mc.id = id;
  mc.watchdog_deadline = config_.watchdog_deadline;
  mc.session = config_.session;
  mc.session.seed = runner::derive_seed(config_.seed, static_cast<int>(id));
  SimDuration call = draw_call_duration();
  if (std::find(config_.stuck_arrivals.begin(), config_.stuck_arrivals.end(),
                id) != config_.stuck_arrivals.end()) {
    // Injected stuck session: the media path is born dead, so no frame ever
    // completes and the lifecycle progress marker never moves. Long enough
    // that only the watchdog — not the natural departure — can end it.
    mc.session.core_loss = 1.0;
    call = std::max<SimDuration>(call, config_.watchdog_deadline + sec(30));
  }
  mc.planned_duration = call;
  mc.session.duration = call;

  const std::size_t index = free_slots_.back();
  free_slots_.pop_back();
  Slot& slot = slots_[index];

  bool traced = false;
  if (config_.telemetry.tracing_on()) {
    // Keep/drop is a pure function of the derived per-session seed — the
    // same contract BatchRunner uses — so the sampled set is identical for
    // any pool size or arrival interleaving.
    if (sampler_.admit(
            runner::derive_seed(config_.seed, static_cast<int>(id)))) {
      mc.session.trace.enabled = true;
      mc.session.trace.capacity = config_.telemetry.trace_sampling.event_capacity;
      traced = true;
    }
    if (trace_kept_) trace_kept_->set(sampler_.kept());
    if (trace_sampled_out_) trace_sampled_out_->set(sampler_.sampled_out());
    if (trace_budget_rejected_) {
      trace_budget_rejected_->set(sampler_.budget_rejected());
    }
  }
  slot.slo.reset(traced);

  slot.ms.admit(std::move(mc), now);
  admission_.on_admitted(demand);
  ++live_;
  peak_concurrent_ = std::max(peak_concurrent_, live_);

  slot.ms.activate(now);
  if (slot.ms.state() == SessionState::kFailed) {
    close_slot(index, CloseKind::kFailed);
    return;
  }
  const std::uint64_t generation = slot.generation;
  sim_.schedule_at(now + call, [this, index, generation]() {
    on_departure(index, generation);
  });
}

void SoakDriver::on_departure(std::size_t slot_index,
                              std::uint64_t generation) {
  Slot& slot = slots_[slot_index];
  // The watchdog (or a failure) may have recycled this slot already; the
  // generation stamp keeps the stale departure from draining a stranger.
  if (slot.generation != generation || !slot.ms.live()) return;
  slot.ms.advance_until(sim_.now());
  close_slot(slot_index, CloseKind::kDeparture);
}

void SoakDriver::on_advance_tick() {
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ms.state() != SessionState::kActive) continue;
    slots_[i].ms.advance_until(now);
    if (slots_[i].ms.state() == SessionState::kFailed) {
      close_slot(i, CloseKind::kFailed);
    }
  }
}

void SoakDriver::on_watchdog_tick() {
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ms.state() != SessionState::kActive) continue;
    if (slots_[i].ms.observe_stuck(now)) {
      close_slot(i, CloseKind::kWatchdog);
    }
  }
}

void SoakDriver::on_snapshot_tick() {
  update_gauges();
  observe_slo();
  ++snapshots_taken_;
  registry_.counter("serve.snapshots.taken").inc();
  std::string text = registry_.prometheus_text();
  if (plane_) plane_->publish(registry_);
  if (snapshots_.size() ==
      std::max<std::size_t>(1, config_.snapshot_window)) {
    snapshots_.pop_front();
  }
  snapshots_.push_back(Snapshot{sim_.now(), std::move(text)});
}

void SoakDriver::observe_slo() {
  if (!config_.telemetry.telemetry_on()) return;
  const SimTime now = sim_.now();
  int breached[obs::kSloObjectives] = {};
  for (Slot& slot : slots_) {
    if (slot.ms.state() != SessionState::kActive) continue;
    core::Session* session = slot.ms.session();
    if (!session) continue;
    slo_evaluations_->inc();
    const obs::SloTransitions tr =
        slot.slo.observe(now, *session, slot.ms.id(), *delay_hist_);
    for (int o = 0; o < obs::kSloObjectives; ++o) {
      if (tr.breached_now[o]) slo_breach_[o]->inc();
      if (tr.recovered_now[o]) slo_recovered_[o]->inc();
      if (slot.slo.tracker().status().breached[o]) ++breached[o];
    }
  }
  for (int o = 0; o < obs::kSloObjectives; ++o) {
    slo_breached_sessions_[o]->set(breached[o]);
  }
}

void SoakDriver::mark_warmup() {
  pool_high_water_warmup_ = peak_concurrent_;
  registry_entries_warmup_ = registry_.snapshot().size();
}

void SoakDriver::close_slot(std::size_t slot_index, CloseKind kind) {
  Slot& slot = slots_[slot_index];
  ManagedSession& ms = slot.ms;
  switch (kind) {
    case CloseKind::kDeparture:
    case CloseKind::kShutdown:
      ms.drain();
      break;
    case CloseKind::kWatchdog:
      ms.force_drain();
      break;
    case CloseKind::kFailed:
      break;
  }

  if (ms.state() == SessionState::kFailed) {
    registry_.counter("serve.sessions.failed").inc();
  } else if (kind == CloseKind::kWatchdog) {
    registry_.counter("serve.sessions.force_drained").inc();
  } else {
    registry_.counter("serve.sessions.completed").inc();
    if (kind == CloseKind::kShutdown) {
      registry_.counter("serve.sessions.shutdown_drained").inc();
    }
  }

  harvest(ms);
  close_slot_telemetry(slot, kind);
  admission_.on_released(config_.session.initial_rate);
  --live_;
  ++slot.generation;  // invalidates the pending departure event, if any
  ms.release();
  free_slots_.push_back(static_cast<std::uint32_t>(slot_index));
}

void SoakDriver::close_slot_telemetry(Slot& slot, CloseKind kind) {
  const core::Session* session = slot.ms.session();
  if (config_.telemetry.telemetry_on()) {
    closed_by_kind_[static_cast<int>(kind)]->inc();
    if (session) {
      // Consume the tail since the last snapshot tick.
      slot.slo.fold(*session, *delay_hist_);
      freeze_hist_->observe(session->metrics().freeze_ratio(
          slot.ms.config().session.freeze_threshold));
    }
  }
  if (slot.slo.traced()) {
    if (session) {
      runner::RunSpec rs;
      rs.run_id = static_cast<int>(slot.ms.id());
      rs.experiment = "soak";
      rs.seed = slot.ms.config().session.seed;
      write_session_trace(config_.telemetry.trace_dir, rs, *session,
                          "soak#" + std::to_string(slot.ms.id()));
    }
    sampler_.release();
  }
}

void SoakDriver::harvest(const ManagedSession& ms) {
  const core::Session* session = ms.session();
  if (!session) return;
  const metrics::SessionMetrics& m = session->metrics();

  // Lost frames are sender skips plus receiver abandons and cap evictions;
  // the latter two count as serve.frames.abandoned.
  const std::int64_t skipped = m.skipped_frames();
  const std::int64_t lost = session->lost_frames();
  registry_.counter("serve.frames.displayed").inc(m.displayed_frames());
  registry_.counter("serve.frames.skipped").inc(skipped);
  registry_.counter("serve.frames.abandoned").inc(lost - skipped);

  // Scalar aggregation only: the per-frame vectors die with the session, so
  // soak memory stays bounded by the live population, not the run length.
  obs::Histogram& delay_h = registry_.histogram("serve.frame.delay_ms");
  obs::Histogram& psnr_h = registry_.histogram("serve.frame.roi_psnr_db");
  std::int64_t frozen = 0;
  for (const metrics::FrameRecord& f : m.frames()) {
    delay_h.observe(to_millis(f.delay));
    psnr_h.observe(f.roi_psnr_db);
    if (f.delay > ms.config().session.freeze_threshold) ++frozen;
  }
  registry_.counter("serve.frames.frozen").inc(frozen + lost);
  registry_.histogram("serve.session.call_s")
      .observe(to_seconds(ms.config().planned_duration));
}

void SoakDriver::update_gauges() {
  registry_.gauge("serve.live_sessions").set(live_);
  registry_.gauge("serve.pool.high_water").set(peak_concurrent_);
  registry_.gauge("serve.pool.free").set(static_cast<double>(free_slots_.size()));
  registry_.gauge("serve.admitted_demand_bps").set(admission_.admitted_demand());
  registry_.gauge("serve.headroom_bps").set(admission_.headroom(sim_.now()));
}

SoakSummary SoakDriver::summarize() const {
  SoakSummary s;
  s.seed = config_.seed;
  s.duration = config_.duration;
  s.policy = to_string(config_.admission.policy);

  s.arrivals = registry_.counter_value("serve.arrivals");
  s.accepted = registry_.counter_value("serve.admission.accepted");
  s.degrade_admissions =
      registry_.counter_value("serve.admission.degrade_admissions");
  s.rejected_admission = registry_.counter_value("serve.admission.rejected");
  s.rejected_pool_full =
      registry_.counter_value("serve.admission.rejected_pool_full");
  s.degrade_nudges = registry_.counter_value("serve.admission.degrade_nudges");

  s.completed = registry_.counter_value("serve.sessions.completed");
  s.shutdown_drained =
      registry_.counter_value("serve.sessions.shutdown_drained");
  s.force_drained = registry_.counter_value("serve.sessions.force_drained");
  s.failed = registry_.counter_value("serve.sessions.failed");
  s.live_at_end = live_;

  s.slots = static_cast<int>(slots_.size());
  s.peak_concurrent = peak_concurrent_;
  s.pool_high_water_warmup = pool_high_water_warmup_;
  s.pool_high_water_end = peak_concurrent_;
  s.registry_entries_warmup = registry_entries_warmup_;
  s.registry_entries_end = registry_.snapshot().size();

  s.frames_displayed = registry_.counter_value("serve.frames.displayed");
  s.frames_skipped = registry_.counter_value("serve.frames.skipped");
  s.frames_abandoned = registry_.counter_value("serve.frames.abandoned");
  s.frames_frozen = registry_.counter_value("serve.frames.frozen");
  const std::int64_t handled =
      s.frames_displayed + s.frames_skipped + s.frames_abandoned;
  s.freeze_ratio =
      handled > 0 ? static_cast<double>(s.frames_frozen) /
                        static_cast<double>(handled)
                  : 0.0;
  const obs::Histogram* delay_h =
      registry_.find_histogram("serve.frame.delay_ms");
  s.mean_frame_delay_ms = delay_h ? delay_h->mean() : 0.0;

  s.snapshots_taken = snapshots_taken_;
  s.snapshots_retained = snapshots_.size();
  return s;
}

std::string to_text(const SoakSummary& s) {
  std::string out;
  out += "soak summary: seed=" + std::to_string(s.seed) +
         " duration_s=" + fmt(to_seconds(s.duration), 0) +
         " policy=" + s.policy + "\n";
  out += "  churn    : arrivals=" + std::to_string(s.arrivals) +
         " accepted=" + std::to_string(s.accepted) +
         " degrade_admitted=" + std::to_string(s.degrade_admissions) +
         " rejected=" + std::to_string(s.rejected_admission) +
         " pool_full=" + std::to_string(s.rejected_pool_full) + "\n";
  out += "  sessions : completed=" + std::to_string(s.completed) +
         " (shutdown_drained=" + std::to_string(s.shutdown_drained) + ")" +
         " force_drained=" + std::to_string(s.force_drained) +
         " failed=" + std::to_string(s.failed) +
         " live_at_end=" + std::to_string(s.live_at_end) + "\n";
  out += "  pool     : slots=" + std::to_string(s.slots) +
         " peak=" + std::to_string(s.peak_concurrent) +
         " high_water warmup/end=" +
         std::to_string(s.pool_high_water_warmup) + "/" +
         std::to_string(s.pool_high_water_end) +
         " registry warmup/end=" +
         std::to_string(s.registry_entries_warmup) + "/" +
         std::to_string(s.registry_entries_end) + "\n";
  out += "  frames   : displayed=" + std::to_string(s.frames_displayed) +
         " skipped=" + std::to_string(s.frames_skipped) +
         " abandoned=" + std::to_string(s.frames_abandoned) +
         " frozen=" + std::to_string(s.frames_frozen) +
         " freeze_ratio=" + fmt(s.freeze_ratio, 6) +
         " mean_delay_ms=" + fmt(s.mean_frame_delay_ms, 3) + "\n";
  out += "  degrade  : nudges=" + std::to_string(s.degrade_nudges) + "\n";
  out += "  snapshots: taken=" + std::to_string(s.snapshots_taken) +
         " retained=" + std::to_string(s.snapshots_retained) + "\n";
  return out;
}

std::string to_json(const SoakSummary& s) {
  common::Json j = common::Json::object();
  j.set("schema", "poi360.soak.v1");
  j.set("seed", s.seed);
  j.set("duration_s", to_seconds(s.duration));
  j.set("policy", s.policy);
  j.set("arrivals", s.arrivals);
  j.set("accepted", s.accepted);
  j.set("degrade_admissions", s.degrade_admissions);
  j.set("rejected_admission", s.rejected_admission);
  j.set("rejected_pool_full", s.rejected_pool_full);
  j.set("degrade_nudges", s.degrade_nudges);
  j.set("completed", s.completed);
  j.set("shutdown_drained", s.shutdown_drained);
  j.set("force_drained", s.force_drained);
  j.set("failed", s.failed);
  j.set("live_at_end", s.live_at_end);
  j.set("slots", s.slots);
  j.set("peak_concurrent", s.peak_concurrent);
  j.set("pool_high_water_warmup", s.pool_high_water_warmup);
  j.set("pool_high_water_end", s.pool_high_water_end);
  j.set("registry_entries_warmup", s.registry_entries_warmup);
  j.set("registry_entries_end", s.registry_entries_end);
  j.set("frames_displayed", s.frames_displayed);
  j.set("frames_skipped", s.frames_skipped);
  j.set("frames_abandoned", s.frames_abandoned);
  j.set("frames_frozen", s.frames_frozen);
  j.set("freeze_ratio", s.freeze_ratio);
  j.set("mean_frame_delay_ms", s.mean_frame_delay_ms);
  j.set("snapshots_taken", s.snapshots_taken);
  j.set("snapshots_retained", s.snapshots_retained);
  return j.dump(2) + "\n";
}

}  // namespace poi360::serve
