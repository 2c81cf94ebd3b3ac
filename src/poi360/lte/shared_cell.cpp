#include "poi360/lte/shared_cell.h"

#include <algorithm>
#include <stdexcept>

namespace poi360::lte {

SharedCell::SharedCell(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  // Start each background user in a random phase of its on/off cycle so the
  // cell does not begin synchronized.
  const auto& bg = config_.background;
  background_.resize(
      static_cast<std::size_t>(std::max(0, bg.background_users)));
  const double duty =
      to_seconds(bg.mean_on) / (to_seconds(bg.mean_on) + to_seconds(bg.mean_off));
  int active = 0;
  for (auto& user : background_) {
    user.active = rng_.bernoulli(duty);
    const SimDuration mean = user.active ? bg.mean_on : bg.mean_off;
    user.toggle_at = sec_f(rng_.exponential(to_seconds(mean)));
    if (user.active) ++active;
  }
  segments_.push_back(Segment{0, active});
}

int SharedCell::register_ue(double weight) {
  if (weight <= 0.0) throw std::invalid_argument("UE weight must be > 0");
  ues_.push_back(Ue{weight, 0, false});
  return static_cast<int>(ues_.size()) - 1;
}

void SharedCell::report_demand(int ue, std::int64_t backlog_bytes) {
  ues_.at(static_cast<std::size_t>(ue)).live_demand = backlog_bytes;
}

void SharedCell::commit_demand() {
  sched_weight_ = 0.0;
  for (Ue& ue : ues_) {
    ue.backlogged = ue.live_demand > 0;
    if (ue.backlogged) sched_weight_ += ue.weight;
  }
}

void SharedCell::extend(SimTime now) {
  // Collect every background toggle in (frontier_, now] — drawn per user in
  // index order, which fixes the stream — then fold them into the timeline
  // in time order.
  pending_.clear();
  const auto& bg = config_.background;
  for (auto& user : background_) {
    while (user.toggle_at <= now) {
      user.active = !user.active;
      pending_.emplace_back(user.toggle_at, user.active ? +1 : -1);
      const SimDuration mean = user.active ? bg.mean_on : bg.mean_off;
      user.toggle_at += std::max<SimDuration>(
          msec(10), sec_f(rng_.exponential(to_seconds(mean))));
    }
  }
  std::sort(pending_.begin(), pending_.end());
  for (const auto& [t, delta] : pending_) {
    const int count = segments_.back().active + delta;
    if (segments_.back().start == t) {
      segments_.back().active = count;  // coincident toggles collapse
    } else {
      segments_.push_back(Segment{t, count});
    }
  }
  frontier_ = now;
}

double SharedCell::background_weight_at(SimTime now) {
  if (now > frontier_) extend(now);
  // Last segment starting at or before `now` (the first when none does):
  // binary search for the first segment starting after it.
  std::size_t lo = 0;
  std::size_t hi = segments_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (now < segments_[mid].start) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return config_.background.background_weight *
         static_cast<double>(segments_[lo == 0 ? 0 : lo - 1].active);
}

double SharedCell::share(int ue, SimTime now) {
  const Ue& u = ues_.at(static_cast<std::size_t>(ue));
  // The asker always occupies its own slot; everyone else counts only when
  // the committed snapshot says they were backlogged.
  const double others = sched_weight_ - (u.backlogged ? u.weight : 0.0);
  return u.weight / (u.weight + others + background_weight_at(now));
}

double SharedCell::prospective_share(SimTime now) {
  return 1.0 / (1.0 + sched_weight_ + background_weight_at(now));
}

int SharedCell::active_background() const { return segments_.back().active; }

void SharedCell::trim(SimTime t) {
  while (segments_.size() > 1 && segments_[1].start <= t) {
    segments_.pop_front();
  }
}

}  // namespace poi360::lte
