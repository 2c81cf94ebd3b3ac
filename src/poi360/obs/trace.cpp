#include "poi360/obs/trace.h"

#include <algorithm>

namespace poi360::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void TraceRecorder::record(Phase phase, SimTime t, const char* category,
                           const char* name, std::int64_t id,
                           std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.time = t;
  e.seq = recorded_++;
  e.category = category;
  e.name = name;
  e.id = id;
  e.phase = phase;
  e.n_args = static_cast<std::uint8_t>(
      std::min<std::size_t>(args.size(), TraceEvent::kMaxArgs));
  std::copy_n(args.begin(), e.n_args, e.args);
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(e);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  return {events_.begin(), events_.end()};
}

}  // namespace poi360::obs
