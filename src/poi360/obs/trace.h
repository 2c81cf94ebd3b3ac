#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"

// Trace layer: typed spans and instant events in a bounded FIFO. Components
// hold a raw `TraceRecorder*` that is nullptr when tracing is off, so the
// disabled hot path is a single pointer test — no virtual call, no branch
// into this header's machinery, no allocation ever.
//
// Event names and categories must be string literals (or otherwise outlive
// the recorder): only the pointer is stored. Arguments are fixed-size
// key/double pairs for the same reason.

namespace poi360::obs {

struct TraceArg {
  const char* key;
  double value;
};

enum class Phase : std::uint8_t {
  kSpanBegin,
  kSpanEnd,
  kInstant,
};

struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  SimTime time = 0;
  std::uint64_t seq = 0;    ///< admission order, counted from 0
  const char* category = nullptr;
  const char* name = nullptr;
  std::int64_t id = -1;     ///< span correlation key (frame_id), -1 = none
  Phase phase = Phase::kInstant;
  std::uint8_t n_args = 0;
  TraceArg args[kMaxArgs] = {};
};

struct TraceConfig {
  /// The session builds a recorder only when set.
  bool enabled = false;
  /// Recorder bound in events; the oldest events are dropped past it.
  std::size_t capacity = 1 << 16;
};

/// Bounded event FIFO with drop-oldest overflow. A recorder has one writer:
/// the thread that runs its session. Read it once that thread is done.
class TraceRecorder {
 public:
  /// `capacity` is clamped to at least 1.
  explicit TraceRecorder(std::size_t capacity = TraceConfig{}.capacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void span_begin(SimTime t, const char* category, const char* name,
                  std::int64_t id, std::initializer_list<TraceArg> args = {}) {
    record(Phase::kSpanBegin, t, category, name, id, args);
  }
  void span_end(SimTime t, const char* category, const char* name,
                std::int64_t id, std::initializer_list<TraceArg> args = {}) {
    record(Phase::kSpanEnd, t, category, name, id, args);
  }
  void instant(SimTime t, const char* category, const char* name,
               std::initializer_list<TraceArg> args = {},
               std::int64_t id = -1) {
    record(Phase::kInstant, t, category, name, id, args);
  }

  /// Events ever recorded (including those later dropped).
  std::uint64_t recorded() const { return recorded_; }
  /// Events dropped at the bound.
  std::uint64_t dropped() const { return recorded_ - events_.size(); }

  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

 private:
  void record(Phase phase, SimTime t, const char* category, const char* name,
              std::int64_t id, std::initializer_list<TraceArg> args);

  std::size_t capacity_;
  Fifo<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
};

}  // namespace poi360::obs
