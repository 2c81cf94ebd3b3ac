#pragma once

#include <string>
#include <vector>

#include "poi360/obs/trace.h"

// Exporters for TraceRecorder contents.
//
// Chrome trace_event JSON: frame-lifecycle spans become async "b"/"e" pairs
// keyed by (category, id), so Perfetto / chrome://tracing / ui.perfetto.dev
// draws one nested track per category with the frame id as the correlation
// key. Instants become "i" events. Sim time is integer microseconds, which
// is exactly the trace_event "ts" unit — timestamps pass through untouched.
//
// CSV: one row per event, args flattened to `key=value` pairs — the grep-
// and pandas-friendly form for batch post-processing.

namespace poi360::obs {

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            const std::string& process_name,
                            std::uint64_t dropped = 0);

std::string to_trace_csv(const std::vector<TraceEvent>& events);

/// Writes the recorder's events to `path`, dispatching on the extension:
/// ".csv" writes the event CSV, anything else the Chrome trace_event JSON
/// labelled `process_name`. Throws std::runtime_error on I/O failure.
void write_trace(const std::string& path, const TraceRecorder& recorder,
                 const std::string& process_name);

}  // namespace poi360::obs
