#pragma once

#include <string>

#include "poi360/runner/batch_runner.h"

// Structured result emitters: one summary row per run (identity, axis
// labels, outcome, wall time, headline metrics), as CSV or JSON. Output
// depends only on the results in grid order, never on completion order, so
// emitted files are byte-identical across --jobs settings.

namespace poi360::runner {

/// CSV with a header row; axis columns come from the batch's grid.
std::string to_csv(const BatchResult& batch);

/// JSON object: batch metadata plus a "runs" array of per-run objects.
std::string to_json(const BatchResult& batch);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void write_csv(const std::string& path, const BatchResult& batch);
void write_json(const std::string& path, const BatchResult& batch);

}  // namespace poi360::runner
