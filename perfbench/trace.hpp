#pragma once

// The traced run: replays one workload's pipeline through the public
// functions the CLI and the server call, with a span around each call.

#include <string>

namespace perfbench {

struct TraceConfig {
  std::string input;     // schedule file (.csv, .xml or .jbin)
  std::string window;    // "A:B" time window, or empty for the full view
  std::string requests;  // serve request sequence (gen requests format)
  std::string spans_out; // the span schedule, written as Jedule CSV
  std::string scratch;   // directory for temporary outputs
  int threads = 4;
};

/// Runs the traced replay and returns its per-layer metrics as one JSON
/// object (name -> number).
std::string run_trace(const TraceConfig& cfg);

}  // namespace perfbench
