#pragma once
// Staged replay of one request for the traced run.
//
// Re-executes a bundle text through each layer's public functions in the
// order the backends run them (GateBackend::run, AnnealBackend::run), with a
// span around every call: json parse + JobBundle::from_json, scheduler
// choice for "auto", admission analysis, lowering, transpilation, then
// either the dense/MPS fast path (fuse, evolve, sample, counts) or the
// whole-engine call for the trajectory, noisy and annealing paths, and
// finally decode.  The counts it returns must equal core::submit's for the
// same bundle bit for bit.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/result.hpp"

namespace perfbench {

/// What one replay produced, plus the counters recorded at its stage
/// boundaries (-1 / 0 where the stage did not run).
struct ReplayResult {
  quml::core::Counts counts;
  std::string engine;            ///< canonical engine that ran
  int num_qubits = 0;
  std::int64_t fused_ops = -1;   ///< fast path only
  std::int64_t swaps_inserted = -1;
  std::int64_t ops_after_first_measure = -1;
  std::int64_t trajectory_shots = 0;  ///< shots of Engine::run_counts' per-shot loop
  int peak_bond = 0;             ///< MPS fast path only
};

/// Spans are opened under one root span named "request" for `request`.
ReplayResult replay_request(const std::string& bundle_text, SpanLog& log, std::uint64_t request);

}  // namespace perfbench
