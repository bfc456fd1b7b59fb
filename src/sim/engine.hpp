#pragma once
// Shot execution engine on top of the pluggable simulation-state layer.
//
// The engine is representation-agnostic: it builds whatever SimState the
// StateConfig asks for (dense statevector by default, matrix-product state
// for wide low-entanglement circuits) and drives it through two execution
// paths, both running the generalized k-qubit gate-fusion pass (sim/fusion)
// first — adjacent gates merge into diagonal/monomial/dense blocks, so
// depth-dominated circuits pay far fewer full-state sweeps:
//  * trailing-measurement circuits (the common case) simulate the fused
//    unitary prefix once and batch-sample all shots from the final
//    distribution via the representation's native sampler (alias table for
//    the statevector, left-to-right conditional contraction for MPS);
//  * circuits with mid-circuit measurement/reset (correct, slower — the
//    middle layer only permits them behind an explicit context opt-in
//    anyway), and every run under an enabled NoiseModel (sim/noise), run
//    per-shot trajectories with projective collapse.  The circuit is cut into
//    fused unitary segments, each closed by a boundary instruction: a
//    Measure, a Reset, or a gate whose noise channel has probability > 0.
//    The segment before the first boundary is evolved once and cloned into
//    each trajectory; the rest are fused once and replayed.  A channel gate
//    is applied unfused (its native kernel) and then its channel fires, so
//    noise works on every representation.
//
// Fusion caps are representation-specific: the statevector takes the
// environment-tunable defaults, while MPS fuses narrow (dense cap 2,
// structured cap 4) because a k-qubit block there costs a chi^3-dominated
// window contraction, not a 2^n sweep.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/fusion.hpp"
#include "sim/noise.hpp"
#include "sim/sim_state.hpp"
#include "sim/statevector.hpp"
#include "util/alias_table.hpp"
#include "util/rng.hpp"

namespace quml::sim {

/// Histogram over clbit strings, keys rendered MSB-first (clbit 0 is the
/// rightmost character, matching Qiskit count keys).
using CountMap = std::map<std::string, std::int64_t>;

/// Batch-samples `shots` basis indices from a prepared alias table over the
/// final distribution and maps them through the trailing `(qubit, clbit)`
/// measurement list into rendered count keys.  Shared by the sweep executor
/// (sim/sweep.hpp) and the statevector trailing path, so both sample
/// bit-identically for the same RNG stream.
CountMap counts_from_alias_table(const AliasTable& table,
                                 const std::vector<std::pair<int, int>>& measurements,
                                 int num_clbits, std::int64_t shots, Rng& rng);

/// Maps a basis-index histogram (a SimState::sample_basis result) through the
/// trailing `(qubit, clbit)` measurement list into rendered count keys.
CountMap counts_from_basis_histogram(const BasisHistogram& histogram,
                                     const std::vector<std::pair<int, int>>& measurements,
                                     int num_clbits);

/// Re-entrancy: Engine holds only its immutable StateConfig —
/// run_counts/run_statevector allocate everything (simulation state, fusion
/// plan, RNG streams) per call, so one Engine may be driven from many threads
/// at once and every call returns exactly the counts the same seed produces
/// single-threaded.  The svc::ExecutionService worker pools rely on this
/// (asserted by SvcSimReentrancy in tests/test_svc.cpp under the tsan preset).
class Engine {
 public:
  /// Engine over the default (statevector) representation.
  Engine() = default;
  /// Engine over the representation `config` selects.
  explicit Engine(StateConfig config) : config_(config) {}

  const StateConfig& config() const noexcept { return config_; }

  /// Fusion caps used for this engine's representation.
  FusionOptions fusion_options() const;

  /// Executes `shots` shots; all randomness derives from `seed`.  Shot t of
  /// the trajectory path draws from the stream rng(seed).split(t), in program
  /// order: per Measure its collapse draw and then, when readout_flip > 0, the
  /// flip draw; per Reset its collapse draw and then the 1q channel; per
  /// channel gate its channel.  A default (disabled) `noise` leaves the counts
  /// bit-identical to a noiseless call.
  CountMap run_counts(const Circuit& circuit, std::int64_t shots, std::uint64_t seed,
                      const NoiseModel& noise = {}) const;

  /// Runs the unitary part only and returns the final state in whatever
  /// representation the engine is configured for (throws ValidationError if
  /// the circuit contains Measure/Reset).
  std::unique_ptr<SimState> run_state(const Circuit& circuit) const;

  /// Runs the unitary part only and returns the final dense statevector
  /// (throws ValidationError if the circuit contains Measure/Reset).  Always
  /// dense regardless of the engine's configured representation — callers
  /// wanting the configured representation use run_state().
  Statevector run_statevector(const Circuit& circuit) const;

 private:
  StateConfig config_{};
};

}  // namespace quml::sim
