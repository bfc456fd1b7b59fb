#pragma once
// Stochastic Pauli noise for the gate substrate.
//
// The middle layer's context can demand noisy execution (a `noise` block,
// orthogonal to program semantics like every other context block).
// Engine::run_counts realizes it on any representation with trajectory
// sampling, which is *exact* for Pauli channels: each shot evolves a pure
// state, inserting a uniformly random non-identity Pauli after each gate with
// the channel probability, and flipping readout bits with the readout error
// probability.
//
// This is the physics that motivates the paper's QEC context (Listing 5):
// bench_noise_ablation shows QAOA solution quality decaying with the
// physical error rate — the decay QEC distance buys back.

namespace quml::sim {

/// Channel strengths; all probabilities in [0, 1].  The default model is
/// noiseless.
struct NoiseModel {
  double depolarizing_1q = 0.0;  ///< after every 1-qubit gate and reset
  double depolarizing_2q = 0.0;  ///< after every 2-qubit gate (two-qubit channel)
  double readout_flip = 0.0;     ///< per measured bit

  bool enabled() const {
    return depolarizing_1q > 0.0 || depolarizing_2q > 0.0 || readout_flip > 0.0;
  }
  void validate() const;
};

class Engine;
/// Former name of the noisy trajectory engine, whose loop Engine::run_counts
/// absorbed.  Only the benchmark's staged replay (perfbench/src/replay.cpp)
/// still names it; new code names Engine (declared in sim/engine.hpp).
using NoisyEngine = Engine;

}  // namespace quml::sim
