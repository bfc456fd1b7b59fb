#include "sim/engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "sim/fusion.hpp"
#include "util/alias_table.hpp"
#include "util/bits.hpp"
#include "util/errors.hpp"

namespace quml::sim {

namespace {

/// True when every Measure is in the trailing block (no unitary afterwards)
/// and there is no Reset.
bool has_only_trailing_measurement(const Circuit& circuit) {
  bool seen_measure = false;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == Gate::Reset) return false;
    if (inst.gate == Gate::Measure) {
      seen_measure = true;
    } else if (seen_measure && inst.gate != Gate::Barrier && inst.gate != Gate::Measure) {
      return false;
    }
  }
  return true;
}

std::string render_clbits(std::uint64_t clbit_word, int num_clbits) {
  return to_bitstring(clbit_word, static_cast<unsigned>(num_clbits));
}

/// True when `noise` attaches a channel with probability > 0 to unitary gate
/// `inst`: the 1q channel to a 1-qubit gate, the 2q channel to a 2-qubit
/// gate, and either to a wider one (see apply_gate_channel).
bool has_channel(const Instruction& inst, const NoiseModel& noise) {
  if (inst.gate == Gate::Barrier) return false;
  switch (inst.qubits.size()) {
    case 1: return noise.depolarizing_1q > 0.0;
    case 2: return noise.depolarizing_2q > 0.0;
    default: return noise.depolarizing_1q > 0.0 || noise.depolarizing_2q > 0.0;
  }
}

/// Applies Pauli k (1 = X, 2 = Y, 3 = Z) to qubit q.
void apply_pauli(SimState& state, int q, std::uint64_t k) {
  static const Gate kPauli[] = {Gate::I, Gate::X, Gate::Y, Gate::Z};
  if (k == 0) return;
  state.apply(Instruction{kPauli[k], {q}, {}, {}, {}});
}

/// Depolarizing channel on one qubit: with probability p insert a uniformly
/// random non-identity Pauli.
void depolarize_1q(SimState& state, int q, double p, Rng& rng) {
  if (p > 0.0 && rng.next_double() < p) apply_pauli(state, q, 1 + rng.next_below(3));
}

/// Two-qubit depolarizing channel: with probability p insert one of the 15
/// non-identity two-qubit Paulis uniformly.
void depolarize_2q(SimState& state, int a, int b, double p, Rng& rng) {
  if (p <= 0.0 || rng.next_double() >= p) return;
  const std::uint64_t pauli = 1 + rng.next_below(15);  // 1..15, skips II
  apply_pauli(state, a, pauli & 3);
  apply_pauli(state, b, (pauli >> 2) & 3);
}

/// The channel after unitary gate `inst`.  A 3-qubit gate gets the 2q
/// channel on its first two operands and the 1q channel on the third
/// (transpile first for realistic targets; this keeps untranspiled circuits
/// runnable).
void apply_gate_channel(SimState& state, const Instruction& inst, const NoiseModel& noise,
                        Rng& rng) {
  const std::vector<int>& q = inst.qubits;
  if (q.size() == 1) {
    depolarize_1q(state, q[0], noise.depolarizing_1q, rng);
    return;
  }
  depolarize_2q(state, q[0], q[1], noise.depolarizing_2q, rng);
  if (q.size() > 2) depolarize_1q(state, q[2], noise.depolarizing_1q, rng);
}

/// A fused unitary segment followed by one boundary instruction: a Measure, a
/// Reset, or a gate with a noise channel.  The boundary points into the
/// circuit, which outlives the segment list.
struct Segment {
  std::vector<FusedOp> ops;
  const Instruction* boundary = nullptr;
};

/// Splits a circuit into fused unitary segments at its boundaries.  Fusion
/// runs once, outside the shot loop, so every trajectory replays the compact
/// program.  Segments after the last Measure cannot influence any recorded
/// clbit and are dropped, so an empty result means the circuit measures
/// nothing.
std::vector<Segment> fuse_segments(const Circuit& circuit, const FusionOptions& options,
                                   const NoiseModel& noise) {
  std::vector<Segment> segments;
  std::vector<Instruction> pending;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == Gate::Measure || inst.gate == Gate::Reset || has_channel(inst, noise)) {
      Segment seg;
      if (!pending.empty()) seg.ops = fuse_unitaries(pending, circuit.num_qubits(), options);
      seg.boundary = &inst;
      segments.push_back(std::move(seg));
      pending.clear();
    } else {
      pending.push_back(inst);  // Barrier included: it fences fusion
    }
  }
  while (!segments.empty() && segments.back().boundary->gate != Gate::Measure)
    segments.pop_back();
  return segments;
}

}  // namespace

CountMap counts_from_alias_table(const AliasTable& table,
                                 const std::vector<std::pair<int, int>>& measurements,
                                 int num_clbits, std::int64_t shots, Rng& rng) {
  // Histogram basis indices first (amortized O(1) per shot); clbit mapping
  // and string rendering then run once per distinct outcome, and the final
  // string-keyed CountMap re-establishes deterministic order.
  BasisHistogram basis_counts;
  for (std::int64_t shot = 0; shot < shots; ++shot)
    ++basis_counts[static_cast<std::uint64_t>(table.sample(rng))];
  return counts_from_basis_histogram(basis_counts, measurements, num_clbits);
}

CountMap counts_from_basis_histogram(const BasisHistogram& histogram,
                                     const std::vector<std::pair<int, int>>& measurements,
                                     int num_clbits) {
  CountMap counts;
  for (const auto& [basis, n] : histogram) {
    std::uint64_t clbits = 0;
    for (const auto& [q, c] : measurements)
      clbits = with_bit(clbits, static_cast<unsigned>(c), bit_at(basis, static_cast<unsigned>(q)));
    counts[render_clbits(clbits, num_clbits)] += n;
  }
  return counts;
}

FusionOptions Engine::fusion_options() const {
  if (config_.representation == StateRep::Mps) {
    // A k-qubit block on the MPS costs a chi^3-dominated window contraction
    // (plus swap routing for non-adjacent support), so fusing wide is a
    // pessimization there: keep dense blocks at 2 qubits and structured ones
    // at 4.
    FusionOptions options;
    options.max_qubits = 2;
    options.max_structured_qubits = 4;
    return options;
  }
  return FusionOptions::from_env();
}

std::unique_ptr<SimState> Engine::run_state(const Circuit& circuit) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), config_);
  apply_fused(*state, fuse_unitaries(circuit, fusion_options()));  // throws on Measure/Reset
  return state;
}

Statevector Engine::run_statevector(const Circuit& circuit) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  StateConfig dense;
  dense.representation = StateRep::Statevector;
  std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), dense);
  apply_fused(*state, fuse_unitaries(circuit, FusionOptions::from_env()));
  return std::move(static_cast<Statevector&>(*state));
}

CountMap Engine::run_counts(const Circuit& circuit, std::int64_t shots, std::uint64_t seed,
                            const NoiseModel& noise) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  if (shots <= 0) throw ValidationError("shots must be positive");
  if (circuit.num_clbits() <= 0)
    throw ValidationError("circuit has no classical bits to sample into");
  if (circuit.num_clbits() > 63)
    throw ValidationError("at most 63 clbits supported");
  noise.validate();

  CountMap counts;
  Rng rng(seed);
  const FusionOptions fusion = fusion_options();

  if (!noise.enabled() && has_only_trailing_measurement(circuit)) {
    // Fast path: evolve the fused unitary prefix once, then batch-sample all
    // shots via the representation's native sampler.  sample_basis is allowed
    // to consume the state (the statevector releases its amplitudes once its
    // alias table is built), so the shot loop runs against the sampler's
    // working set only.
    std::vector<Instruction> unitaries;
    std::vector<std::pair<int, int>> measurements;  // (qubit, clbit), program order
    for (const auto& inst : circuit.instructions()) {
      if (inst.gate == Gate::Measure)
        measurements.emplace_back(inst.qubits[0], inst.clbits[0]);
      else
        unitaries.push_back(inst);  // Barrier included: it fences fusion
    }
    if (measurements.empty()) throw ValidationError("circuit contains no measurements");

    std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), config_);
    apply_fused(*state, fuse_unitaries(unitaries, circuit.num_qubits(), fusion));
    const BasisHistogram histogram = state->sample_basis(shots, rng);
    return counts_from_basis_histogram(histogram, measurements, circuit.num_clbits());
  }

  // Trajectory path: per-shot simulation with collapse and noise channels.
  // The segment before the first boundary is evolved once and cloned into
  // each trajectory (it is unitary and shot-invariant); the remaining
  // segments are fused once and replayed per shot.
  const std::vector<Segment> segments = fuse_segments(circuit, fusion, noise);
  if (segments.empty()) throw ValidationError("circuit contains no measurements");

  const std::unique_ptr<SimState> prefix = make_sim_state(circuit.num_qubits(), config_);
  apply_fused(*prefix, segments.front().ops);

  for (std::int64_t shot = 0; shot < shots; ++shot) {
    Rng shot_rng = rng.split(static_cast<std::uint64_t>(shot));
    const std::unique_ptr<SimState> state = prefix->clone();
    std::uint64_t clbits = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const Segment& seg = segments[s];
      if (s > 0) apply_fused(*state, seg.ops);
      const Instruction& inst = *seg.boundary;
      if (inst.gate == Gate::Measure) {
        int bit = state->measure_collapse(inst.qubits[0], shot_rng);
        if (noise.readout_flip > 0.0 && shot_rng.next_double() < noise.readout_flip) bit ^= 1;
        clbits = with_bit(clbits, static_cast<unsigned>(inst.clbits[0]), bit);
      } else if (inst.gate == Gate::Reset) {
        state->reset_qubit(inst.qubits[0], shot_rng);
        depolarize_1q(*state, inst.qubits[0], noise.depolarizing_1q, shot_rng);
      } else {
        state->apply(inst);
        apply_gate_channel(*state, inst, noise, shot_rng);
      }
    }
    ++counts[render_clbits(clbits, circuit.num_clbits())];
  }
  return counts;
}

}  // namespace quml::sim
