// Cross-engine equivalence and routing suite: the MPS simulation state run
// through the *same* public surfaces as the dense statevector — sim::Engine,
// GateBackend, svc::ExecutionService, and submit_sweep's bind-per-binding
// fallback — must agree with it wherever both representations are exact.
// This file also pins the ISSUE acceptance scenarios: a 50+ qubit
// low-entanglement circuit routes to "gate.mps_simulator" under
// engine="auto" and produces correct counts, a deep narrow circuit routes to
// the dense simulator, and over-width jobs are rejected *early* with an
// error naming the MPS alternative; a noisy job that wide runs on MPS too.
// Noisy trajectories agree key for key between the dense engine and exact
// MPS, and a disabled noise model changes no count.  (The
// no-direct-Statevector source guard that used to live here is now
// tools/check_source_guards.py, run as the "static"-labelled ctest — see
// tests/CMakeLists.txt.)
//
// The whole binary additionally runs under the "perf-smoke" ctest label (see
// tests/CMakeLists.txt): the wide-GHZ and 20-qubit-QFT scenarios double as
// smoke checks that past-the-wall widths stay cheap.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algolib/graph.hpp"
#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "algolib/arithmetic.hpp"
#include "algolib/stateprep.hpp"
#include "backend/register_backends.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/mps.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"
#include "svc/execution_service.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace quml {
namespace {

using sim::Circuit;
using sim::Gate;

constexpr double kAmpTol = 1e-10;

/// Exact MPS configuration: bond cap far above anything these widths can
/// reach, zero cutoff, so MPS results must match the dense statevector to
/// numerical precision (not merely approximately).
sim::StateConfig exact_mps_config() {
  sim::StateConfig config;
  config.representation = sim::StateRep::Mps;
  config.mps.max_bond_dim = 4096;
  config.mps.truncation_cutoff = 0.0;
  return config;
}

/// Random circuit over the 1q/2q vocabulary with unrestricted operand pairs,
/// so swap routing and descending operand orders are exercised through the
/// cross-engine comparison too.
Circuit random_circuit(std::uint64_t seed, int n, int gates, int clbits = 0) {
  Rng rng(seed);
  Circuit c(n, clbits);
  const auto wire = [&] { return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))); };
  const auto other = [&](int q) {
    return (q + 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)))) % n;
  };
  const auto angle = [&] { return rng.next_double() * 6.0 - 3.0; };
  for (int i = 0; i < gates; ++i) {
    const int q = wire();
    switch (rng.next_below(8)) {
      case 0: c.h(q); break;
      case 1: c.rx(angle(), q); break;
      case 2: c.u3(angle(), angle(), angle(), q); break;
      case 3: c.t(q); break;
      case 4: c.cx(q, other(q)); break;
      case 5: c.cz(q, other(q)); break;
      case 6: c.rzz(angle(), q, other(q)); break;
      case 7: c.cp(angle(), q, other(q)); break;
    }
  }
  return c;
}

/// Total-variation distance between two count maps (normalized per map).
double tvd(const std::map<std::string, std::int64_t>& a,
           const std::map<std::string, std::int64_t>& b) {
  double ta = 0.0, tb = 0.0;
  for (const auto& [key, value] : a) ta += static_cast<double>(value);
  for (const auto& [key, value] : b) tb += static_cast<double>(value);
  std::set<std::string> keys;
  for (const auto& [key, value] : a) keys.insert(key);
  for (const auto& [key, value] : b) keys.insert(key);
  double d = 0.0;
  for (const auto& key : keys) {
    const auto ia = a.find(key), ib = b.find(key);
    const double pa = ia == a.end() ? 0.0 : static_cast<double>(ia->second) / ta;
    const double pb = ib == b.end() ? 0.0 : static_cast<double>(ib->second) / tb;
    d += std::abs(pa - pb);
  }
  return 0.5 * d;
}

// --- bundle builders ---------------------------------------------------------

core::JobBundle ghz_job(unsigned width, std::uint64_t seed, const std::string& engine,
                        std::int64_t samples = 256) {
  const core::QuantumDataType reg = algolib::make_uint_register("g", width);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::ghz_prep_descriptor(reg));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = samples;
  ctx.exec.seed = seed;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "xghz" + std::to_string(width) + "-s" + std::to_string(seed));
}

core::JobBundle qft_job(unsigned width, std::uint64_t seed, const std::string& engine,
                        std::int64_t samples = 16) {
  const auto reg = algolib::make_phase_register("p", width);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::qft_descriptor(reg, {}));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = samples;
  ctx.exec.seed = seed;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "xqft" + std::to_string(width) + "-s" + std::to_string(seed));
}

/// Symbolic QAOA bundle ($gamma/$beta parameter references), same shape as
/// the sweep suite's — the MPS engine must run it through submit_sweep's
/// bind-per-binding fallback since it cannot cache a statevector plan.
core::JobBundle qaoa_sweep_bundle(int n, std::int64_t samples, std::uint64_t seed,
                                  const std::string& engine) {
  const algolib::Graph graph = algolib::Graph::cycle(n);
  const auto reg = algolib::make_ising_register("cut", static_cast<unsigned>(n));
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::prep_uniform_descriptor(reg));
  core::OperatorDescriptor cost = algolib::cost_phase_descriptor(reg, graph, 0.0);
  cost.params.set("gamma", json::Value("$gamma"));
  core::OperatorDescriptor mixer = algolib::mixer_descriptor(reg, 0.0);
  mixer.params.set("beta", json::Value("$beta"));
  seq.ops.push_back(std::move(cost));
  seq.ops.push_back(std::move(mixer));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = samples;
  ctx.exec.seed = seed;
  return core::JobBundle::package(core::RegisterSet(std::vector<core::QuantumDataType>{reg}),
                                  std::move(seq), ctx, "xsweep-" + engine, {"gamma", "beta"});
}

// --- engine-level equivalence ------------------------------------------------

TEST(CrossEngine, AmplitudesMatchAcrossThirtyTwoSeeds) {
  const sim::Engine mps_engine(exact_mps_config());
  const sim::Engine dense_engine;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Circuit c = random_circuit(seed, 10, 36);
    const auto mps = mps_engine.run_state(c);
    const sim::Statevector sv = dense_engine.run_statevector(c);
    double md = 0.0;
    for (std::uint64_t i = 0; i < sv.dim(); ++i)
      md = std::max(md, std::abs(mps->amplitude(i) - sv.amplitude(i)));
    EXPECT_LT(md, kAmpTol) << "seed " << seed;
  }
}

TEST(CrossEngine, DeterministicCircuitCountsMatchExactly) {
  // A computational-basis circuit has a single outcome: both engines must
  // produce the identical count map regardless of their sampler internals.
  Circuit c(8, 8);
  for (const int q : {0, 3, 4, 7}) c.x(q);
  c.cx(0, 5);  // |1> control: flips q5 deterministically
  for (int q = 0; q < 8; ++q) c.measure(q, q);
  const auto dense = sim::Engine().run_counts(c, 500, 42);
  const auto mps = sim::Engine(exact_mps_config()).run_counts(c, 500, 42);
  EXPECT_EQ(dense, mps);
  ASSERT_EQ(mps.size(), 1u);
  EXPECT_EQ(mps.begin()->second, 500);
}

TEST(CrossEngine, SampledCountsAgreeWithinTvd) {
  // The two samplers consume randomness differently (alias table vs chain
  // contraction), so counts cannot match bit-for-bit — but they draw from
  // the same distribution, so the total-variation distance between large
  // samples must be small.
  Circuit c = random_circuit(404, 6, 30, 6);
  for (int q = 0; q < 6; ++q) c.measure(q, q);
  std::map<std::string, std::int64_t> dense, mps;
  for (const auto& [key, value] : sim::Engine().run_counts(c, 8192, 7)) dense[key] = value;
  for (const auto& [key, value] : sim::Engine(exact_mps_config()).run_counts(c, 8192, 7))
    mps[key] = value;
  EXPECT_LT(tvd(dense, mps), 0.1);
}

// --- submit_sweep bind-per-binding fallback ----------------------------------

TEST(CrossEngine, SweepFallbackMatchesStatevectorSweep) {
  backend::register_builtin_backends();
  std::vector<std::vector<double>> grid;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) grid.push_back({0.3 + 0.4 * i, 0.2 + 0.3 * j});

  svc::ExecutionService service;
  const svc::SweepHandle mps_sweep =
      service.submit_sweep(qaoa_sweep_bundle(5, 4096, 11, "gate.mps_simulator"), grid);
  // No statevector realization exists for the MPS engine: the sweep must
  // take the bind-per-binding fallback, not a cached plan.
  EXPECT_FALSE(mps_sweep.plan_cached());
  const svc::SweepHandle dense_sweep =
      service.submit_sweep(qaoa_sweep_bundle(5, 4096, 11, "gate.statevector_simulator"), grid);
  EXPECT_TRUE(dense_sweep.plan_cached());
  mps_sweep.wait();
  dense_sweep.wait();

  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(mps_sweep.status(i), svc::JobStatus::Done) << mps_sweep.error(i);
    // Distributionally identical to the cached statevector plan...
    EXPECT_LT(tvd(mps_sweep.result(i).counts.map(), dense_sweep.result(i).counts.map()), 0.15)
        << "binding " << i;
  }

  // ...and bit-identical to an independent submit of the hand-bound bundle
  // on the same engine with the derived per-binding seed.
  const core::JobBundle bundle = qaoa_sweep_bundle(5, 4096, 11, "gate.mps_simulator");
  for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
    core::JobBundle bound = core::bind_bundle(bundle, grid[i]);
    bound.context->exec.seed = core::sweep_seed(11, i);
    const core::ExecutionResult want = core::submit(bound);
    EXPECT_EQ(mps_sweep.result(i).counts.map(), want.counts.map()) << "binding " << i;
    EXPECT_EQ(want.metadata.get_string("representation", ""), "mps");
  }
}

// --- acceptance: auto-routing past the wall ----------------------------------

TEST(CrossEngine, WideGhzRoutesToMpsUnderAutoWithCorrectCounts) {
  backend::register_builtin_backends();
  svc::ExecutionService service;
  // 52 qubits: far past any dense statevector (hard wall at 30), trivially
  // cheap on MPS (GHZ bond dimension 2).
  const svc::JobId id = service.submit(ghz_job(52, 9, "auto", 256));
  EXPECT_EQ(service.handle(id).engine(), "gate.mps_simulator");
  const auto decision = service.handle(id).decision();
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->backend, "gate.mps_simulator");
  const core::ExecutionResult result = service.handle(id).result();

  ASSERT_EQ(result.counts.map().size(), 2u);
  const std::string zeros(52, '0'), ones(52, '1');
  EXPECT_GE(result.counts.map().at(zeros), 64);
  EXPECT_GE(result.counts.map().at(ones), 64);
  EXPECT_EQ(result.counts.total(), 256);
  EXPECT_EQ(result.metadata.get_string("representation", ""), "mps");
}

TEST(CrossEngine, DeepNarrowCircuitRoutesToStatevectorUnderAuto) {
  backend::register_builtin_backends();
  svc::ExecutionService service;
  // A 20-qubit QFT carries ~190 two-qubit gates (entanglement score ~9.5):
  // the MPS estimate pays the chi^3 time multiplier and a fidelity penalty
  // for the bond it cannot afford, so the dense simulator must win.
  const svc::JobId id = service.submit(qft_job(20, 3, "auto", 16));
  EXPECT_EQ(service.handle(id).engine(), "gate.statevector_simulator");
  const auto decision = service.handle(id).decision();
  ASSERT_TRUE(decision.has_value());
  // The decision record carries the entanglement input the heuristic used.
  bool saw_mps_estimate = false;
  for (const auto& [name, est] : decision->considered)
    if (name == "gate.mps_simulator" && est.feasible) {
      saw_mps_estimate = true;
      EXPECT_GT(est.entanglement_score, 8.0);
    }
  EXPECT_TRUE(saw_mps_estimate);
  EXPECT_EQ(service.handle(id).result().counts.total(), 16);
}

// --- early capacity rejection ------------------------------------------------

TEST(CrossEngine, ServiceAdmissionRejectsOverWidthJobNamingAlternative) {
  backend::register_builtin_backends();
  svc::ExecutionService service;
  try {
    service.submit(ghz_job(40, 1, "gate.statevector_simulator"));
    FAIL() << "admission should reject a 40-qubit job on the dense engine";
  } catch (const ValidationError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("caps at"), std::string::npos) << message;
    EXPECT_NE(message.find("gate.mps_simulator"), std::string::npos) << message;
  }
}

TEST(CrossEngine, BackendRejectsOverWidthJobBeforeAllocating) {
  backend::register_builtin_backends();
  try {
    core::submit(ghz_job(40, 1, "gate.statevector_simulator"));
    FAIL() << "GateBackend should reject a 40-qubit dense job at admission";
  } catch (const ValidationError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("40 qubits"), std::string::npos) << message;
    EXPECT_NE(message.find("gate.mps_simulator"), std::string::npos) << message;
  }
  // The same width sails through when addressed to the MPS engine directly.
  const core::ExecutionResult result = core::submit(ghz_job(40, 1, "gate.mps_simulator", 64));
  EXPECT_EQ(result.counts.map().size(), 2u);
}

// --- noise on every representation -----------------------------------------

/// A random prefix, a mid-circuit measure-all, more gates and a reset, then a
/// final measure-all into the second half of the clbits.
Circuit mid_circuit_program(std::uint64_t seed, int n) {
  Circuit c(n, 2 * n);
  std::vector<int> wires(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) wires[static_cast<std::size_t>(q)] = q;
  c.append(random_circuit(seed, n, 24), wires, 0);
  for (int q = 0; q < n; ++q) c.measure(q, q);
  c.append(random_circuit(seed + 1000, n, 12), wires, 0);
  c.reset(0);
  c.h(0);
  for (int q = 0; q < n; ++q) c.measure(q, n + q);
  return c;
}

/// The trailing-measurement twin of mid_circuit_program.
Circuit trailing_program(std::uint64_t seed, int n) {
  Circuit c = random_circuit(seed, n, 36, n);
  c.measure_all();
  return c;
}

sim::NoiseModel all_channels() {
  sim::NoiseModel noise;
  noise.depolarizing_1q = 0.02;
  noise.depolarizing_2q = 0.05;
  noise.readout_flip = 0.03;
  return noise;
}

TEST(CrossEngine, DisabledNoiseModelLeavesCountsBitIdentical) {
  for (const sim::StateConfig& config : {sim::StateConfig{}, exact_mps_config()}) {
    const sim::Engine engine(config);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const Circuit& c : {trailing_program(seed, 5), mid_circuit_program(seed, 5)}) {
        EXPECT_EQ(engine.run_counts(c, 300, seed, sim::NoiseModel{}),
                  engine.run_counts(c, 300, seed))
            << sim::to_string(config.representation) << " seed " << seed;
      }
    }
  }
}

TEST(CrossEngine, NoisyCountsMatchBetweenDenseAndExactMps) {
  // Same stream, same channel draws: with both representations exact, every
  // collapse lands on the same side and the counts agree key for key.
  const sim::Engine dense;
  const sim::Engine mps(exact_mps_config());
  const sim::NoiseModel noise = all_channels();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Circuit ghz(8, 8);
    ghz.h(0);
    for (int q = 0; q + 1 < 8; ++q) ghz.cx(q, q + 1);
    ghz.measure_all();
    for (const Circuit& c : {ghz, trailing_program(seed, 6), mid_circuit_program(seed, 6)}) {
      EXPECT_EQ(dense.run_counts(c, 200, seed, noise), mps.run_counts(c, 200, seed, noise))
          << "seed " << seed;
    }
  }
}

TEST(CrossEngine, NoisyWideGhzRoutesToMpsUnderAuto) {
  // A noisy job past the dense wall: the scheduler picks MPS, and the noise
  // context runs there instead of being refused.
  backend::register_builtin_backends();
  svc::ExecutionService service;
  core::JobBundle bundle = ghz_job(40, 1, "auto", 64);
  bundle.context->noise = core::NoisePolicy{};
  bundle.context->noise->enabled = true;
  bundle.context->noise->depolarizing_1q = 0.01;
  const svc::JobId id = service.submit(bundle);
  EXPECT_EQ(service.handle(id).engine(), "gate.mps_simulator");
  const core::ExecutionResult result = service.handle(id).result();
  EXPECT_EQ(result.counts.total(), 64);
  // A Pauli after the H leaves the GHZ outcomes all-equal.
  for (const auto& [key, n] : result.counts.map())
    EXPECT_TRUE(key == std::string(40, '0') || key == std::string(40, '1')) << key;
  EXPECT_EQ(result.metadata.get_string("representation", ""), "mps");
  EXPECT_DOUBLE_EQ(
      result.metadata.at("services").at("noise").get_double("depolarizing_1q", 0.0), 0.01);
}

// The former representation-agnostic-sources grep test
// (EngineAndGateBackendConstructNoStatevectorDirectly) was promoted to
// tools/check_source_guards.py so it runs without GTest and also enforces
// the no-raw-std::mutex rule; ctest runs it under the "static" label.

}  // namespace
}  // namespace quml
