// Tests for stochastic Pauli noise in sim::Engine's trajectory loop:
// analytic channel checks (readout flip, depolarizing fixed points),
// determinism, zero-noise equivalence, golden counts pinned from the former
// dedicated noisy engine, and the context-block integration through the gate
// backend.  The NoisyEngine suite name is historical: every test drives
// sim::Engine::run_counts with a NoiseModel.

#include <gtest/gtest.h>

#include <cmath>

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "backend/register_backends.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "util/errors.hpp"

namespace quml {
namespace {

using sim::Circuit;
using sim::CountMap;
using sim::NoiseModel;
using sim::Engine;

double prob_of(const CountMap& counts, const std::string& key, std::int64_t shots) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0.0 : static_cast<double>(it->second) / static_cast<double>(shots);
}

TEST(NoiseModel, Validation) {
  NoiseModel bad;
  bad.depolarizing_1q = 1.5;
  EXPECT_THROW(bad.validate(), ValidationError);
  NoiseModel negative;
  negative.readout_flip = -0.1;
  EXPECT_THROW(negative.validate(), ValidationError);
  NoiseModel ok;
  ok.depolarizing_2q = 0.5;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(ok.enabled());
  EXPECT_FALSE(NoiseModel{}.enabled());
}

TEST(NoisyEngine, ReadoutFlipMatchesAnalytic) {
  // |0> measured with flip probability p reads 1 with probability exactly p.
  Circuit c(1, 1);
  c.measure(0, 0);
  NoiseModel model;
  model.readout_flip = 0.2;
  const std::int64_t shots = 100000;
  const CountMap counts = Engine().run_counts(c, shots, 42, model);
  EXPECT_NEAR(prob_of(counts, "1", shots), 0.2, 0.01);
}

TEST(NoisyEngine, Depolarizing1qFixedPoint) {
  // After a 1q gate with depolarizing p, |1> flips to |0> with probability
  // p * 2/3 * ... : X or Y (2 of 3 Paulis) flip the Z-basis state: P(flip) = 2p/3.
  Circuit c(1, 1);
  c.x(0);
  c.measure(0, 0);
  NoiseModel model;
  model.depolarizing_1q = 0.3;
  const std::int64_t shots = 100000;
  const CountMap counts = Engine().run_counts(c, shots, 7, model);
  EXPECT_NEAR(prob_of(counts, "0", shots), 0.3 * 2.0 / 3.0, 0.01);
}

TEST(NoisyEngine, GhzParityDecaysWith2qNoise) {
  // Each CX with 2q depolarizing noise randomizes the GHZ parity; more CX
  // layers -> parity expectation decays toward 0.
  auto parity_expectation = [](int chain_length, double p) {
    Circuit c(chain_length, chain_length);
    c.h(0);
    for (int q = 0; q + 1 < chain_length; ++q) c.cx(q, q + 1);
    c.measure_all();
    NoiseModel model;
    model.depolarizing_2q = p;
    const std::int64_t shots = 20000;
    const CountMap counts = Engine().run_counts(c, shots, 3, model);
    std::int64_t even = 0;
    for (const auto& [key, n] : counts) {
      const bool all_same = key.find('0') == std::string::npos ||
                            key.find('1') == std::string::npos;
      if (all_same) even += n;
    }
    return static_cast<double>(even) / static_cast<double>(shots);
  };
  const double clean = parity_expectation(4, 0.0);
  const double low = parity_expectation(4, 0.02);
  const double high = parity_expectation(4, 0.2);
  EXPECT_NEAR(clean, 1.0, 1e-12);
  EXPECT_GT(low, high);
  EXPECT_GT(clean, low);
}

TEST(NoisyEngine, ZeroNoiseMatchesIdealDistribution) {
  Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const std::int64_t shots = 50000;
  const CountMap noisy = Engine().run_counts(c, shots, 11, NoiseModel{});
  // Only the Bell outcomes appear, each with ~1/2.
  EXPECT_EQ(noisy.size(), 2u);
  EXPECT_NEAR(prob_of(noisy, "00", shots), 0.5, 0.01);
  EXPECT_NEAR(prob_of(noisy, "11", shots), 0.5, 0.01);
}

TEST(NoisyEngine, DeterministicInSeed) {
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  NoiseModel model;
  model.depolarizing_1q = 0.05;
  model.depolarizing_2q = 0.05;
  model.readout_flip = 0.02;
  const CountMap a = Engine().run_counts(c, 2000, 5, model);
  const CountMap b = Engine().run_counts(c, 2000, 5, model);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Engine().run_counts(c, 2000, 6, model));
}

TEST(NoisyEngine, GoldenCountsWithMidCircuitMeasureAndReset) {
  // Recorded from the dedicated per-shot noisy engine this loop replaced:
  // same seed, same stream order (collapse, readout flip, reset channel, gate
  // channels with the 3q gate split 2q + 1q), so the counts must not move.
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.measure(1, 0);
  c.reset(1);
  c.rx(0.9, 1);
  c.cx(1, 2);
  c.ccx(0, 1, 2);
  c.measure(0, 1);
  c.h(0);
  c.measure(2, 2);
  NoiseModel model;
  model.depolarizing_1q = 0.05;
  model.depolarizing_2q = 0.1;
  model.readout_flip = 0.03;
  const CountMap expected = {{"000", 310}, {"001", 48}, {"010", 68},  {"011", 371},
                             {"100", 119}, {"101", 19}, {"110", 10}, {"111", 55}};
  EXPECT_EQ(Engine().run_counts(c, 1000, 2024, model), expected);
}

TEST(NoisyEngine, InputValidation) {
  Circuit no_clbits(1, 0);
  no_clbits.h(0);
  EXPECT_THROW(Engine().run_counts(no_clbits, 10, 0, NoiseModel{}), ValidationError);
  Circuit no_measure(1, 1);
  no_measure.h(0);
  EXPECT_THROW(Engine().run_counts(no_measure, 10, 0, NoiseModel{}), ValidationError);
  Circuit ok(1, 1);
  ok.measure(0, 0);
  EXPECT_THROW(Engine().run_counts(ok, 0, 0, NoiseModel{}), ValidationError);
  NoiseModel bad;
  bad.readout_flip = 1.5;
  EXPECT_THROW(Engine().run_counts(ok, 10, 0, bad), ValidationError);
}

// --- context integration ------------------------------------------------------

class NoiseContextTest : public ::testing::Test {
 protected:
  void SetUp() override { backend::register_builtin_backends(); }
};

TEST_F(NoiseContextTest, NoiseBlockParsesAndValidates) {
  const core::Context ctx = core::Context::from_json(json::parse(R"({
    "exec": {"engine": "gate.statevector_simulator"},
    "noise": {"enabled": true, "depolarizing_1q": 0.001, "depolarizing_2q": 0.01,
              "readout_flip": 0.02}
  })"));
  ASSERT_TRUE(ctx.noise.has_value());
  EXPECT_TRUE(ctx.noise->enabled);
  EXPECT_DOUBLE_EQ(ctx.noise->depolarizing_2q, 0.01);
  EXPECT_EQ(core::Context::from_json(ctx.to_json()).to_json(), ctx.to_json());
  EXPECT_THROW(core::Context::from_json(
                   json::parse(R"({"noise": {"depolarizing_1q": 2.0}})")),
               SchemaError);
}

TEST_F(NoiseContextTest, QaoaCutDegradesWithNoise) {
  // The QEC motivation made measurable: the same bundle, increasingly noisy
  // contexts, monotonically (stochastically) worse cuts.
  const core::QuantumDataType reg = algolib::make_ising_register("s", 4);
  const algolib::Graph graph = algolib::Graph::cycle(4);
  auto run_with_noise = [&](double p2) {
    core::Context ctx;
    ctx.exec.engine = "gate.statevector_simulator";
    ctx.exec.samples = 8192;
    ctx.exec.seed = 42;
    if (p2 > 0.0) {
      core::NoisePolicy noise;
      noise.enabled = true;
      noise.depolarizing_2q = p2;
      ctx.noise = noise;
    }
    core::RegisterSet regs;
    regs.add(reg);
    const auto result = core::submit(core::JobBundle::package(
        std::move(regs), algolib::qaoa_sequence(reg, graph, algolib::ring_p1_angles()), ctx));
    return result.counts.expectation(
        [&](const std::string& bits) { return graph.cut_value_bits(bits); });
  };
  const double clean = run_with_noise(0.0);
  const double mild = run_with_noise(0.05);
  const double heavy = run_with_noise(0.5);
  EXPECT_NEAR(clean, 3.0, 0.1);
  EXPECT_GT(clean, mild);
  EXPECT_GT(mild, heavy);
  EXPECT_NEAR(heavy, 2.0, 0.2);  // fully mixed -> E[cut] = |E|/2 = 2
}

TEST_F(NoiseContextTest, MetadataReportsNoiseService) {
  const core::QuantumDataType reg = algolib::make_ising_register("s", 4);
  core::Context ctx;
  ctx.exec.engine = "gate.statevector_simulator";
  ctx.exec.samples = 256;
  core::NoisePolicy noise;
  noise.enabled = true;
  noise.readout_flip = 0.01;
  ctx.noise = noise;
  core::RegisterSet regs;
  regs.add(reg);
  const auto result = core::submit(core::JobBundle::package(
      std::move(regs),
      algolib::qaoa_sequence(reg, algolib::Graph::cycle(4), algolib::ring_p1_angles()), ctx));
  EXPECT_DOUBLE_EQ(
      result.metadata.at("services").at("noise").get_double("readout_flip", 0.0), 0.01);
}

TEST_F(NoiseContextTest, DisabledNoiseBlockUsesIdealEngine) {
  const core::QuantumDataType reg = algolib::make_ising_register("s", 4);
  core::Context ctx;
  ctx.exec.engine = "gate.statevector_simulator";
  ctx.exec.samples = 512;
  ctx.exec.seed = 9;
  core::NoisePolicy noise;  // enabled = false
  noise.depolarizing_2q = 0.5;
  ctx.noise = noise;
  core::Context plain = ctx;
  plain.noise.reset();
  auto run = [&](const core::Context& c) {
    core::RegisterSet regs;
    regs.add(reg);
    return core::submit(core::JobBundle::package(
        std::move(regs),
        algolib::qaoa_sequence(reg, algolib::Graph::cycle(4), algolib::ring_p1_angles()), c));
  };
  EXPECT_EQ(run(ctx).counts.to_json(), run(plain).counts.to_json());
}

}  // namespace
}  // namespace quml
