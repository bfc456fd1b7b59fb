#include "workloads.hpp"

#include <stdexcept>

#include "common.hpp"

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace {

using namespace quml;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr unsigned kQftWidth = 20;
constexpr int kMaxCutNodes = 12;
/// maxcut_portable draws this many graphs per seed and cycles through them,
/// so a run's cost is an average over instances rather than one graph's
/// routing luck (one graph per seed spread throughput by 10% across seeds).
constexpr int kMaxCutGraphs = 6;
constexpr unsigned kServeWidth = 3;
constexpr std::int64_t kServeShots = 128;
/// One serve_tiny job in kDefectiveEvery is an unbound-$param bundle.
constexpr std::uint64_t kDefectiveEvery = 16;

core::RegisterSet registers_of(const core::QuantumDataType& reg) {
  core::RegisterSet regs;
  regs.add(reg);
  return regs;
}

/// QAOA p = 2 at angles near the fixed-angle optimum for 3-regular graphs
/// (ideal expected cut ~0.75 |E| on the generated instances).
algolib::QaoaAngles maxcut_p2_angles() {
  algolib::QaoaAngles angles;
  angles.gammas = {0.5, 0.9};
  angles.betas = {0.5, 0.3};
  return angles;
}

core::Context gate_context(const std::string& engine, std::int64_t shots, std::uint64_t seed) {
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = shots;
  ctx.exec.seed = seed;
  return ctx;
}

/// Context (a): sx/rz/cx on a ring coupling map at optimization level 2.
core::Context routed_context(std::int64_t shots, std::uint64_t seed) {
  core::Context ctx = gate_context("gate.statevector_simulator", shots, seed);
  ctx.exec.target.basis_gates = {"sx", "rz", "cx"};
  for (int q = 0; q < kMaxCutNodes; ++q)
    ctx.exec.target.coupling_map.emplace_back(q, (q + 1) % kMaxCutNodes);
  ctx.exec.options.set("optimization_level", json::Value(static_cast<std::int64_t>(2)));
  return ctx;
}

core::JobBundle unbound_param_bundle(std::uint64_t seed, const std::string& job_id) {
  const auto reg = algolib::make_ising_register("s", 4);
  core::OperatorSequence seq;
  core::OperatorDescriptor cost =
      algolib::cost_phase_descriptor(reg, algolib::Graph::cycle(4), 0.0);
  cost.params.set("gamma", json::Value("$gamma"));
  seq.ops.push_back(std::move(cost));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  return core::JobBundle::package(registers_of(reg), std::move(seq),
                                  gate_context("gate.statevector_simulator", kServeShots, seed),
                                  job_id, {"gamma"});
}

struct ShapeSpec {
  const char* label;
  std::int64_t shots;
  int width;
  bool defective;
};

std::vector<ShapeSpec> shape_specs(const std::string& workload) {
  if (workload == "qft20") return {{"qft20", 1024, kQftWidth, false}};
  if (workload == "maxcut_portable")
    return {{"qaoa_routed", 256, kMaxCutNodes, false},
            {"qaoa_noisy", 64, kMaxCutNodes, false},
            {"ising_anneal", 256, kMaxCutNodes, false}};
  if (workload == "mps_ring") return {{"w32", 128, 32, false}, {"w40", 128, 40, false}};
  if (workload == "serve_tiny")
    return {{"qft3", kServeShots, static_cast<int>(kServeWidth), false},
            {"unbound_param", kServeShots, 4, true}};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace

core::JobBundle package_shape(const std::string& workload, const std::string& label,
                              const algolib::Graph& graph, std::uint64_t seed,
                              const std::string& job_id) {
  if (label == "qft20") {
    const auto reg = algolib::make_phase_register("reg_phase", kQftWidth);
    core::OperatorSequence seq;
    seq.ops.push_back(algolib::qft_descriptor(reg, {}));
    seq.ops.push_back(algolib::measurement_descriptor(reg));
    return core::JobBundle::package(registers_of(reg), std::move(seq),
                                    gate_context("gate.statevector_simulator", 1024, seed),
                                    job_id);
  }
  if (workload == "maxcut_portable") {
    // One register for all three contexts: only the operator formulation and
    // the context change between them (the paper's portability claim).
    const auto reg = algolib::make_ising_register("maxcut", kMaxCutNodes);
    if (label == "ising_anneal") {
      core::OperatorSequence seq;
      seq.ops.push_back(algolib::maxcut_ising_descriptor(reg, graph));
      core::Context ctx = gate_context("anneal.simulated_annealer", 256, seed);
      core::AnnealPolicy anneal;
      anneal.num_reads = 256;
      anneal.num_sweeps = 1000;
      ctx.anneal = anneal;
      return core::JobBundle::package(registers_of(reg), std::move(seq), ctx, job_id);
    }
    const bool noisy = label == "qaoa_noisy";
    core::Context ctx = routed_context(noisy ? 64 : 256, seed);
    if (noisy) {
      core::NoisePolicy noise;
      noise.enabled = true;
      noise.depolarizing_1q = 1e-3;
      noise.depolarizing_2q = 1e-2;
      noise.readout_flip = 1e-2;
      ctx.noise = noise;
    }
    return core::JobBundle::package(registers_of(reg),
                                    algolib::qaoa_sequence(reg, graph, maxcut_p2_angles()), ctx,
                                    job_id);
  }
  if (workload == "mps_ring") {
    const int n = label == "w32" ? 32 : 40;
    const auto reg = algolib::make_ising_register("ring", static_cast<unsigned>(n));
    return core::JobBundle::package(
        registers_of(reg),
        algolib::qaoa_sequence(reg, algolib::Graph::cycle(n), algolib::ring_p1_angles()),
        gate_context("auto", 128, seed), job_id);
  }
  if (label == "qft3")
    return serve::make_load_bundle(kServeWidth, kServeShots, seed, "gate.statevector_simulator",
                                   job_id);
  if (label == "unbound_param") return unbound_param_bundle(seed, job_id);
  throw std::invalid_argument("unknown shape '" + label + "' of workload '" + workload + "'");
}

BundleTemplate::BundleTemplate(const core::JobBundle& bundle) {
  const std::string text = json::dump(bundle.to_json());
  const std::string seed_token = std::to_string(kSeedToken);
  const std::string id_token = kJobIdToken;
  std::size_t from = 0;
  for (;;) {
    const std::size_t at_seed = text.find(seed_token, from);
    const std::size_t at_id = text.find(id_token, from);
    const std::size_t at = std::min(at_seed, at_id);
    if (at == std::string::npos) break;
    literals_.push_back(text.substr(from, at - from));
    holes_.push_back(at == at_seed ? Hole::Seed : Hole::JobId);
    from = at + (at == at_seed ? seed_token.size() : id_token.size());
  }
  literals_.push_back(text.substr(from));
  bool has_seed = false;
  for (const Hole hole : holes_) has_seed = has_seed || hole == Hole::Seed;
  if (!has_seed) throw std::logic_error("bundle template carries no seed token");
}

std::string BundleTemplate::render(std::uint64_t seed, const std::string& job_id) const {
  const std::string seed_text = std::to_string(seed);
  std::string out = literals_.front();
  for (std::size_t i = 0; i < holes_.size(); ++i) {
    out += holes_[i] == Hole::Seed ? seed_text : job_id;
    out += literals_[i + 1];
  }
  return out;
}

const std::vector<std::string>& Workload::names() {
  static const std::vector<std::string> kNames = {"qft20", "maxcut_portable", "mps_ring",
                                                  "serve_tiny"};
  return kNames;
}

Workload::Workload(const std::string& name, std::uint64_t seed)
    : name_(name), seed_base_((splitmix64(seed) & ((1ull << 28) - 1)) << 24) {
  const std::vector<ShapeSpec> specs = shape_specs(name);
  warmups_ = name == "serve_tiny" ? static_cast<int>(kDefectiveEvery) : static_cast<int>(specs.size());
  const algolib::Graph none;
  const auto add_shapes = [&](const algolib::Graph& graph, int graph_index) {
    for (const ShapeSpec& spec : specs)
      shapes_.push_back(Shape{spec.label, spec.shots, spec.width, spec.defective, graph_index,
                              BundleTemplate(package_shape(name, spec.label, graph,
                                                           BundleTemplate::kSeedToken,
                                                           BundleTemplate::kJobIdToken))});
  };
  if (name != "maxcut_portable") {
    add_shapes(none, -1);
    return;
  }
  for (int g = 0; g < kMaxCutGraphs; ++g) {
    graphs_.push_back(algolib::Graph::random_cubic(kMaxCutNodes, splitmix64(seed_base_ + g)));
    add_shapes(graphs_.back(), g);
  }
}

int Workload::shape_of(std::uint64_t index) const {
  if (name_ == "serve_tiny") return index % kDefectiveEvery == kDefectiveEvery - 1 ? 1 : 0;
  // w32, w40, w40: two thirds of the requests are 40 wide, so the median
  // latency sits inside one width's cluster instead of between the two.
  if (name_ == "mps_ring") return index % 3 == 0 ? 0 : 1;
  return static_cast<int>(index % shapes_.size());
}

Request Workload::warmup(int round, int j) const {
  // Every round warms the same shapes: those of the first timed requests.
  return render(kWarmupBase + static_cast<std::uint64_t>(round * warmups_ + j),
                shape_of(static_cast<std::uint64_t>(j)));
}

std::uint64_t Workload::seed_of(std::uint64_t index) const {
  // 28 seed bits above a 24-bit request index: distinct per index and below
  // 2^52.  A run never reaches 2^23 timed requests, so the warm-up indices
  // from kWarmupBase = 2^23 up never collide with them.
  return seed_base_ | (index & ((1ull << 24) - 1));
}

Request Workload::request(std::uint64_t index) const { return render(index, shape_of(index)); }

Request Workload::render(std::uint64_t index, int shape) const {
  Request req;
  req.index = index;
  req.shape = shape;
  req.seed = seed_of(index);
  req.text = shapes_[static_cast<std::size_t>(req.shape)].bundle.render(
      req.seed, name_ + "-" + std::to_string(index));
  return req;
}

std::uint64_t Workload::digest(std::uint64_t count) const {
  std::uint64_t hash = fnv1a("");
  for (const auto& graph : graphs_) hash = fnv1a(json::dump(graph.to_json()), hash);
  for (std::uint64_t i = 0; i < count; ++i) hash = fnv1a(request(i).text, hash);
  return hash;
}

}  // namespace perfbench
