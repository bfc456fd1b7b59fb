#include "replay.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "algolib/ising.hpp"
#include "analysis/passes.hpp"
#include "anneal/sampler.hpp"
#include "backend/lowering.hpp"
#include "core/registry.hpp"
#include "json/json.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/mps.hpp"
#include "sim/noise.hpp"
#include "transpile/transpiler.hpp"

namespace perfbench {

namespace {

using namespace quml;

/// Same rule as the engine's batch-sampling path: every Measure trails the
/// unitaries and nothing resets.
bool only_trailing_measurement(const sim::Circuit& circuit) {
  bool seen_measure = false;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == sim::Gate::Reset) return false;
    if (inst.gate == sim::Gate::Measure)
      seen_measure = true;
    else if (seen_measure && inst.gate != sim::Gate::Barrier)
      return false;
  }
  return true;
}

/// Operations (other than measurements and barriers) after the first
/// measurement: what forces the per-shot trajectory loop.
std::int64_t ops_after_first_measure(const sim::Circuit& circuit) {
  std::int64_t count = 0;
  bool seen_measure = false;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == sim::Gate::Measure) {
      seen_measure = true;
    } else if (seen_measure && inst.gate != sim::Gate::Barrier) {
      ++count;
    }
  }
  return count;
}

/// The engine configuration GateBackend::run derives from the context.
sim::StateConfig state_config(sim::StateRep representation, const core::ExecPolicy& exec) {
  sim::StateConfig config;
  config.representation = representation;
  if (representation == sim::StateRep::Mps) {
    config.mps.max_bond_dim =
        static_cast<int>(exec.options.get_int("max_bond_dim", config.mps.max_bond_dim));
    config.mps.truncation_cutoff =
        exec.options.get_double("truncation_cutoff", config.mps.truncation_cutoff);
  }
  return config;
}

void replay_anneal(const core::JobBundle& bundle, ReplayResult& out, SpanLog& log,
                   std::uint64_t request, int root) {
  const core::Context ctx = bundle.context.value_or(core::Context{});
  const core::OperatorDescriptor* problem = nullptr;
  for (const auto& op : bundle.operators.ops)
    if (op.rep_kind == core::rep::kIsingProblem) problem = &op;
  if (problem == nullptr) throw std::runtime_error("anneal bundle has no ISING_PROBLEM");
  const core::QuantumDataType& reg = bundle.registers.at(problem->domain_qdt);
  out.num_qubits = static_cast<int>(reg.width);

  anneal::IsingModel model;
  {
    ScopedSpan span(log, "backend.lower", request, root);
    model = algolib::ising_model_from_descriptor(*problem, reg.width);
  }
  const core::AnnealPolicy policy = ctx.anneal.value_or(core::AnnealPolicy{});
  anneal::AnnealParams params;
  params.num_reads = policy.num_reads;
  params.num_sweeps = policy.num_sweeps;
  params.beta_min = policy.beta_min;
  params.beta_max = policy.beta_max;
  params.schedule =
      policy.schedule == "linear" ? anneal::Schedule::Linear : anneal::Schedule::Geometric;
  params.seed = policy.seed.value_or(ctx.exec.seed);
  anneal::SampleSet samples;
  {
    ScopedSpan span(log, "anneal.sample", request, root);
    samples = anneal::SimulatedAnnealer().sample(model, params);
  }
  for (const auto& sample : samples.samples()) out.counts.add(sample.bitstring(), sample.occurrences);
  ScopedSpan span(log, "core.decode", request, root);
  const core::ResultSchema schema = problem->result_schema.value_or(core::ResultSchema{});
  (void)core::decode_counts(out.counts, schema, reg);
}

void replay_gate(const core::JobBundle& bundle, sim::StateRep representation, ReplayResult& out,
                 SpanLog& log, std::uint64_t request, int root) {
  const core::Context ctx = bundle.context.value_or(core::Context{});
  const core::ExecPolicy& exec = ctx.exec;

  sim::Circuit logical;
  {
    ScopedSpan span(log, "backend.lower", request, root);
    logical = backend::lower_bundle(bundle);
  }
  out.num_qubits = logical.num_qubits();
  transpile::TranspileResult transpiled;
  {
    ScopedSpan span(log, "transpile", request, root);
    transpiled = transpile::transpile(logical, backend::transpile_options_for(exec));
  }
  const sim::Circuit& circuit = transpiled.circuit;
  out.swaps_inserted = transpiled.swaps_inserted;
  out.ops_after_first_measure = ops_after_first_measure(circuit);

  const sim::StateConfig config = state_config(representation, exec);
  const sim::Engine engine(config);
  sim::CountMap raw;
  if (ctx.noise && ctx.noise->enabled) {
    sim::NoiseModel model;
    model.depolarizing_1q = ctx.noise->depolarizing_1q;
    model.depolarizing_2q = ctx.noise->depolarizing_2q;
    model.readout_flip = ctx.noise->readout_flip;
    ScopedSpan span(log, "sim.noisy", request, root);
    raw = sim::NoisyEngine().run_counts(circuit, exec.samples, exec.seed, model);
  } else if (!only_trailing_measurement(circuit)) {
    ScopedSpan span(log, "sim.trajectory", request, root);
    raw = engine.run_counts(circuit, exec.samples, exec.seed);
    out.trajectory_shots = exec.samples;
  } else {
    // Engine::run_counts' batch path, one public call per stage.
    const bool mps = representation == sim::StateRep::Mps;
    std::vector<sim::Instruction> unitaries;
    std::vector<std::pair<int, int>> measurements;
    for (const auto& inst : circuit.instructions()) {
      if (inst.gate == sim::Gate::Measure)
        measurements.emplace_back(inst.qubits[0], inst.clbits[0]);
      else
        unitaries.push_back(inst);
    }
    Rng rng(exec.seed);
    std::vector<sim::FusedOp> ops;
    {
      ScopedSpan span(log, "sim.fuse", request, root);
      ops = sim::fuse_unitaries(unitaries, circuit.num_qubits(), engine.fusion_options());
    }
    out.fused_ops = static_cast<std::int64_t>(ops.size());
    std::unique_ptr<sim::SimState> state;
    {
      ScopedSpan span(log, mps ? "sim.mps.evolve" : "sim.evolve", request, root);
      state = sim::make_sim_state(circuit.num_qubits(), config);
      sim::apply_fused(*state, ops);
    }
    if (mps) out.peak_bond = dynamic_cast<const sim::Mps&>(*state).peak_bond_dimension();
    sim::BasisHistogram histogram;
    {
      ScopedSpan span(log, mps ? "sim.mps.sample" : "sim.sample", request, root);
      histogram = state->sample_basis(exec.samples, rng);
    }
    ScopedSpan span(log, "sim.counts", request, root);
    raw = sim::counts_from_basis_histogram(histogram, measurements, circuit.num_clbits());
  }
  for (const auto& [bits, n] : raw) out.counts.add(bits, n);

  ScopedSpan span(log, "core.decode", request, root);
  const core::ResultSchema* schema = backend::effective_schema(bundle.operators);
  if (schema == nullptr || schema->clbit_order.empty())
    throw std::runtime_error("gate bundle has no result schema");
  (void)core::decode_counts(out.counts, *schema,
                            bundle.registers.at(schema->clbit_order.front().reg));
}

}  // namespace

ReplayResult replay_request(const std::string& bundle_text, SpanLog& log, std::uint64_t request) {
  ReplayResult out;
  const ScopedSpan root(log, "request", request, -1);

  core::JobBundle bundle;
  {
    ScopedSpan span(log, "json.parse", request, root.index());
    bundle = core::JobBundle::from_json(json::parse(bundle_text));
  }
  if (!bundle.context) throw std::runtime_error("bundle has no context");

  auto& registry = core::BackendRegistry::instance();
  if (bundle.context->exec.engine == "auto") {
    ScopedSpan span(log, "sched.choose", request, root.index());
    bundle.context->exec.engine =
        sched::choose_backend(bundle, sched::registry_capabilities()).backend;
  }
  out.engine = registry.canonical(bundle.context->exec.engine);
  const sched::BackendCapability cap =
      sched::BackendCapability::from_json(registry.capabilities(out.engine));
  {
    // The admission options ExecutionService::route uses for a direct submit.
    ScopedSpan span(log, "analysis.analyze", request, root.index());
    analysis::AnalyzeOptions options;
    options.capability = cap;
    options.require_bound = true;
    options.resource_notes = false;
    const analysis::Report report = analysis::analyze_bundle(bundle, options);
    if (report.has_errors())
      throw analysis::DiagnosticError("bundle '" + bundle.job_id + "' rejected at admission",
                                      report.errors());
  }

  if (cap.kind == "anneal") {
    replay_anneal(bundle, out, log, request, root.index());
  } else {
    replay_gate(bundle,
                out.engine == "gate.mps_simulator" ? sim::StateRep::Mps
                                                   : sim::StateRep::Statevector,
                out, log, request, root.index());
  }
  return out;
}

}  // namespace perfbench
