// ExecutionService + registry concurrency suite: alias-collision detection
// (regression: first-match lookup used to let a colliding alias silently
// shadow an engine), async-vs-serial determinism (N client threads x M mixed
// gate/anneal jobs must reproduce serial core::submit bit-for-bit),
// cancellation and failure propagation, job timeouts, "auto" routing with
// queue_wait_us fed live from actual per-backend backlog, and sim::Engine
// re-entrancy under concurrent callers.
//
// This file (and these suites) also run under the ThreadSanitizer CI job
// (cmake --preset tsan; ctest -L svc).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "backend/register_backends.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "svc/execution_service.hpp"
#include "util/errors.hpp"

namespace quml {
namespace {

using algolib::Graph;
using namespace std::chrono_literals;

// --- fixtures: job builders -------------------------------------------------

core::JobBundle qft_job(unsigned width, std::uint64_t seed, const std::string& engine,
                        std::int64_t samples = 256) {
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
                                  "qft" + std::to_string(width) + "-s" + std::to_string(seed));
}

core::JobBundle qaoa_job(int n, std::uint64_t seed, const std::string& engine) {
  const auto reg = algolib::make_ising_register("s", static_cast<unsigned>(n));
  core::RegisterSet regs;
  regs.add(reg);
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = 512;
  ctx.exec.seed = seed;
  return core::JobBundle::package(
      std::move(regs), algolib::qaoa_sequence(reg, Graph::cycle(n), algolib::ring_p1_angles()),
      ctx, "qaoa" + std::to_string(n) + "-s" + std::to_string(seed));
}

core::JobBundle ising_job(int n, std::uint64_t seed, const std::string& engine) {
  const auto reg = algolib::make_ising_register("s", static_cast<unsigned>(n));
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::maxcut_ising_descriptor(reg, Graph::cycle(n)));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = 200;
  ctx.exec.seed = seed;
  core::AnnealPolicy anneal;
  anneal.num_reads = 200;
  anneal.num_sweeps = 50;
  ctx.anneal = anneal;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "ising" + std::to_string(n) + "-s" + std::to_string(seed));
}

/// The mixed workload every determinism test runs: gate + anneal, several
/// widths and seeds, explicit engines (aliases included to cover canonical
/// queue keying).
std::vector<core::JobBundle> mixed_jobs() {
  std::vector<core::JobBundle> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(qft_job(4, seed, "gate.statevector_simulator"));
    jobs.push_back(qft_job(6, seed, "gate.aer_simulator"));  // alias, same pool
    jobs.push_back(qaoa_job(5, seed, "gate.statevector_simulator"));
    jobs.push_back(ising_job(6, seed, "anneal.simulated_annealer"));
  }
  return jobs;
}

// --- fixtures: instrumented test backends ----------------------------------

/// Gate-kind backend that sleeps instead of simulating, advertising more
/// qubits than the real statevector engine can hold so "auto" jobs built
/// wider than the simulator are feasible *only* here.  Two twins (a/b) with
/// identical capabilities let the routing tests observe the live-backlog
/// tiebreak.
class SleepBackend : public core::Backend {
 public:
  SleepBackend(std::string name, std::chrono::milliseconds delay)
      : name_(std::move(name)), delay_(delay) {}

  std::string name() const override { return name_; }

  core::ExecutionResult run(const core::JobBundle& bundle) override {
    std::this_thread::sleep_for(delay_);
    ++runs_;
    core::ExecutionResult result;
    result.counts.add("0", bundle.exec_policy().samples);
    result.metadata.set("engine", json::Value(name_));
    return result;
  }

  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name_));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(40)));
    return caps;
  }

  static std::atomic<int> runs_;

 private:
  std::string name_;
  std::chrono::milliseconds delay_;
};

std::atomic<int> SleepBackend::runs_{0};

/// Backend whose run() submits a sub-job through the blocking core::submit
/// wrapper — from a service worker thread that call must execute inline
/// instead of enqueueing (enqueueing onto a pool your own worker blocks is a
/// self-deadlock).
class NestedSubmitBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_nested"; }
  core::ExecutionResult run(const core::JobBundle& bundle) override {
    core::JobBundle inner = bundle;
    inner.context->exec.engine = "gate.statevector_simulator";
    return core::submit(inner);
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(20)));
    return caps;
  }
};

/// Backend whose run() always throws, for failure-propagation tests.
class FailBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_fail"; }
  core::ExecutionResult run(const core::JobBundle&) override {
    throw LoweringError("svc_fail backend always fails");
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(40)));
    return caps;
  }
};

/// Gate backend whose factory only works on the thread that registered it.
/// Service-side creations on the submitting thread (the routing capabilities
/// probe, the prepare_sweep probe in submit_sweep) succeed; the per-worker
/// creation in worker_loop runs on a pool thread and throws — modelling an
/// engine whose sessions are exhausted by the time the pool spins up.
/// Advertises 2 qubits so no "auto" job in this suite can route here.
class FlakyFactoryBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_flaky"; }
  core::ExecutionResult run(const core::JobBundle& bundle) override {
    core::ExecutionResult result;
    result.counts.add("0", bundle.exec_policy().samples);
    return result;
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(2)));
    return caps;
  }
};

std::thread::id g_flaky_home_thread;

/// The registry is process-global, so the instrumented engines are
/// registered exactly once for the whole binary.
void ensure_test_backends() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    auto& registry = core::BackendRegistry::instance();
    registry.register_backend("gate.svc_slow_a",
                              [] { return std::make_unique<SleepBackend>("gate.svc_slow_a", 300ms); });
    registry.register_backend("gate.svc_slow_b",
                              [] { return std::make_unique<SleepBackend>("gate.svc_slow_b", 300ms); });
    registry.register_backend("gate.svc_fail", [] { return std::make_unique<FailBackend>(); });
    registry.register_backend("gate.svc_nested",
                              [] { return std::make_unique<NestedSubmitBackend>(); });
    g_flaky_home_thread = std::this_thread::get_id();
    registry.register_backend("gate.svc_flaky", [] {
      if (std::this_thread::get_id() != g_flaky_home_thread)
        throw BackendError("svc_flaky factory refuses creation off the registering thread");
      return std::make_unique<FlakyFactoryBackend>();
    });
  });
}

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend::register_builtin_backends();
    ensure_test_backends();
  }

  /// A job only the SleepBackend twins can take: wider than the statevector
  /// simulator's advertised capacity, narrower than the twins' 40 qubits.
  static core::JobBundle wide_auto_job(std::uint64_t seed) {
    return qft_job(34, seed, "auto", 16);
  }
};

// --- registry: alias collision regression + thread safety -------------------

TEST(SvcRegistry, RejectsAliasCollidingWithExistingName) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  // Regression: this used to be accepted silently, and first-match lookup
  // would forever resolve the alias to the older engine.
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide1", [] { return std::make_unique<FailBackend>(); },
                   {"gate.statevector_simulator"}),
               BackendError);
  // Strong guarantee: the rejected canonical name must not have leaked in.
  EXPECT_FALSE(registry.has("gate.svc_collide1"));
}

TEST(SvcRegistry, RejectsAliasCollidingWithExistingAlias) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide2", [] { return std::make_unique<FailBackend>(); },
                   {"gate.aer_simulator"}),  // alias of the statevector engine
               BackendError);
  EXPECT_FALSE(registry.has("gate.svc_collide2"));
  EXPECT_EQ(registry.canonical("gate.aer_simulator"), "gate.statevector_simulator");
}

TEST(SvcRegistry, RejectsNameCollidingWithExistingAlias) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend("gate.aer_simulator",
                                         [] { return std::make_unique<FailBackend>(); }),
               BackendError);
}

TEST(SvcRegistry, RejectsDuplicateAliasesWithinOneRegistration) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide3", [] { return std::make_unique<FailBackend>(); },
                   {"gate.svc_c3_alias", "gate.svc_c3_alias"}),
               BackendError);
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide4", [] { return std::make_unique<FailBackend>(); },
                   {"gate.svc_collide4"}),
               BackendError);
  EXPECT_FALSE(registry.has("gate.svc_c3_alias"));
}

TEST(SvcRegistry, CachedCapabilitiesMatchBackendAdvertisement) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  const json::Value direct = registry.create("gate.statevector_simulator")->capabilities();
  const json::Value cached = registry.capabilities("gate.aer_simulator");  // via alias
  EXPECT_EQ(json::dump(cached), json::dump(direct));
  // Second read hits the cache and stays identical.
  EXPECT_EQ(json::dump(registry.capabilities("gate.statevector_simulator")), json::dump(direct));
}

TEST(SvcRegistry, ConcurrentLookupsAndCapabilityProbes) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (registry.has("gate.aer_simulator") &&
            registry.canonical("anneal.neal_simulator") == "anneal.simulated_annealer" &&
            registry.capabilities("gate.statevector_simulator").get_string("kind", "") == "gate")
          ++ok;
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 200);
}

// --- service: determinism --------------------------------------------------

TEST_F(SvcTest, BatchResultsBitIdenticalToSerialSubmit) {
  // Serial baseline through the blocking wrapper.
  std::vector<std::map<std::string, std::int64_t>> serial;
  for (const auto& job : mixed_jobs()) serial.push_back(core::submit(job).counts.map());

  // Async batch across 3 workers per engine: same bundles, same seeds.
  svc::ServiceConfig config;
  config.default_workers = 3;
  svc::ExecutionService service(config);
  const std::vector<svc::JobId> ids = service.submit_batch(mixed_jobs());
  ASSERT_EQ(ids.size(), serial.size());
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const core::ExecutionResult result = service.handle(ids[j]).result();
    EXPECT_EQ(result.counts.map(), serial[j]) << "job " << j << " diverged from serial submit";
  }
}

TEST_F(SvcTest, ConcurrentClientThreadsStayDeterministic) {
  // N client threads submitting into one shared service, each comparing its
  // own jobs against the serial baseline — submission order is racy, results
  // must not be.
  const std::vector<core::JobBundle> jobs = mixed_jobs();
  std::vector<std::map<std::string, std::int64_t>> serial;
  for (const auto& job : jobs) serial.push_back(core::submit(job).counts.map());

  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  constexpr int kThreads = 4;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (std::size_t j = static_cast<std::size_t>(t); j < jobs.size(); j += kThreads) {
        const svc::JobId id = service.submit(jobs[j]);
        if (service.handle(id).result().counts.map() != serial[j]) ++mismatches;
      }
    });
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SvcTest, SubmitReturnsImmediatelyAndWaitAllDrains) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  std::vector<core::JobBundle> jobs;
  for (std::uint64_t s = 0; s < 4; ++s)
    jobs.push_back(qft_job(10, s, "gate.statevector_simulator", 2048));
  const auto ids = service.submit_batch(std::move(jobs));
  service.wait_all();
  for (const auto id : ids) EXPECT_EQ(service.handle(id).status(), svc::JobStatus::Done);
}

// --- service: lifecycle, cancellation, failures, timeouts -------------------

TEST_F(SvcTest, CancelQueuedJobSkipsExecutionAndPropagates) {
  svc::ServiceConfig config;
  config.default_workers = 1;  // serialize the svc_slow_a pool
  svc::ExecutionService service(config);
  const svc::JobId running = service.submit(qft_job(34, 1, "gate.svc_slow_a", 16));
  const svc::JobId queued = service.submit(qft_job(34, 2, "gate.svc_slow_a", 16));

  const svc::JobHandle victim = service.handle(queued);
  EXPECT_EQ(victim.status(), svc::JobStatus::Queued);
  EXPECT_TRUE(victim.cancel());
  EXPECT_FALSE(victim.cancel());  // already terminal
  EXPECT_EQ(victim.status(), svc::JobStatus::Cancelled);
  EXPECT_THROW(victim.result(), BackendError);

  const svc::JobHandle survivor = service.handle(running);
  EXPECT_NO_THROW(survivor.result());
  EXPECT_EQ(survivor.status(), svc::JobStatus::Done);
  EXPECT_FALSE(survivor.cancel());  // done jobs can't be cancelled
  service.wait_all();
}

TEST_F(SvcTest, FailurePropagatesWithOriginalType) {
  svc::ExecutionService service;
  const svc::JobId id = service.submit(qft_job(34, 7, "gate.svc_fail", 16));
  const svc::JobHandle handle = service.handle(id);
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Failed);
  EXPECT_THROW(handle.result(), LoweringError);  // not just quml::Error
  EXPECT_NE(handle.error().find("svc_fail backend always fails"), std::string::npos);
}

TEST_F(SvcTest, SubmitFailsEarlyOnUnroutableBundles) {
  svc::ExecutionService service;
  EXPECT_THROW(service.submit(qft_job(4, 1, "gate.warp_drive")), BackendError);
  core::JobBundle no_engine = qft_job(4, 1, "gate.statevector_simulator");
  no_engine.context->exec.engine.clear();
  EXPECT_THROW(service.submit(no_engine), BackendError);
}

TEST_F(SvcTest, BatchKeepsGoodJobsWhenOneIsUnroutable) {
  svc::ExecutionService service;
  std::vector<core::JobBundle> jobs;
  jobs.push_back(qft_job(4, 1, "gate.statevector_simulator"));
  jobs.push_back(qft_job(4, 2, "gate.no_such_engine"));
  jobs.push_back(ising_job(6, 3, "anneal.simulated_annealer"));
  const auto ids = service.submit_batch(std::move(jobs));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_NO_THROW(service.handle(ids[0]).result());
  svc::JobHandle bad = service.handle(ids[1]);
  bad.wait();
  EXPECT_EQ(bad.status(), svc::JobStatus::Failed);
  EXPECT_NE(bad.error().find("unknown engine"), std::string::npos);
  EXPECT_NO_THROW(service.handle(ids[2]).result());
}

TEST_F(SvcTest, WaitForTimesOutOnSlowJobs) {
  svc::ExecutionService service;
  const svc::JobId id = service.submit(qft_job(34, 5, "gate.svc_slow_b", 16));
  const svc::JobHandle handle = service.handle(id);
  EXPECT_FALSE(handle.wait_for(10ms));  // 300ms sleep backend cannot finish
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Done);
  EXPECT_TRUE(handle.wait_for(0ms));  // terminal: returns immediately
}

TEST_F(SvcTest, ForgetReleasesRecordButLiveHandlesSurvive) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(qft_job(34, 3, "gate.svc_slow_a", 16));
  const svc::JobHandle handle = service.handle(id);
  service.forget(id);  // while the job is still in flight
  EXPECT_FALSE(service.handle(id).valid());
  EXPECT_NO_THROW(handle.result());  // the obtained handle keeps working
  EXPECT_EQ(handle.status(), svc::JobStatus::Done);
  service.wait_all();
}

TEST_F(SvcTest, NestedCoreSubmitFromWorkerRunsInline) {
  // A backend that itself calls core::submit() must not deadlock even with
  // single-worker pools: from a worker thread the wrapper executes inline.
  const core::JobBundle direct = qft_job(5, 11, "gate.statevector_simulator");
  const std::map<std::string, std::int64_t> expected = core::submit(direct).counts.map();

  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(qft_job(5, 11, "gate.svc_nested"));
  const core::ExecutionResult nested = service.handle(id).result();
  EXPECT_EQ(nested.counts.map(), expected);
}

TEST_F(SvcTest, WorkerBackendCreationFailureFailsPlainJob) {
  // The factory for gate.svc_flaky throws on worker threads: the job must
  // settle as FAILED carrying the factory's own error, not hang or crash the
  // worker.
  svc::ExecutionService service;
  // Width 2 fits gate.svc_flaky's advertised capacity, so the job passes
  // admission and the failure happens where this test wants it: in the
  // worker's backend factory.
  const svc::JobId id = service.submit(qft_job(2, 2, "gate.svc_flaky"));
  const svc::JobHandle handle = service.handle(id);
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Failed);
  EXPECT_THROW(handle.result(), BackendError);
  EXPECT_NE(handle.error().find("refuses creation"), std::string::npos) << handle.error();
}

TEST_F(SvcTest, SweepWorkerBackendCreationFailureFailsBindings) {
  // Regression: worker_loop used to wrap backend creation and rec->task in
  // ONE try/catch, so a factory failure skipped the sweep-shard task
  // entirely — shards_live never hit zero, no binding ever settled, and this
  // wait blocked forever.  The fix runs the task with a null backend; the
  // shard records why and the last shard out fails the unclaimed bindings.
  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  const svc::SweepHandle sweep = service.submit_sweep(
      qft_job(2, 3, "gate.svc_flaky"), std::vector<std::vector<double>>(3));
  ASSERT_TRUE(sweep.wait_for(std::chrono::seconds(30))) << "sweep stranded: no shard settled it";
  ASSERT_EQ(sweep.size(), 3u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep.status(i), svc::JobStatus::Failed);
    EXPECT_THROW(sweep.result(i), BackendError);
    EXPECT_NE(sweep.error(i).find("could not create backend"), std::string::npos)
        << sweep.error(i);
  }
}

TEST_F(SvcTest, UnknownJobIdYieldsInvalidHandle) {
  svc::ExecutionService service;
  const svc::JobHandle none = service.handle(999999);
  EXPECT_FALSE(none.valid());
  EXPECT_THROW(none.status(), BackendError);
  EXPECT_THROW(none.result(), BackendError);
}

TEST_F(SvcTest, ShutdownDrainsQueuedJobsThenRejectsSubmission) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  auto service = std::make_unique<svc::ExecutionService>(config);
  std::vector<svc::JobId> ids;
  for (std::uint64_t s = 0; s < 3; ++s)
    ids.push_back(service->submit(qft_job(6, s, "gate.statevector_simulator")));
  service->shutdown();  // must finish everything already accepted
  for (const auto id : ids) EXPECT_EQ(service->handle(id).status(), svc::JobStatus::Done);
  EXPECT_THROW(service->submit(qft_job(6, 9, "gate.statevector_simulator")), BackendError);
}

// --- service: "auto" routing with live queue feedback -----------------------

TEST_F(SvcTest, AutoRoutesByKind) {
  svc::ExecutionService service;
  const svc::JobId gate = service.submit(qft_job(4, 1, "auto"));
  const svc::JobId anneal = service.submit(ising_job(6, 1, "auto"));
  // Narrow gate jobs score best on the real simulator (idle, fast, exact);
  // Ising formulations can only route to the annealer.
  EXPECT_EQ(service.handle(gate).engine(), "gate.statevector_simulator");
  EXPECT_EQ(service.handle(anneal).engine(), "anneal.simulated_annealer");
  const auto decision = service.handle(anneal).decision();
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->backend, "anneal.simulated_annealer");
  service.wait_all();
}

TEST_F(SvcTest, AutoRoutingFeelsLiveBacklog) {
  // Two idle twins with identical capabilities: the first job lands on twin
  // a (registration order tiebreak).  While it is still running, the next
  // identical job must see a's backlog through queue_wait_us and route to
  // twin b — the closed cost-hint feedback loop in action.
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);

  const svc::JobId first = service.submit(wide_auto_job(1));
  EXPECT_EQ(service.handle(first).engine(), "gate.svc_slow_a");
  EXPECT_GT(service.backlog_us("gate.svc_slow_a"), 0.0);

  const svc::JobId second = service.submit(wide_auto_job(2));
  EXPECT_EQ(service.handle(second).engine(), "gate.svc_slow_b");

  // The decision record shows *why*: twin a's estimate now carries its queue.
  const auto decision = service.handle(second).decision();
  ASSERT_TRUE(decision.has_value());
  double duration_a = 0.0, duration_b = 0.0;
  for (const auto& [name, est] : decision->considered) {
    if (name == "gate.svc_slow_a") duration_a = est.duration_us;
    if (name == "gate.svc_slow_b") duration_b = est.duration_us;
  }
  EXPECT_GT(duration_a, duration_b);
  service.wait_all();
  EXPECT_EQ(service.backlog_us("gate.svc_slow_a"), 0.0);
  EXPECT_EQ(service.backlog_us("gate.svc_slow_b"), 0.0);
}

TEST_F(SvcTest, BatchAutoRoutingSpreadsAcrossTwins) {
  // Batch routing is sequential with backlog accumulation: two wide jobs in
  // one batch must not pile onto the same idle twin.
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  std::vector<core::JobBundle> jobs;
  jobs.push_back(wide_auto_job(11));
  jobs.push_back(wide_auto_job(12));
  const auto ids = service.submit_batch(std::move(jobs));
  const std::string engine0 = service.handle(ids[0]).engine();
  const std::string engine1 = service.handle(ids[1]).engine();
  EXPECT_NE(engine0, engine1);
  service.wait_all();
}

TEST_F(SvcTest, CapabilitySnapshotCarriesLiveQueueWait) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(wide_auto_job(21));
  const std::string engine = service.handle(id).engine();
  bool found = false;
  for (const auto& cap : service.capability_snapshot())
    if (cap.name == engine) {
      found = true;
      EXPECT_GT(cap.queue_wait_us, 0.0);
    }
  EXPECT_TRUE(found);
  service.wait_all();
}

// --- fair-share tenant lanes ------------------------------------------------

/// A paused single-worker service whose settled hooks log job ids in pop
/// order (one worker: settle order is pop order).  Jobs queue while paused,
/// so resume() releases a known backlog.
class FairShareQueue : public ::testing::Test {
 protected:
  static constexpr const char* kEngine = "gate.statevector_simulator";

  FairShareQueue() : service_(paused_config()) {}
  void SetUp() override { backend::register_builtin_backends(); }

  static svc::ServiceConfig paused_config() {
    svc::ServiceConfig config;
    config.default_workers = 1;
    config.start_paused = true;
    return config;
  }

  /// Queues a tiny job on `tenant`'s lane; `then` runs inside its settled
  /// hook, on the worker, right after the pop is logged.
  svc::JobId push(const std::string& tenant, double weight, std::function<void()> then = {}) {
    svc::SubmitOptions options;
    options.tenant = tenant;
    options.weight = weight;
    options.settled = [this, then](const svc::JobHandle& job) {
      popped_.push_back(job.id());
      if (then) then();
    };
    return service_.submit(qft_job(2, next_seed_++, kEngine, 8), std::move(options));
  }

  std::uint64_t next_seed_ = 1;
  std::vector<svc::JobId> popped_;  // written by the one worker only
  svc::ExecutionService service_;   // last: joined before popped_ dies
};

TEST_F(FairShareQueue, WeightedInterleavingIsExact) {
  std::vector<svc::JobId> a_ids;
  for (int i = 0; i < 6; ++i) a_ids.push_back(push("a", 2.0));
  for (int i = 0; i < 6; ++i) push("b", 1.0);
  EXPECT_EQ(service_.queue_depth(kEngine), 12u);
  service_.resume();
  service_.wait_all();

  ASSERT_EQ(popped_.size(), 12u);
  std::string order;
  std::vector<svc::JobId> a_popped;
  for (const svc::JobId id : popped_) {
    const bool is_a = id <= a_ids.back();
    order += is_a ? 'a' : 'b';
    if (is_a) a_popped.push_back(id);
  }
  // Stride scheduling with weights 2:1 and deterministic tie-breaks.
  EXPECT_EQ(order, "abaabaabab" "bb");
  // Within a lane, FIFO order is preserved.
  EXPECT_EQ(a_popped, a_ids);
  EXPECT_EQ(service_.queue_depth(kEngine), 0u);
}

TEST_F(FairShareQueue, IdleTenantEarnsNoBurstCredit) {
  // "idle" arrives once "busy" has had 40 pops; it must interleave from then
  // on, not spend the virtual time it sat out as a monopolizing burst.
  std::vector<svc::JobId> idle_ids;
  for (int i = 0; i < 50; ++i) {
    std::function<void()> then;
    if (i == 39)
      then = [&] {
        for (int j = 0; j < 5; ++j) idle_ids.push_back(push("idle", 1.0));
      };
    push("busy", 1.0, then);
  }
  service_.resume();
  service_.wait_all();

  ASSERT_EQ(popped_.size(), 55u);
  std::string after;
  for (std::size_t k = 40; k < popped_.size(); ++k)
    after += popped_[k] >= idle_ids.front() ? 'i' : 'b';
  EXPECT_EQ(after, "bibibibibi" "bbbbb");
}

TEST_F(FairShareQueue, CloseAbandonsQueuedTickets) {
  // The service's equivalent of abandoning queued work: cancelled while
  // paused, the jobs never run, and shutdown drains the (released) queue
  // without waiting on them.
  std::vector<svc::JobStatus> seen;
  for (std::uint64_t seed = 50; seed < 52; ++seed) {
    svc::SubmitOptions options;
    options.tenant = "a";
    options.settled = [&seen](const svc::JobHandle& job) { seen.push_back(job.status()); };
    const svc::JobId id = service_.submit(qft_job(2, seed, kEngine, 8), std::move(options));
    EXPECT_TRUE(service_.handle(id).cancel());
  }
  service_.shutdown();
  EXPECT_EQ(seen, std::vector<svc::JobStatus>(2, svc::JobStatus::Cancelled));
  EXPECT_THROW(push("a", 1.0), BackendError);
}

TEST_F(FairShareQueue, EmptyTenantJobsPopInFifoOrder) {
  // Every caller but the daemon uses the shared "" lane: plain FIFO.
  std::vector<svc::JobId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(push("", 1.0));
  service_.resume();
  service_.wait_all();
  EXPECT_EQ(popped_, ids);
}

TEST_F(FairShareQueue, TenantBoundAndRefusingHookQueueNothing) {
  svc::SubmitOptions bounded;
  bounded.tenant = "a";
  bounded.max_queued = 2;
  service_.submit(qft_job(2, 1, kEngine, 8), bounded);
  service_.submit(qft_job(2, 2, kEngine, 8), bounded);
  EXPECT_THROW(service_.submit(qft_job(2, 3, kEngine, 8), bounded), svc::QueueFullError);
  bounded.tenant = "b";  // the bound is per tenant
  service_.submit(qft_job(2, 4, kEngine, 8), bounded);
  EXPECT_EQ(service_.queue_depth(kEngine), 3u);

  // An admitted hook that throws: the exception leaves submit, nothing is
  // queued, and the tenant's slot is released.
  svc::SubmitOptions refused = bounded;
  svc::JobId hooked = 0;
  refused.admitted = [&hooked](const svc::JobHandle& job) {
    hooked = job.id();
    throw ValidationError("refused by the admitted hook");
  };
  EXPECT_THROW(service_.submit(qft_job(2, 5, kEngine, 8), refused), ValidationError);
  EXPECT_NE(hooked, 0u);
  EXPECT_FALSE(service_.handle(hooked).valid());
  EXPECT_EQ(service_.queue_depth(kEngine), 3u);
  EXPECT_NO_THROW(service_.submit(qft_job(2, 6, kEngine, 8), bounded));  // b: 2nd slot

  service_.resume();
  service_.wait_all();
  EXPECT_EQ(service_.queue_depth(kEngine), 0u);
}

// --- batch ordering: JobId <-> result correspondence -------------------------

TEST(SvcBatchOrdering, JobIdsPinResultsUnderConcurrentCancellation) {
  // submit_batch returns ids[i] for bundles[i]; under a concurrent
  // cancellation storm every job that completes must still hand back the
  // result of *its own* bundle (never a neighbour's), and every cancelled
  // job must report CANCELLED.  Each bundle gets a distinct seed, and the
  // result metadata echoes the seed, so a cross-wired id would be caught
  // immediately.
  backend::register_builtin_backends();
  constexpr int kJobs = 24;
  std::vector<core::JobBundle> bundles;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kJobs; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    seeds.push_back(seed);
    bundles.push_back(qft_job(4 + static_cast<unsigned>(i % 3), seed,
                              "gate.statevector_simulator", 64));
  }
  // Serial ground truth per bundle (same engine, same seed).
  std::vector<core::ExecutionResult> expected;
  for (const auto& bundle : bundles) expected.push_back(core::submit(bundle));

  svc::ServiceConfig config;
  config.default_workers = 3;
  svc::ExecutionService service(config);
  const std::vector<svc::JobId> ids = service.submit_batch(bundles);
  // Concurrent cancellation of every third job while the pool drains.
  std::thread canceller([&] {
    for (int i = 0; i < kJobs; i += 3) service.handle(ids[static_cast<std::size_t>(i)]).cancel();
  });
  service.wait_all();
  canceller.join();

  for (int i = 0; i < kJobs; ++i) {
    const svc::JobHandle handle = service.handle(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(handle.valid());
    if (handle.status() == svc::JobStatus::Cancelled) {
      EXPECT_THROW(handle.result(), BackendError);
      continue;
    }
    ASSERT_EQ(handle.status(), svc::JobStatus::Done) << handle.error();
    const core::ExecutionResult result = handle.result();
    // Identity pin: the job's recorded seed and decoded counts are exactly
    // its own bundle's.
    EXPECT_EQ(result.metadata.at("seed").as_int(),
              static_cast<std::int64_t>(seeds[static_cast<std::size_t>(i)]))
        << "job " << i << " returned another bundle's result";
    EXPECT_EQ(result.counts.map(), expected[static_cast<std::size_t>(i)].counts.map())
        << "job " << i;
  }
}

// --- sim: Engine / fusion re-entrancy under concurrency ---------------------

TEST(SvcSimReentrancy, ConcurrentRunCountsAreIdentical) {
  // The Engine is stateless (const run_counts, per-call RNG seeded from the
  // caller): four threads hammering one shared Engine on the same circuit
  // must reproduce the single-threaded counts exactly — this is what lets
  // the service run gate jobs under concurrent workers at all.
  sim::Circuit circuit(5, 5);
  for (int q = 0; q < 5; ++q) circuit.h(q);
  for (int q = 0; q + 1 < 5; ++q) circuit.cx(q, q + 1);
  for (int q = 0; q < 5; ++q) circuit.rz(0.3 * (q + 1), q);
  for (int q = 0; q < 5; ++q) circuit.h(q);
  for (int q = 0; q < 5; ++q) circuit.measure(q, q);

  const sim::Engine engine;
  const sim::CountMap expected = engine.run_counts(circuit, 2048, 1234);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i)
        if (engine.run_counts(circuit, 2048, 1234) != expected) ++mismatches;
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace quml
