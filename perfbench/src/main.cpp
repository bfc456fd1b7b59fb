// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// Drives the real entry points with seeded inputs: core::submit in process
// (qft20, maxcut_portable, mps_ring) or a quml_serve child over a unix socket
// (serve_tiny).  Load is a closed loop from one client thread.  With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it replays every
// request through each layer's public functions (replay.hpp) and prints the
// per-layer metrics.  Every output is checked; a failed check exits 1.  The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Run it through run.py, which builds it and pins OMP_NUM_THREADS=1.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algolib/graph.hpp"
#include "backend/register_backends.hpp"
#include "common.hpp"
#include "core/registry.hpp"
#include "json/json.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/store.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace quml;

/// Times the set-up is repeated; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// serve_tiny: jobs kept outstanding per session (two sessions).
constexpr int kOutstandingPerSession = 4;
/// serve_tiny traced run: requests replayed in process after the timed phase.
constexpr std::size_t kServeReplays = 2048;
/// Chi-square critical value at p = 1e-6 for 15 degrees of freedom.
constexpr double kChi2Critical15 = 57.0;
/// Where the traced run writes its spans, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) { check_failures.push_back(std::move(why)); }
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage_error("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + flag);
    }
  }
  bool known = false;
  for (const auto& name : Workload::names()) known = known || name == args.workload;
  if (!known) usage_error("unknown workload '" + args.workload + "'");
  if (!have_seed) usage_error("--seed is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage_error("--seconds must be in (0, 600]");
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

bool cpu_has_avx512() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("flags", 0) == 0) return line.find(" avx512f") != std::string::npos;
  return false;
}

void print_provenance(const Args& args) {
#ifdef PERFBENCH_QUML_NATIVE
  const char* native = "ON";
#else
  const char* native = "OFF";
#endif
#ifdef __AVX512F__
  const char* avx512_codegen = "yes";
#else
  const char* avx512_codegen = "no";
#endif
  std::printf(
      "provenance: nproc=%u cpu=\"%s\" omp_threads=%d QUML_NATIVE=%s avx512_cpu=%s "
      "avx512_codegen=%s compiler=\"%s\" quml_build=%s commit=%s seed=%llu workload=%s "
      "trace=%d seconds=%g\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(), max_threads(), native,
      cpu_has_avx512() ? "yes" : "no", avx512_codegen, __VERSION__, build_type(),
      args.commit.c_str(), static_cast<unsigned long long>(args.seed), args.workload.c_str(),
      args.trace ? 1 : 0, args.seconds);
}

// ---------------------------------------------------------------------------
// Output checks of the in-process workloads.  record() runs inside the timed
// loop (it validates one result and folds it into aggregates); finish() runs
// after it and computes the reference answers.
// ---------------------------------------------------------------------------

/// Total-variation distance between two histograms, and the bound it is
/// checked against: three times the Jensen bound on its expectation,
/// E[TV] <= 1/2 sum_x sqrt(p_x) (1/sqrt(Na) + 1/sqrt(Nb)), p taken from `b`.
template <typename Key>
std::pair<double, double> tv_with_bound(const std::map<Key, std::int64_t>& a,
                                        const std::map<Key, std::int64_t>& b) {
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [key, n] : a) na += static_cast<double>(n);
  for (const auto& [key, n] : b) nb += static_cast<double>(n);
  double tv = 0.0;
  double sqrt_p = 0.0;
  for (const auto& [key, n] : b) {
    const auto it = a.find(key);
    const double pa = it == a.end() ? 0.0 : static_cast<double>(it->second) / na;
    tv += 0.5 * std::abs(pa - static_cast<double>(n) / nb);
    sqrt_p += std::sqrt(static_cast<double>(n) / nb);
  }
  for (const auto& [key, n] : a)
    if (b.find(key) == b.end()) tv += 0.5 * static_cast<double>(n) / na;
  return {tv, 3.0 * 0.5 * sqrt_p * (1.0 / std::sqrt(na) + 1.0 / std::sqrt(nb))};
}

class OutputChecks {
 public:
  explicit OutputChecks(const Workload& workload) : workload_(workload) {}

  /// False when the result is malformed (wrong shot total, key width,
  /// engine).
  bool record(const Request& request, const core::Counts& counts, const json::Value& metadata) {
    const Shape& shape = workload_.shapes()[static_cast<std::size_t>(request.shape)];
    if (counts.total() != shape.shots) return false;
    for (const auto& [key, n] : counts.map())
      if (key.size() != static_cast<std::size_t>(shape.width)) return false;
    const std::string& name = workload_.name();
    if (name == "qft20") {
      for (const auto& [key, n] : counts.map()) {
        top_[std::stoul(key.substr(0, 4), nullptr, 2)] += n;
        bottom_[std::stoul(key.substr(key.size() - 4), nullptr, 2)] += n;
      }
    } else if (name == "maxcut_portable") {
      const algolib::Graph& graph = workload_.graphs()[static_cast<std::size_t>(shape.graph)];
      if (shape.label == "qaoa_routed") {
        for (const auto& [key, n] : counts.map()) routed_[shape.graph][key] += n;
      } else if (shape.label == "qaoa_noisy") {
        for (const auto& [key, n] : counts.map())
          noisy_cut_sum_ += graph.cut_value_bits(key) * static_cast<double>(n);
        noisy_shots_ += counts.total();
      } else {
        double best = 0.0;
        for (const auto& [key, n] : counts.map()) best = std::max(best, graph.cut_value_bits(key));
        anneal_best_.emplace_back(shape.graph, best);
      }
    } else if (name == "mps_ring") {
      if (metadata.get_string("engine", "") != "gate.mps_simulator") return false;
      const algolib::Graph ring = algolib::Graph::cycle(shape.width);
      RingStats& stats = ring_[shape.width];
      for (const auto& [key, n] : counts.map()) {
        const double cut = ring.cut_value_bits(key);
        stats.sum += cut * static_cast<double>(n);
        stats.sum_sq += cut * cut * static_cast<double>(n);
        stats.shots += n;
      }
    }
    return true;
  }

  void finish(Report& report) {
    const std::string& name = workload_.name();
    if (name == "qft20") {
      check_uniform("top 4-bit marginal", top_, report);
      check_uniform("bottom 4-bit marginal", bottom_, report);
    } else if (name == "maxcut_portable") {
      finish_maxcut(report);
    } else if (name == "mps_ring") {
      for (const auto& [width, stats] : ring_) {
        const double n = static_cast<double>(stats.shots);
        const double mean = stats.sum / n;
        const double var = std::max(0.0, stats.sum_sq / n - mean * mean);
        const double se = std::sqrt(var / n);
        const double expected = 0.75 * width;
        const bool ok = std::abs(mean - expected) <= 6.0 * se + 0.1;
        std::printf("check: ring w%d mean cut %.3f vs 0.75n = %.1f (6 SE + 0.1 = %.3f, %lld shots): %s\n",
                    width, mean, expected, 6.0 * se + 0.1, static_cast<long long>(stats.shots),
                    ok ? "ok" : "FAIL");
        if (!ok) report.fail("mps_ring w" + std::to_string(width) + " mean cut off 0.75n");
      }
      if (ring_.size() != 2) report.fail("mps_ring did not run both widths");
    }
  }

 private:
  struct RingStats {
    double sum = 0.0;
    double sum_sq = 0.0;
    std::int64_t shots = 0;
  };

  static void check_uniform(const char* what, const std::int64_t (&hist)[16], Report& report) {
    double total = 0.0;
    for (const std::int64_t n : hist) total += static_cast<double>(n);
    const double expected = total / 16.0;
    double chi2 = 0.0;
    for (const std::int64_t n : hist) chi2 += (n - expected) * (n - expected) / expected;
    const bool ok = total > 0 && chi2 < kChi2Critical15;
    std::printf("check: qft20 %s chi2 = %.2f over %.0f shots (limit %.1f, p = 1e-6): %s\n", what,
                chi2, total, kChi2Critical15, ok ? "ok" : "FAIL");
    if (!ok) report.fail(std::string("qft20 ") + what + " is not uniform");
  }

  void finish_maxcut(Report& report) {
    const std::vector<algolib::Graph>& graphs = workload_.graphs();
    std::vector<double> max_cut;
    for (const auto& graph : graphs) max_cut.push_back(graph.max_cut_exact().first);
    std::size_t best_hits = 0;
    for (const auto& [g, best] : anneal_best_)
      best_hits += best == max_cut[static_cast<std::size_t>(g)] ? 1 : 0;
    const bool anneal_ok = !anneal_best_.empty() && best_hits == anneal_best_.size();
    std::printf("check: annealer best cut = brute-force max cut in %zu/%zu requests: %s\n",
                best_hits, anneal_best_.size(), anneal_ok ? "ok" : "FAIL");
    if (!anneal_ok) report.fail("annealer missed the max cut");

    // Reference: the same bundle without its target or transpiler options
    // runs the unrouted batch-sampling path (at level 2 even an all-to-all
    // transpile moves gates past a measurement).  Compared per graph on the
    // raw 12-bit counts and, more tightly, on the distribution of the cut
    // value they encode.
    constexpr std::int64_t kReferenceShots = 1 << 16;
    for (const auto& [g, routed] : routed_) {
      const algolib::Graph& graph = graphs[static_cast<std::size_t>(g)];
      core::JobBundle reference = package_shape(workload_.name(), "qaoa_routed", graph,
                                                workload_.seed_of(0) ^ 1, "reference");
      reference.context->exec.target = core::TargetSpec{};
      reference.context->exec.options = json::Value::object();
      reference.context->exec.samples = kReferenceShots;
      const core::ExecutionResult ref = core::submit(reference);
      const auto cut_histogram = [&graph](const std::map<std::string, std::int64_t>& counts) {
        std::map<double, std::int64_t> cuts;
        for (const auto& [key, n] : counts) cuts[graph.cut_value_bits(key)] += n;
        return cuts;
      };
      for (const bool by_cut : {false, true}) {
        const auto [tv, bound] = by_cut ? tv_with_bound(cut_histogram(routed),
                                                        cut_histogram(ref.counts.map()))
                                        : tv_with_bound(routed, ref.counts.map());
        const bool ok = tv <= bound;
        std::printf("check: graph %d routed vs unrouted %s TV = %.4f (bound %.4f): %s\n", g,
                    by_cut ? "cut-value" : "counts", tv, bound, ok ? "ok" : "FAIL");
        if (!ok) report.fail("routed QAOA counts differ from the unrouted path");
      }
    }
    if (routed_.empty()) report.fail("no routed QAOA request completed");

    // Every generated graph is 3-regular on 12 nodes: |E| = 18.
    const double edges = static_cast<double>(graphs.front().edges.size());
    const double mean_cut = noisy_shots_ > 0 ? noisy_cut_sum_ / static_cast<double>(noisy_shots_) : 0.0;
    const bool noisy_ok = mean_cut > edges / 2.0;
    std::printf("check: noisy QAOA mean cut %.3f > |E|/2 = %.1f over %lld shots: %s\n", mean_cut,
                edges / 2.0, static_cast<long long>(noisy_shots_), noisy_ok ? "ok" : "FAIL");
    if (!noisy_ok) report.fail("noisy QAOA mean cut is not above |E|/2");
  }

  const Workload& workload_;
  std::int64_t top_[16] = {};
  std::int64_t bottom_[16] = {};
  std::map<int, std::map<std::string, std::int64_t>> routed_;  ///< per graph
  double noisy_cut_sum_ = 0.0;
  std::int64_t noisy_shots_ = 0;
  std::vector<std::pair<int, double>> anneal_best_;  ///< (graph, best cut)
  std::map<int, RingStats> ring_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics from the span log.
// ---------------------------------------------------------------------------

/// Per-request total duration of every span name: stage -> request -> ms.
using StageTimes = std::map<std::string, std::map<std::uint64_t, double>>;

StageTimes stage_times(const SpanLog& log) {
  StageTimes out;
  for (const Span& span : log.spans()) out[span.name][span.request] += span.duration_ms();
  return out;
}

/// Median of stage `name` over the requests accepted by `keep` that ran it;
/// 0 when none did.
double stage_median(const StageTimes& times, const std::string& name,
                    const std::function<bool(std::uint64_t)>& keep = {}) {
  const auto it = times.find(name);
  if (it == times.end()) return 0.0;
  std::vector<double> values;
  for (const auto& [request, ms] : it->second)
    if (!keep || keep(request)) values.push_back(ms);
  return median(std::move(values));
}

/// Fills report.metrics with every per-layer metric, from `values`.
void emit_per_layer(const std::map<std::string, double>& values, Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    report.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

/// Per-layer timings common to every replayed request.
void layer_timings(const StageTimes& times, std::map<std::string, double>& out) {
  out["json.parse_ms"] = stage_median(times, "json.parse");
  out["analysis.analyze_ms"] = stage_median(times, "analysis.analyze");
  out["backend.lower_ms"] = stage_median(times, "backend.lower");
  out["transpile.ms"] = stage_median(times, "transpile");
  out["sim.fuse_ms"] = stage_median(times, "sim.fuse");
  out["sim.evolve_ms"] = stage_median(times, "sim.evolve");
  out["sim.sample_ms"] = stage_median(times, "sim.sample");
  out["sim.counts_ms"] = stage_median(times, "sim.counts");
  out["sim.trajectory_ms"] = stage_median(times, "sim.trajectory");
  out["sim.noisy_ms"] = stage_median(times, "sim.noisy");
  out["sched.choose_ms"] = stage_median(times, "sched.choose");
  out["anneal.sample_ms"] = stage_median(times, "anneal.sample");
  out["core.decode_ms"] = stage_median(times, "core.decode");
}

/// Median of the per-request values `get` returns, over requests for which
/// it returns a value >= 0.
template <typename T, typename Get>
double median_of(const std::vector<T>& items, Get get) {
  std::vector<double> values;
  for (const T& item : items) {
    const double v = get(item);
    if (v >= 0.0) values.push_back(v);
  }
  return median(std::move(values));
}

void write_spans(const SpanLog& log, const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/spans_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".ndjson";
  log.write_ndjson(path);
  std::printf("trace: %zu spans written to %s\n", log.spans().size(), path.c_str());
}

void print_setups(const std::vector<double>& setups) {
  std::printf("set-up rounds (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("; median %.4f\n", median(setups));
}

void print_inputs(const Args& args, const Workload& workload) {
  std::printf("inputs: workload=%s seed=%llu digest(graphs + first 64 bundles)=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(workload.digest(64)));
}

void print_latency_summary(const std::vector<double>& latencies, double wall_s,
                           const CpuTimes& phase_start) {
  const auto p90 = tail_percentile(latencies, 0.90);
  const auto p99 = tail_percentile(latencies, 0.99);
  std::printf("timed phase: %zu requests in %.3f s; p50 %.3f ms, p90 %s ms, p99 %s ms; "
              "host steal %.2f%%\n",
              latencies.size(), wall_s, median(latencies),
              p90 ? std::to_string(*p90).c_str() : "n/a (<10 beyond)",
              p99 ? std::to_string(*p99).c_str() : "n/a (<10 beyond)",
              100.0 * CpuTimes::now().steal_frac_since(phase_start));
}

/// End-to-end metrics.  The latency tails are not among them: at the run
/// length the benchmark allows, the slower workloads hold fewer than ten
/// samples beyond a p90, so the tails go to the traced run (tail.*).
void emit_end_to_end(const std::vector<double>& latencies, double wall_s, double rss_mb,
                     double setup_s, Report& report) {
  report.add("req_per_s", static_cast<double>(latencies.size()) / wall_s, "1/s");
  report.add("req_ms_p50", median(latencies), "ms");
  report.add("peak_rss_mb", rss_mb, "MiB");
  report.add("setup_s", setup_s, "s");
}

/// The traced run's tail metrics: 0 where fewer than ten samples lie beyond.
void tail_metrics(const std::vector<double>& latencies, std::map<std::string, double>& values) {
  values["tail.req_ms_p90"] = tail_percentile(latencies, 0.90).value_or(0.0);
  values["tail.req_ms_p99"] = tail_percentile(latencies, 0.99).value_or(0.0);
}

// ---------------------------------------------------------------------------
// In-process workloads: qft20, maxcut_portable, mps_ring.
// ---------------------------------------------------------------------------

struct Submitted {
  core::ExecutionResult result;
  double submit_ms = 0.0;  ///< core::submit alone (for svc.overhead_ms)
};

Submitted submit_text(const std::string& text) {
  const core::JobBundle bundle = core::JobBundle::from_json(json::parse(text));
  const Clock::time_point start = Clock::now();
  Submitted out{core::submit(bundle), 0.0};
  out.submit_ms = ms_between(start, Clock::now());
  return out;
}

void run_in_process(const Args& args, Report& report) {
  // Set-up: generate the inputs, register the engines, warm up one request
  // per shape.  Repeated; the median is setup_s.
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    workload = std::make_unique<Workload>(args.workload, args.seed);
    backend::register_builtin_backends();
    for (int j = 0; j < workload->warmups_per_round(); ++j)
      (void)submit_text(workload->warmup(k, j).text);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  print_inputs(args, *workload);
  print_setups(setups);

  // What the traced run keeps of each completed request for its replay.
  struct Completed {
    std::uint64_t index = 0;
    double latency_ms = 0.0;
    double svc_overhead_ms = 0.0;
    core::Counts counts;
  };
  OutputChecks checks(*workload);
  std::vector<Completed> completed;
  std::vector<double> latencies;

  const CpuTimes cpu0 = CpuTimes::now();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(args.seconds));
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const Request request = workload->request(i);
    ++report.attempted;
    const Clock::time_point start = Clock::now();
    Submitted submitted;
    bool ok = false;
    try {
      submitted = submit_text(request.text);
      ok = checks.record(request, submitted.result.counts, submitted.result.metadata);
    } catch (const std::exception& e) {
      std::printf("request %llu failed: %s\n", static_cast<unsigned long long>(i), e.what());
    }
    const double latency = ms_between(start, Clock::now());
    if (!ok) {
      ++report.failed;
      continue;
    }
    latencies.push_back(latency);
    if (args.trace)
      completed.push_back(
          {i, latency,
           submitted.submit_ms - submitted.result.metadata.get_double("wall_time_ms", 0.0),
           std::move(submitted.result.counts)});
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const double rss_mb = peak_rss_mb();
  print_latency_summary(latencies, wall_s, cpu0);

  checks.finish(report);
  if (latencies.empty()) report.fail("no request completed");
  if (!args.trace) {
    emit_end_to_end(latencies, wall_s, rss_mb, median(setups), report);
    return;
  }

  // Replay every completed request through the layers, after the timed
  // phase, and check it reproduces core::submit's counts.
  struct Traced {
    std::size_t shape = 0;
    double svc_overhead_ms = 0.0;
    double coverage = 0.0;  ///< time inside stage spans / untraced latency
    ReplayResult replay;
  };
  SpanLog log;
  std::vector<Traced> traced;
  std::uint64_t mismatches = 0;
  for (const Completed& c : completed) {
    const int root = static_cast<int>(log.spans().size());
    Traced t;
    t.shape = static_cast<std::size_t>(workload->shape_of(c.index));
    t.svc_overhead_ms = c.svc_overhead_ms;
    t.replay = replay_request(workload->request(c.index).text, log, c.index);
    const double staged =
        log.spans()[static_cast<std::size_t>(root)].duration_ms() - log.self_ms(root);
    t.coverage = staged / c.latency_ms;
    if (t.replay.counts.map() != c.counts.map()) ++mismatches;
    traced.push_back(std::move(t));
  }
  std::printf("check: staged replay counts equal core::submit counts in %zu/%zu requests: %s\n",
              traced.size() - mismatches, traced.size(), mismatches == 0 ? "ok" : "FAIL");
  if (mismatches > 0) {
    report.failed += mismatches;
    report.fail("staged replay counts differ from core::submit");
  }

  const StageTimes times = stage_times(log);
  std::map<std::string, double> values;
  layer_timings(times, values);
  tail_metrics(latencies, values);
  const auto width_of = [&](std::uint64_t request) {
    return workload->shapes()[static_cast<std::size_t>(workload->shape_of(request))].width;
  };
  const auto dense = [](const Traced& t) { return t.replay.engine == "gate.statevector_simulator"; };
  values["transpile.swaps_inserted"] = median_of(
      traced, [](const Traced& t) { return static_cast<double>(t.replay.swaps_inserted); });
  values["transpile.ops_after_first_measure"] = median_of(traced, [](const Traced& t) {
    return static_cast<double>(t.replay.ops_after_first_measure);
  });
  values["sim.fused_ops"] = median_of(traced, [&](const Traced& t) {
    return dense(t) ? static_cast<double>(t.replay.fused_ops) : -1.0;
  });
  // Computed, not measured: every fused op sweeps the 2^n amplitudes
  // (16 B each) once for reading and once for writing.
  values["sim.evolve_bytes"] = median_of(traced, [&](const Traced& t) {
    return dense(t) && t.replay.fused_ops >= 0
               ? static_cast<double>(t.replay.fused_ops) * 2.0 * 16.0 *
                     std::ldexp(1.0, t.replay.num_qubits)
               : -1.0;
  });
  values["sim.trajectory_shots"] = median_of(traced, [](const Traced& t) {
    return t.replay.trajectory_shots > 0 ? static_cast<double>(t.replay.trajectory_shots) : -1.0;
  });
  for (const int w : {32, 40}) {
    const auto keep = [&width_of, w](std::uint64_t r) { return width_of(r) == w; };
    const std::string suffix = ".w" + std::to_string(w);
    values["sim.mps.evolve_ms" + suffix] = stage_median(times, "sim.mps.evolve", keep);
    values["sim.mps.sample_ms" + suffix] = stage_median(times, "sim.mps.sample", keep);
    values["sim.mps.peak_bond" + suffix] = median_of(traced, [&](const Traced& t) {
      return t.replay.peak_bond > 0 && t.replay.num_qubits == w
                 ? static_cast<double>(t.replay.peak_bond)
                 : -1.0;
    });
  }
  if (args.workload == "mps_ring") {
    std::size_t mps = 0;
    for (const Traced& t : traced) mps += t.replay.engine == "gate.mps_simulator" ? 1 : 0;
    values["sched.mps_frac"] =
        traced.empty() ? 0.0 : static_cast<double>(mps) / static_cast<double>(traced.size());
  }
  if (args.workload == "maxcut_portable") {
    std::vector<double> max_cut;
    for (const auto& graph : workload->graphs()) max_cut.push_back(graph.max_cut_exact().first);
    values["anneal.ground_frac"] = median_of(traced, [&](const Traced& t) {
      if (t.replay.engine != "anneal.simulated_annealer") return -1.0;
      const auto g = static_cast<std::size_t>(workload->shapes()[t.shape].graph);
      std::int64_t hits = 0;
      for (const auto& [key, n] : t.replay.counts.map())
        if (workload->graphs()[g].cut_value_bits(key) == max_cut[g]) hits += n;
      return static_cast<double>(hits) / static_cast<double>(t.replay.counts.total());
    });
  }
  values["svc.overhead_ms"] = median_of(traced, [](const Traced& t) { return t.svc_overhead_ms; });
  values["trace.coverage"] = median_of(traced, [](const Traced& t) { return t.coverage; });
  values["trace.overhead_frac"] = stage_median(times, "request") / median(latencies) - 1.0;
  write_spans(log, args);
  emit_per_layer(values, report);
}

// ---------------------------------------------------------------------------
// serve_tiny: a quml_serve child on a unix socket.
// ---------------------------------------------------------------------------

std::string self_dir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
}

/// One quml_serve child with its own work directory (journal, socket, log).
/// The destructor kills and reaps a daemon that was not stopped cleanly.
class Daemon {
 public:
  explicit Daemon(const std::string& dir) : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::string bin = self_dir() + "/quml_serve";
    const std::string store = dir_ + "/jobs.ndjson";
    const std::string log = log_path();
    const std::string socket = socket_path();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::setenv("OMP_NUM_THREADS", "1", 1);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(bin.c_str(), "quml_serve", "--store", store.c_str(), "--unix", socket.c_str(),
              "--tenant", "tenant-a:2", "--tenant", "tenant-b:1", static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  /// Relative to the working directory: unix socket paths are short.
  std::string socket_path() const { return dir_ + "/quml.sock"; }
  std::string log_path() const { return dir_ + "/daemon.log"; }

  /// Connects once the daemon answers a ping; throws after `timeout_s`.
  serve::Client connect(double timeout_s = 30.0) {
    const Clock::time_point give_up =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(timeout_s));
    for (;;) {
      try {
        serve::Client client = serve::Client::connect_unix(socket_path());
        if (client.ping().get_string("op", "") == "pong") return client;
      } catch (const Error&) {
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("quml_serve exited during start-up (see " + log_path() + ")");
      }
      if (Clock::now() > give_up) throw std::runtime_error("quml_serve did not answer a ping");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// SIGTERM, then waits up to `timeout_s` for a clean exit; returns the
  /// daemon's log, or throws when it did not exit 0 in time.
  std::string stop(double timeout_s = 60.0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point give_up =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(timeout_s));
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) throw std::runtime_error("quml_serve did not drain in time");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::ifstream in(log_path());
    std::stringstream text;
    text << in.rdbuf();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("quml_serve exited abnormally: " + text.str());
    return text.str();
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
};

json::Value submit_request(const std::string& bundle_text) {
  json::Value doc = json::Value::object();
  doc.set("op", "submit");
  doc.set("bundle", json::parse(bundle_text));
  return doc;
}

json::Value result_request(std::int64_t ticket) {
  json::Value doc = json::Value::object();
  doc.set("op", "result");
  doc.set("ticket", ticket);
  doc.set("wait", true);
  return doc;
}

struct Session {
  serve::Client client;
  int outstanding = 0;
};

/// Daemon plus its two tenant sessions (weights 2:1).
struct ServeRig {
  std::unique_ptr<Daemon> daemon;
  std::vector<Session> sessions;
};

ServeRig start_rig(const std::string& dir) {
  ServeRig rig;
  rig.daemon = std::make_unique<Daemon>(dir);
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    serve::Client client = rig.daemon->connect();
    if (!client.hello(tenant).get_bool("ok", false))
      throw std::runtime_error(std::string("hello refused for ") + tenant);
    rig.sessions.push_back(Session{std::move(client), 0});
  }
  return rig;
}

/// A scratch directory under the working directory, removed on scope exit.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string operator/(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

void run_serve(const Args& args, Report& report) {
  const WorkDir work(".bench_work/" + std::to_string(::getpid()));
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  ServeRig rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (rig.daemon) {
      rig.sessions.clear();
      rig.daemon->stop();
      rig.daemon.reset();
    }
    const Clock::time_point t0 = Clock::now();
    workload = std::make_unique<Workload>(args.workload, args.seed);
    rig = start_rig(work / ("daemon" + std::to_string(k)));
    for (int j = 0; j < workload->warmups_per_round(); ++j) {
      const Request warm = workload->warmup(k, j);
      const Shape& shape = workload->shapes()[static_cast<std::size_t>(warm.shape)];
      serve::Client& client = rig.sessions[static_cast<std::size_t>(j % 2)].client;
      const json::Value reply = client.call(submit_request(warm.text));
      json::Value result;
      if (reply.get_bool("ok", false)) result = client.call(result_request(reply.get_int("ticket", 0)));
      if (!is_success(classify_job(reply, reply.get_bool("ok", false) ? &result : nullptr,
                                   shape.defective, shape.shots)))
        throw std::runtime_error("serve_tiny warm-up job failed");
    }
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  print_inputs(args, *workload);
  print_setups(setups);

  struct Job {
    Request request;
    int session = 0;
    Clock::time_point start;
    json::Value submit_reply;
    std::int64_t ticket = 0;
    int root_span = -1;  ///< traced jobs only
    int wait_span = -1;  ///< ticket to result, traced jobs only
  };
  struct Done {
    std::uint64_t index = 0;
    double latency_ms = 0.0;
    bool traced = false;
    json::Value counts;  ///< kept for the first kServeReplays DONE jobs
  };
  SpanLog log;
  std::deque<Job> outstanding;
  std::vector<Done> finished;
  std::vector<double> latencies;
  std::map<JobOutcome, std::uint64_t> outcomes;
  std::uint64_t next = 0;
  std::size_t kept_counts = 0;

  const auto settle = [&](Job& job, const json::Value* result) {
    const Shape& shape = workload->shapes()[static_cast<std::size_t>(job.request.shape)];
    const JobOutcome outcome = classify_job(job.submit_reply, result, shape.defective, shape.shots);
    const double latency = ms_between(job.start, Clock::now());
    if (job.root_span >= 0) log.close(job.root_span);
    ++report.attempted;
    ++outcomes[outcome];
    if (!is_success(outcome)) {
      ++report.failed;
      return;
    }
    latencies.push_back(latency);
    Done done{job.request.index, latency, job.root_span >= 0, json::Value()};
    if (outcome == JobOutcome::Done && kept_counts < kServeReplays) {
      done.counts = result->at("counts");
      ++kept_counts;
    }
    finished.push_back(std::move(done));
  };
  // Submits the next job on `s`; a job refused at submit settles at once.
  const auto submit_next = [&](int s) {
    Job job;
    job.request = workload->request(next++);
    job.session = s;
    job.start = Clock::now();
    const bool traced = args.trace && job.request.index % 2 == 0;
    if (traced) job.root_span = log.open("serve.job", job.request.index, -1);
    serve::Client& client = rig.sessions[static_cast<std::size_t>(s)].client;
    {
      const int span = traced ? log.open("serve.submit", job.request.index, job.root_span) : -1;
      job.submit_reply = client.call(submit_request(job.request.text));
      if (span >= 0) log.close(span);
    }
    if (!job.submit_reply.get_bool("ok", false)) {
      settle(job, nullptr);
      return;
    }
    job.ticket = job.submit_reply.get_int("ticket", 0);
    if (traced) job.wait_span = log.open("serve.result_wait", job.request.index, job.root_span);
    ++rig.sessions[static_cast<std::size_t>(s)].outstanding;
    outstanding.push_back(std::move(job));
  };
  const auto collect_oldest = [&] {
    Job job = std::move(outstanding.front());
    outstanding.pop_front();
    Session& session = rig.sessions[static_cast<std::size_t>(job.session)];
    const json::Value result = session.client.call(result_request(job.ticket));
    if (job.wait_span >= 0) log.close(job.wait_span);
    --session.outstanding;
    settle(job, &result);
  };

  const CpuTimes cpu0 = CpuTimes::now();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args.seconds));
  try {
    while (Clock::now() < deadline) {
      for (int s = 0; s < 2; ++s)
        while (rig.sessions[static_cast<std::size_t>(s)].outstanding < kOutstandingPerSession &&
               Clock::now() < deadline)
          submit_next(s);
      if (!outstanding.empty()) collect_oldest();
    }
    while (!outstanding.empty()) collect_oldest();
  } catch (const Error& e) {
    ++report.attempted;
    ++report.failed;
    ++outcomes[JobOutcome::TransportError];
    report.fail(std::string("transport error: ") + e.what());
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  print_latency_summary(latencies, wall_s, cpu0);
  for (const auto& [outcome, n] : outcomes)
    std::printf("serve_tiny outcome %s: %llu\n", to_string(outcome), static_cast<unsigned long long>(n));

  const json::Value stats = rig.sessions[0].client.call(json::parse(R"({"op":"stats"})"));
  const double rss_mb = peak_rss_mb(rig.daemon->pid());
  rig.sessions.clear();
  const std::string daemon_log = rig.daemon->stop();
  rig.daemon.reset();
  const bool drained = daemon_log.find("drained clean") != std::string::npos &&
                       daemon_log.find("queued 0)") != std::string::npos;
  std::printf("check: daemon after SIGTERM printed 'drained clean' with queued 0: %s\n",
              drained ? "ok" : "FAIL");
  if (!drained) report.fail("daemon did not drain clean: " + daemon_log);
  const bool classified = report.failed == 0;
  std::printf("check: every accepted job DONE with %lld shots, every defective job REJECTED "
              "with QA012: %s\n",
              static_cast<long long>(workload->shapes().front().shots), classified ? "ok" : "FAIL");
  if (!classified) report.fail("serve_tiny jobs settled wrongly");
  if (latencies.empty()) report.fail("no job completed");

  if (!args.trace) {
    emit_end_to_end(latencies, wall_s, rss_mb, median(setups), report);
    return;
  }

  // Replay: the in-process halves of the daemon's path for the first
  // kServeReplays completed jobs, on the same request bytes.
  std::map<std::string, double> values;
  backend::register_builtin_backends();
  std::uint64_t mismatches = 0;
  std::size_t replayed = 0;
  {
    serve::JobStore store(work / "replay_journal.ndjson");
    for (const Done& done : finished) {
      if (done.counts.is_null()) continue;
      const Request request = workload->request(done.index);
      const std::string frame =
          serve::encode_frame(json::dump(submit_request(request.text)), serve::Framing::Newline);
      {
        ScopedSpan span(log, "serve.frame_decode", request.index, -1);
        serve::FrameDecoder decoder;
        decoder.feed(frame);
        if (!decoder.next()) throw std::runtime_error("frame did not decode");
      }
      const ReplayResult replay = replay_request(request.text, log, request.index);
      if (replay.counts.to_json() != done.counts) ++mismatches;
      serve::PendingJob pending;
      pending.ticket = request.index + 1;
      pending.tenant = "tenant-a";
      pending.bundle = core::JobBundle::from_json(json::parse(request.text));
      ScopedSpan span(log, "serve.journal_append", request.index, -1);
      store.append_enqueue(pending);
      ++replayed;
    }
  }
  std::printf("check: staged replay counts equal the daemon's counts in %zu/%zu jobs: %s\n",
              replayed - mismatches, replayed, mismatches == 0 ? "ok" : "FAIL");
  if (mismatches > 0) {
    report.failed += mismatches;
    report.fail("staged replay counts differ from the daemon's");
  }

  const StageTimes times = stage_times(log);
  layer_timings(times, values);
  values["serve.submit_rtt_ms"] = stage_median(times, "serve.submit");
  values["serve.result_wait_ms"] = stage_median(times, "serve.result_wait");
  values["serve.frame_decode_ms"] = stage_median(times, "serve.frame_decode");
  values["serve.journal_append_ms"] = stage_median(times, "serve.journal_append");
  const double submitted = static_cast<double>(stats.get_int("accepted", 0) +
                                               stats.get_int("rejected", 0) +
                                               stats.get_int("shed", 0));
  values["serve.rejected_frac"] = static_cast<double>(stats.get_int("rejected", 0)) / submitted;
  values["serve.shed_frac"] = static_cast<double>(stats.get_int("shed", 0)) / submitted;
  tail_metrics(latencies, values);
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const Done& done : finished) (done.traced ? traced_ms : untraced_ms).push_back(done.latency_ms);
  const double untraced_p50 = median(untraced_ms);
  values["trace.coverage"] =
      (values["serve.submit_rtt_ms"] + values["serve.result_wait_ms"]) / untraced_p50;
  values["trace.overhead_frac"] = median(traced_ms) / untraced_p50 - 1.0;
  write_spans(log, args);
  emit_per_layer(values, report);
}

void print_result(const Report& report) {
  const bool correct = report.check_failures.empty();
  for (const auto& why : report.check_failures) std::printf("check failed: %s\n", why.c_str());
  std::printf("requests: attempted %llu, failed %llu, error_frac %.6f\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted ? static_cast<double>(report.failed) / report.attempted : 0.0);
  json::Value metrics = json::Value::object();
  for (const Metric& m : report.metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json::Value entry = json::Value::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, entry);
  }
  json::Value doc = json::Value::object();
  doc.set("correct", correct);
  doc.set("attempted", static_cast<std::int64_t>(report.attempted));
  doc.set("failed", static_cast<std::int64_t>(report.failed));
  doc.set("metrics", metrics);
  std::printf("%s\n", json::dump(doc).c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  print_provenance(args);
  if (std::string(quml::build_type()) != "release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s libquml; build Release\n",
                 quml::build_type());
    return 1;
  }
  Report report;
  try {
    if (args.workload == "serve_tiny")
      run_serve(args, report);
    else
      run_in_process(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(report);
  return report.check_failures.empty() && report.failed == 0 ? 0 : 1;
}
