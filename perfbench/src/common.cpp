#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

double SpanLog::now_ms() const { return ms_between(origin_, Clock::now()); }

int SpanLog::open(std::string name, std::uint64_t request, int parent) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = parent;
  span.start_ms = now_ms();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int index) { spans_[static_cast<std::size_t>(index)].end_ms = now_ms(); }

double self_time(double start, double end, std::vector<std::pair<double, double>> children) {
  for (auto& [a, b] : children) {
    a = std::clamp(a, start, end);
    b = std::clamp(b, start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;  // right edge of the union swept so far
  for (const auto& [a, b] : children) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (end - start) - covered;
}

double SpanLog::self_ms(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> children;
  // Children are opened after their parent, so they sit later in the log.
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == index) children.emplace_back(spans_[i].start_ms, spans_[i].end_ms);
  return self_time(span.start_ms, span.end_ms, std::move(children));
}

void SpanLog::write_ndjson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    quml::json::Value doc = quml::json::Value::object();
    doc.set("name", span.name);
    doc.set("start_ms", span.start_ms);
    doc.set("end_ms", span.end_ms);
    doc.set("parent", static_cast<std::int64_t>(span.parent));
    doc.set("request", static_cast<std::int64_t>(span.request));
    out << quml::json::dump(doc) << '\n';
  }
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes CpuTimes::now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double CpuTimes::steal_frac_since(const CpuTimes& start) const {
  const std::uint64_t total_delta = total - start.total;
  return total_delta == 0 ? 0.0
                          : static_cast<double>(steal - start.steal) / static_cast<double>(total_delta);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"json.parse_ms", "ms"},
      {"analysis.analyze_ms", "ms"},
      {"backend.lower_ms", "ms"},
      {"transpile.ms", "ms"},
      {"transpile.swaps_inserted", "count"},
      {"transpile.ops_after_first_measure", "count"},
      {"sim.fuse_ms", "ms"},
      {"sim.fused_ops", "count"},
      {"sim.evolve_ms", "ms"},
      {"sim.evolve_bytes", "bytes_computed"},
      {"sim.sample_ms", "ms"},
      {"sim.counts_ms", "ms"},
      {"sim.trajectory_ms", "ms"},
      {"sim.trajectory_shots", "count"},
      {"sim.noisy_ms", "ms"},
      {"sim.mps.evolve_ms.w32", "ms"},
      {"sim.mps.evolve_ms.w40", "ms"},
      {"sim.mps.sample_ms.w32", "ms"},
      {"sim.mps.sample_ms.w40", "ms"},
      {"sim.mps.peak_bond.w32", "count"},
      {"sim.mps.peak_bond.w40", "count"},
      {"sched.choose_ms", "ms"},
      {"sched.mps_frac", "frac"},
      {"anneal.sample_ms", "ms"},
      {"anneal.ground_frac", "frac"},
      {"core.decode_ms", "ms"},
      {"svc.overhead_ms", "ms"},
      {"serve.submit_rtt_ms", "ms"},
      {"serve.result_wait_ms", "ms"},
      {"serve.frame_decode_ms", "ms"},
      {"serve.journal_append_ms", "ms"},
      {"serve.rejected_frac", "frac"},
      {"serve.shed_frac", "frac"},
      {"tail.req_ms_p90", "ms"},
      {"tail.req_ms_p99", "ms"},
      {"trace.coverage", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

const char* to_string(JobOutcome outcome) noexcept {
  switch (outcome) {
    case JobOutcome::Done: return "DONE";
    case JobOutcome::ExpectedRejected: return "EXPECTED_REJECTED";
    case JobOutcome::Shed: return "SHED";
    case JobOutcome::Failed: return "FAILED";
    case JobOutcome::TransportError: return "TRANSPORT_ERROR";
  }
  return "?";
}

bool is_success(JobOutcome outcome) noexcept {
  return outcome == JobOutcome::Done || outcome == JobOutcome::ExpectedRejected;
}

JobOutcome classify_job(const quml::json::Value& submit_reply,
                        const quml::json::Value* result_reply, bool defective,
                        std::int64_t shots) {
  if (!submit_reply.get_bool("ok", false)) {
    const std::string code = submit_reply.get_string("code", "");
    if (code == "SHED") return JobOutcome::Shed;
    const bool qa012 = submit_reply.get_string("detail", "").find("QA012") != std::string::npos;
    return defective && code == "REJECTED" && qa012 ? JobOutcome::ExpectedRejected
                                                    : JobOutcome::Failed;
  }
  if (defective || result_reply == nullptr) return JobOutcome::Failed;
  if (result_reply->get_string("status", "") != "DONE") return JobOutcome::Failed;
  const quml::json::Value* counts = result_reply->find("counts");
  if (counts == nullptr || !counts->is_object()) return JobOutcome::Failed;
  std::int64_t total = 0;
  for (const auto& [key, n] : counts->as_object()) {
    if (!n.is_int()) return JobOutcome::Failed;
    total += n.as_int();
  }
  return total == shots ? JobOutcome::Done : JobOutcome::Failed;
}

}  // namespace perfbench
