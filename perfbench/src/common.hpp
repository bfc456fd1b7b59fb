#pragma once
// Measurement helpers shared by the perfbench binary and its unit tests:
// percentiles under the "ten samples beyond" rule, the in-memory span log of
// the traced run, input digests, peak RSS, and the serve_tiny reply
// classification.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point start, Clock::time_point end);

/// Median of `samples` (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile `q` in (0, 1) of `samples`, or nullopt unless at
/// least ten samples lie strictly beyond the reported rank — a tail read off
/// fewer samples is the slowest request, not a percentile.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// One timed interval of the traced run.  Spans of one request share
/// `request`; `parent` indexes the enclosing span in the log (-1 for a
/// request's root span).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t request = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Spans kept in memory for the whole run and written out at its end.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span now; returns its index for close() and as a child's parent.
  int open(std::string name, std::uint64_t request, int parent);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration of span `index` minus the part of its interval covered by its
  /// direct children.
  double self_ms(int index) const;

  /// One JSON object per line: name, start_ms, end_ms, parent, request.
  void write_ndjson(const std::string& path) const;

 private:
  double now_ms() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Length of [start, end] not covered by the union of `children` (each
/// clipped to the parent interval first).
double self_time(double start, double end, std::vector<std::pair<double, double>> children);

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t request, int parent)
      : log_(log), index_(log.open(std::move(name), request, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const noexcept { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// 64-bit FNV-1a, chained through `hash`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull);

/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 reads this process.
double peak_rss_mb(pid_t pid = 0);

/// Host-wide CPU time counters from /proc/stat, to report how much time the
/// hypervisor stole while a phase ran (a noisy neighbour shows up here).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuTimes now();
  /// Share of the CPU time between `start` and this sample that was stolen.
  double steal_frac_since(const CpuTimes& start) const;
};

/// (name, unit) of every per-layer metric, in BENCHMARK.json order.  A
/// traced run prints all of them, with 0 for layers its workload does not
/// reach.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// What one serve_tiny job came back as.  Done and ExpectedRejected are
/// successes; everything else counts as a failed request.
enum class JobOutcome { Done, ExpectedRejected, Shed, Failed, TransportError };

const char* to_string(JobOutcome outcome) noexcept;
bool is_success(JobOutcome outcome) noexcept;

/// Classifies a job from its submit reply and, for an accepted job, its
/// result reply (nullptr when none was fetched).  A defective job must be
/// REJECTED with a QA012 diagnostic; a well-formed one must settle DONE with
/// counts summing to `shots`.
JobOutcome classify_job(const quml::json::Value& submit_reply,
                        const quml::json::Value* result_reply, bool defective,
                        std::int64_t shots);

}  // namespace perfbench
