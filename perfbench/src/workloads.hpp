#pragma once
// Seeded request generators for the four benchmark workloads.
//
// A workload is a fixed list of request shapes (one per distinct context or
// width) and an unbounded request stream over them: request i has shape
// `shape_of(i)` and its own exec seed, so no two requests of a run can share
// a result.  Each shape is packaged once through core::JobBundle::package and
// rendered to JSON with placeholder seed/job-id tokens; request i splices its
// values into that text, which is byte-identical to packaging the bundle with
// those values (checked by the unit tests) at a fraction of the cost.

#include <cstdint>
#include <string>
#include <vector>

#include "algolib/graph.hpp"
#include "core/bundle.hpp"

namespace perfbench {

/// Bundle JSON with the exec seed and job id left as holes.
class BundleTemplate {
 public:
  /// Renders `bundle` (packaged with kSeedToken as its exec seed and
  /// kJobIdToken as its job id) and splits the text at every token.
  explicit BundleTemplate(const quml::core::JobBundle& bundle);

  std::string render(std::uint64_t seed, const std::string& job_id) const;

  static constexpr std::uint64_t kSeedToken = 3141592653589ull;
  static constexpr const char* kJobIdToken = "perfbench-job-token";

 private:
  enum class Hole { Seed, JobId };
  std::vector<std::string> literals_;  // literals_.size() == holes_.size() + 1
  std::vector<Hole> holes_;
};

/// One request shape of a workload.
struct Shape {
  std::string label;      ///< e.g. "qaoa_routed", "w32"
  std::int64_t shots = 0; ///< shots or reads the result must hold
  int width = 0;          ///< register width
  bool defective = false; ///< must be REJECTED at admission (QA012)
  int graph = -1;         ///< index into Workload::graphs(), -1 for none
  BundleTemplate bundle;
};

/// A generated request: the bundle text the program receives.
struct Request {
  std::uint64_t index = 0;
  int shape = 0;
  std::uint64_t seed = 0;
  std::string text;
};

class Workload {
 public:
  /// Builds the named workload's shapes from `seed`; throws
  /// std::invalid_argument for an unknown name.
  Workload(const std::string& name, std::uint64_t seed);

  const std::string& name() const noexcept { return name_; }
  const std::vector<Shape>& shapes() const noexcept { return shapes_; }
  /// The Max-Cut instances (maxcut_portable only; empty otherwise).
  const std::vector<quml::algolib::Graph>& graphs() const noexcept { return graphs_; }

  int shape_of(std::uint64_t index) const;
  /// Warm-up request `j` of set-up round `round`: one per distinct context
  /// or width (16 jobs for serve_tiny), with seeds apart from the timed ones.
  Request warmup(int round, int j) const;
  int warmups_per_round() const noexcept { return warmups_; }
  /// Exec seed of request `index`: distinct for every index of one workload
  /// seed, and < 2^53 so it survives any JSON reader.
  std::uint64_t seed_of(std::uint64_t index) const;
  Request request(std::uint64_t index) const;

  /// FNV-1a over the graphs and the first `count` request texts.
  std::uint64_t digest(std::uint64_t count) const;

  /// Requests from kWarmupBase up are the set-up warm-ups, apart from every
  /// timed index.
  static constexpr std::uint64_t kWarmupBase = 1ull << 23;

  /// The workload names, in the order they are documented.
  static const std::vector<std::string>& names();

 private:
  Request render(std::uint64_t index, int shape) const;

  std::string name_;
  std::uint64_t seed_base_ = 0;
  int warmups_ = 0;
  std::vector<quml::algolib::Graph> graphs_;
  std::vector<Shape> shapes_;
};

/// The bundle of shape `label` of `workload`, packaged directly (the
/// templates are made from it; the unit tests compare against it).
quml::core::JobBundle package_shape(const std::string& workload, const std::string& label,
                                    const quml::algolib::Graph& graph, std::uint64_t seed,
                                    const std::string& job_id);

}  // namespace perfbench
