// Unit tests of the benchmark's own logic: the percentile rule, span
// self-time arithmetic, seed determinism of the generators, and the
// serve_tiny reply classification.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "common.hpp"
#include "json/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using quml::json::parse;

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_FALSE(tail_percentile(ramp(99), 0.90).has_value());  // rank 90: 9 beyond
  ASSERT_TRUE(tail_percentile(ramp(100), 0.90).has_value());  // rank 90: 10 beyond
  EXPECT_DOUBLE_EQ(*tail_percentile(ramp(100), 0.90), 90.0);
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  ASSERT_TRUE(tail_percentile(ramp(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(self_time(0, 10, {}), 10.0);
  // Overlapping children count once: [1,5] and [7,8] cover 5 ms.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{1, 3}, {2, 5}, {7, 8}}), 5.0);
  // Children are clipped to the parent's interval.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{-2, 1}, {9, 12}}), 8.0);
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{0, 10}, {3, 4}}), 0.0);
}

TEST(SpanSelfTime, LogLinksChildrenToParents) {
  SpanLog log;
  const int root = log.open("request", 7, -1);
  const int child = log.open("stage", 7, root);
  log.close(child);
  const int other = log.open("other", 8, -1);  // not a child of root
  log.close(other);
  log.close(root);
  const auto& spans = log.spans();
  EXPECT_EQ(spans[static_cast<std::size_t>(child)].parent, root);
  EXPECT_DOUBLE_EQ(log.self_ms(child), spans[static_cast<std::size_t>(child)].duration_ms());
  EXPECT_NEAR(log.self_ms(root),
              spans[static_cast<std::size_t>(root)].duration_ms() -
                  spans[static_cast<std::size_t>(child)].duration_ms(),
              1e-9);
}

TEST(Generators, SameSeedGivesByteIdenticalBundles) {
  for (const auto& name : Workload::names()) {
    const Workload a(name, 11);
    const Workload b(name, 11);
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(a.request(i).text, b.request(i).text) << name;
    EXPECT_EQ(a.digest(16), b.digest(16)) << name;
    EXPECT_NE(a.digest(16), Workload(name, 12).digest(16)) << name;
  }
}

TEST(Generators, DifferentSeedGivesADifferentGraph) {
  const Workload a("maxcut_portable", 1);
  const Workload b("maxcut_portable", 2);
  ASSERT_FALSE(a.graphs().empty());
  for (const auto& graph : a.graphs()) {
    EXPECT_EQ(graph.n, 12);
    EXPECT_EQ(graph.edges.size(), 18u);  // 3-regular
  }
  EXPECT_NE(quml::json::dump(a.graphs()[0].to_json()), quml::json::dump(b.graphs()[0].to_json()));
}

TEST(Generators, SpliceEqualsDirectPackaging) {
  for (const auto& name : Workload::names()) {
    const Workload w(name, 5);
    for (const std::uint64_t i : std::vector<std::uint64_t>{0, 1, 2, 15, Workload::kWarmupBase + 3}) {
      const Request r = w.request(i);
      const Shape& shape = w.shapes()[static_cast<std::size_t>(r.shape)];
      const quml::algolib::Graph graph =
          shape.graph >= 0 ? w.graphs()[static_cast<std::size_t>(shape.graph)] : quml::algolib::Graph{};
      const quml::core::JobBundle direct =
          package_shape(name, shape.label, graph, r.seed, name + "-" + std::to_string(i));
      EXPECT_EQ(r.text, quml::json::dump(direct.to_json())) << name << " #" << i;
    }
  }
}

TEST(Generators, EveryRequestHasItsOwnSeed) {
  const Workload w("serve_tiny", 3);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) seeds.insert(w.seed_of(i));
  for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(w.seed_of(Workload::kWarmupBase + i));
  EXPECT_EQ(seeds.size(), 4096u + 64u);
  EXPECT_LT(*seeds.rbegin(), 1ull << 53);
  // One job in 16 is the defective shape, among the warm-ups too.
  int defective = 0;
  for (std::uint64_t i = 0; i < 64; ++i) defective += w.shapes()[w.shape_of(i)].defective ? 1 : 0;
  EXPECT_EQ(defective, 4);
  int warm_defective = 0;
  for (int j = 0; j < w.warmups_per_round(); ++j)
    warm_defective += w.shapes()[static_cast<std::size_t>(w.warmup(1, j).shape)].defective ? 1 : 0;
  EXPECT_EQ(warm_defective, 1);
}

TEST(Generators, WarmupsCoverEveryContextOnce) {
  const Workload w("maxcut_portable", 4);
  std::set<std::string> labels;
  for (int j = 0; j < w.warmups_per_round(); ++j)
    labels.insert(w.shapes()[static_cast<std::size_t>(w.warmup(2, j).shape)].label);
  EXPECT_EQ(labels.size(), 3u);
}

TEST(BenchmarkJson, PerLayerMetricsMatchTheBinary) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const quml::json::Value doc = parse(text.str());
  const auto& declared = doc.at("per_layer").as_array();
  const auto& printed = per_layer_metrics();
  ASSERT_EQ(declared.size(), printed.size());
  for (std::size_t i = 0; i < printed.size(); ++i) {
    EXPECT_EQ(declared[i].get_string("name", ""), printed[i].first);
    EXPECT_EQ(declared[i].get_string("unit", ""), printed[i].second);
  }
}

TEST(ReplyClassification, DoneNeedsTheFullShotCount) {
  const auto accepted = parse(R"({"ok":true,"op":"submit","ticket":3,"status":"QUEUED"})");
  const auto done = parse(R"({"ok":true,"status":"DONE","counts":{"000":100,"111":28}})");
  const auto short_counts = parse(R"({"ok":true,"status":"DONE","counts":{"000":100}})");
  const auto failed = parse(R"({"ok":true,"status":"FAILED","error":"boom"})");
  EXPECT_EQ(classify_job(accepted, &done, false, 128), JobOutcome::Done);
  EXPECT_EQ(classify_job(accepted, &short_counts, false, 128), JobOutcome::Failed);
  EXPECT_EQ(classify_job(accepted, &failed, false, 128), JobOutcome::Failed);
  EXPECT_EQ(classify_job(accepted, nullptr, false, 128), JobOutcome::Failed);
  // A defective job that was accepted is a failure even if it ran.
  EXPECT_EQ(classify_job(accepted, &done, true, 128), JobOutcome::Failed);
}

TEST(ReplyClassification, RejectedCountsOnlyWhenExpected) {
  const auto qa012 = parse(R"({"ok":false,"code":"REJECTED","detail":"error[QA012] unbound"})");
  const auto other = parse(R"({"ok":false,"code":"REJECTED","detail":"error[QA001] width"})");
  EXPECT_EQ(classify_job(qa012, nullptr, true, 128), JobOutcome::ExpectedRejected);
  EXPECT_EQ(classify_job(other, nullptr, true, 128), JobOutcome::Failed);
  EXPECT_EQ(classify_job(qa012, nullptr, false, 128), JobOutcome::Failed);
}

TEST(ReplyClassification, ShedAndTransportErrorsAreFailures) {
  const auto shed = parse(R"({"ok":false,"code":"SHED","detail":"tenant queue full"})");
  EXPECT_EQ(classify_job(shed, nullptr, false, 128), JobOutcome::Shed);
  EXPECT_FALSE(is_success(JobOutcome::Shed));
  EXPECT_FALSE(is_success(JobOutcome::TransportError));
  EXPECT_FALSE(is_success(JobOutcome::Failed));
  EXPECT_TRUE(is_success(JobOutcome::Done));
  EXPECT_TRUE(is_success(JobOutcome::ExpectedRejected));
}

}  // namespace
}  // namespace perfbench
