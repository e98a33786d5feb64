#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/mcl.h"
#include "core/symmetrize.h"
#include "gen/lfr.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "util/timer.h"

namespace dgc {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, ObservationsLandInLowerBoundBuckets) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.Observe(0.5);  // first bucket (bound 1.0)
  h.Observe(1.0);  // bound is inclusive: still the first bucket
  h.Observe(1.5);  // second bucket (bound 2.0)
  h.Observe(4.0);  // third bucket (bound 4.0)
  h.Observe(9.0);  // overflow bucket
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2);
  EXPECT_EQ(h.bucket_counts()[1], 1);
  EXPECT_EQ(h.bucket_counts()[2], 1);
  EXPECT_EQ(h.bucket_counts()[3], 1);
  EXPECT_EQ(h.total_count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(HistogramTest, ExponentialBucketBounds) {
  const Histogram h = Histogram::Exponential(1.0, 2.0, 4);
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(h.bucket_counts().size(), 5u);  // + overflow
}

TEST(HistogramTest, DefaultHistogramHasOneOverflowBucket) {
  Histogram h;
  h.Observe(123.0);
  ASSERT_EQ(h.bucket_counts().size(), 1u);
  EXPECT_EQ(h.bucket_counts()[0], 1);
}

TEST(HistogramTest, MergeRejectsMismatchedBounds) {
  Histogram a(std::vector<double>{1.0, 2.0});
  Histogram b(std::vector<double>{1.0, 3.0});
  EXPECT_FALSE(a.Merge(b).ok());
  Histogram c(std::vector<double>{1.0});
  EXPECT_FALSE(a.Merge(c).ok());
}

// Shard merging must be associative and commutative so that per-worker
// shards produce the same registry content in any merge order.
TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  const std::vector<double> bounds{1.0, 10.0, 100.0};
  auto shard = [&](std::vector<double> values) {
    Histogram h(bounds);
    for (double v : values) h.Observe(v);
    return h;
  };
  const Histogram a = shard({0.5, 5.0});
  const Histogram b = shard({50.0, 500.0, 2.0});
  const Histogram c = shard({1.0});

  Histogram left = a;  // (a + b) + c
  ASSERT_TRUE(left.Merge(b).ok());
  ASSERT_TRUE(left.Merge(c).ok());
  Histogram right = b;  // a + (b + c)
  ASSERT_TRUE(right.Merge(c).ok());
  Histogram swapped = right;  // also exercises commutation: (b + c) + a
  ASSERT_TRUE(swapped.Merge(a).ok());

  EXPECT_EQ(left.bucket_counts(), swapped.bucket_counts());
  EXPECT_EQ(left.total_count(), swapped.total_count());
  EXPECT_DOUBLE_EQ(left.sum(), swapped.sum());
}

// ---------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("x"), 0);
  registry.AddCounter("x", 2);
  registry.AddCounter("x", 3);
  registry.AddCounter("y", 1);
  EXPECT_EQ(registry.CounterValue("x"), 5);
  EXPECT_EQ(registry.CounterValue("y"), 1);
  const auto counters = registry.Counters();
  EXPECT_EQ(counters.size(), 2u);
}

TEST(MetricsRegistryTest, GaugesLastWriteWins) {
  MetricsRegistry registry;
  registry.SetGauge("g", 1.0);
  registry.SetGauge("g", 2.5);
  EXPECT_DOUBLE_EQ(registry.Gauges().at("g"), 2.5);
}

TEST(MetricsRegistryTest, HistogramShardsMerge) {
  MetricsRegistry registry;
  Histogram shard1(std::vector<double>{1.0, 2.0});
  shard1.Observe(0.5);
  Histogram shard2(std::vector<double>{1.0, 2.0});
  shard2.Observe(1.5);
  registry.MergeHistogram("h", shard1);
  registry.MergeHistogram("h", shard2);
  const auto histograms = registry.Histograms();
  ASSERT_EQ(histograms.count("h"), 1u);
  EXPECT_EQ(histograms.at("h").total_count(), 2);
}

// -------------------------------------------------------------- StageSpan

TEST(StageSpanTest, NullRegistryIsInert) {
  StageSpan span(nullptr, "dead");
  EXPECT_FALSE(span.live());
  // Every operation must be a no-op, not a crash.
  span.Metric("i", 1);
  span.Metric("d", 2.0);
  span.Metric("s", "text");
  span.PerfMetric("p", 3);
}

TEST(StageSpanTest, SpansNestIntoATree) {
  MetricsRegistry registry;
  {
    StageSpan root(&registry, "root");
    root.Metric("k", 1);
    {
      StageSpan child(&registry, "child");
      child.Metric("inner", 2);
      StageSpan grandchild(&registry, "grandchild");
    }
    StageSpan sibling(&registry, "sibling");
  }
  const std::vector<SpanNode> spans = registry.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "grandchild");
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, 0);
  EXPECT_EQ(spans[0].children, (std::vector<int>{1, 3}));
  ASSERT_EQ(spans[0].metrics.size(), 1u);
  EXPECT_EQ(spans[0].metrics[0].first, "k");
  // Closed spans carry non-negative timings.
  EXPECT_GE(spans[0].wall_seconds, 0.0);
  EXPECT_GE(spans[0].cpu_seconds, 0.0);
}

TEST(StageSpanTest, MetricOverwritesExistingKey) {
  MetricsRegistry registry;
  {
    StageSpan span(&registry, "s");
    span.Metric("k", 1);
    span.Metric("k", 2);
  }
  const auto spans = registry.Spans();
  ASSERT_EQ(spans[0].metrics.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(spans[0].metrics[0].second), 2);
}

// ---------------------------------------------------------------- Reports

TEST(RunReportTest, EmptyRegistrySerializesSchemaAndEmptySections) {
  MetricsRegistry registry;
  const std::string json = RunReportToJson(registry);
  EXPECT_NE(json.find("\"schema\": \"dgc.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"spans\": []"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
}

TEST(RunReportTest, SameContentSerializesByteIdentically) {
  auto build = [](MetricsRegistry& registry) {
    StageSpan root(&registry, "stage");
    root.Metric("nnz", 42);
    root.Metric("threshold", 0.25);
    root.Metric("engine", "fused");
    registry.AddCounter("edges", 7);
    registry.SetGauge("quality", 0.5);
  };
  MetricsRegistry a, b;
  build(a);
  build(b);
  const RunReportOptions redact{/*redact_timings=*/true};
  EXPECT_EQ(RunReportToJson(a, redact), RunReportToJson(b, redact));
}

TEST(RunReportTest, RedactionZeroesTimingsAndPerfButKeepsMetrics) {
  MetricsRegistry registry;
  {
    StageSpan span(&registry, "s");
    span.Metric("det", 5);
    span.PerfMetric("workers", 8);
    // Burn a little time so the unredacted wall time is nonzero.
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  }
  const std::string plain = RunReportToJson(registry);
  const std::string redacted =
      RunReportToJson(registry, RunReportOptions{/*redact_timings=*/true});
  EXPECT_NE(plain.find("\"workers\": 8"), std::string::npos);
  EXPECT_NE(redacted.find("\"workers\": 0"), std::string::npos);
  EXPECT_NE(redacted.find("\"det\": 5"), std::string::npos);
  EXPECT_NE(redacted.find("\"wall_seconds\": 0.0"), std::string::npos);
  EXPECT_NE(redacted.find("\"cpu_seconds\": 0.0"), std::string::npos);
}

TEST(RunReportTest, DoublesKeepAFractionIntsDoNot) {
  MetricsRegistry registry;
  registry.SetGauge("whole", 3.0);
  registry.AddCounter("count", 3);
  const std::string json = RunReportToJson(registry);
  // Integral-valued doubles keep a ".0" so the value class survives a
  // JSON round trip; integers never grow one.
  EXPECT_NE(json.find("\"whole\": 3.0"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_EQ(json.find("\"count\": 3.0"), std::string::npos);
}

TEST(RunReportTest, StringsAreEscaped) {
  MetricsRegistry registry;
  {
    StageSpan span(&registry, "s");
    span.Metric("note", "a\"b\\c\nd");
  }
  const std::string json = RunReportToJson(registry);
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(RunReportTest, HistogramSectionSerializesBoundsAndCounts) {
  MetricsRegistry registry;
  Histogram h(std::vector<double>{1.0, 2.0});
  h.Observe(0.5);
  h.Observe(5.0);
  registry.MergeHistogram("sizes", h);
  const std::string json = RunReportToJson(registry);
  EXPECT_NE(json.find("\"upper_bounds\": [1.0, 2.0]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 0, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"total_count\": 2"), std::string::npos);
}

// ----------------------------------------------------------------- Timers

// Regression guard for the clock source: WallTimer is backed by a
// monotonic clock (also enforced at compile time in util/timer.h), so
// elapsed readings can never go backwards.
TEST(TimerTest, WallTimerIsMonotonic) {
  static_assert(std::chrono::steady_clock::is_steady,
                "steady_clock must be steady");
  WallTimer timer;
  double last = timer.ElapsedSeconds();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = timer.ElapsedSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(TimerTest, ProcessCpuTimerAdvancesUnderWork) {
  ProcessCpuTimer timer;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  timer.Restart();
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

// ------------------------------------------------------ R-MCL iterations

/// The attractor of a flow row as FlowToClustering picks it: the first
/// largest entry in column order.
Index Attractor(const CsrMatrix& m, Index r) {
  Index best = -1;
  Scalar best_val = -1.0;
  const auto cols = m.RowCols(r);
  const auto vals = m.RowValues(r);
  for (size_t i = 0; i < cols.size(); ++i) {
    if (vals[i] > best_val) {
      best_val = vals[i];
      best = cols[i];
    }
  }
  return best;
}

int64_t IntMetric(const SpanNode& span, const std::string& key) {
  for (const auto& [name, value] : span.metrics) {
    if (name == key) return std::get<int64_t>(value);
  }
  ADD_FAILURE() << "span " << span.name << " has no metric " << key;
  return -1;
}

// labels_changed counts the rows whose attractor differs between an
// iteration's input and output flow; it and exact_fallback_rows are
// deterministic metrics, equal at every thread count.
TEST(RmclIterationMetricsTest, LabelsChangedAndFallbackRows) {
  LfrOptions gen;
  gen.num_vertices = 400;
  gen.min_community = 20;
  gen.max_community = 60;
  auto dataset = GenerateLfr(gen);
  ASSERT_TRUE(dataset.ok());
  auto u = SymmetrizeAPlusAT(dataset->graph);
  ASSERT_TRUE(u.ok());
  const CsrMatrix mg = BuildFlowMatrix(*u);
  RmclOptions options;
  options.max_row_nnz = 4;  // small enough for ties at the cap

  CsrMatrix flow = mg;
  int64_t total_fallback = 0;
  for (int iter = 0; iter < 5; ++iter) {
    std::vector<int64_t> changed, fallback;
    CsrMatrix next;
    for (int threads : {1, 4}) {
      MetricsRegistry registry;
      options.metrics = &registry;
      options.num_threads = threads;
      auto out = RmclIterate(flow, mg, options, 1);
      ASSERT_TRUE(out.ok());
      next = std::move(*out);
      for (const SpanNode& span : registry.Spans()) {
        if (span.name != "rmcl.iteration") continue;
        changed.push_back(IntMetric(span, "labels_changed"));
        fallback.push_back(IntMetric(span, "exact_fallback_rows"));
      }
    }
    ASSERT_EQ(changed.size(), 2u);
    int64_t expected = 0;
    for (Index r = 0; r < flow.rows(); ++r) {
      expected += Attractor(flow, r) != Attractor(next, r);
    }
    EXPECT_EQ(changed[0], expected) << "iteration " << iter;
    EXPECT_EQ(changed[1], changed[0]);
    EXPECT_EQ(fallback[1], fallback[0]);
    EXPECT_GE(fallback[0], 0);
    EXPECT_LE(fallback[0], flow.rows());
    total_fallback += fallback[0];
    flow = std::move(next);
  }
  EXPECT_GT(total_fallback, 0);
}

}  // namespace
}  // namespace dgc
