// Run reports must be bit-identical across thread counts once timing and
// perf fields are redacted: every value recorded under "metrics" is part of
// the library's determinism contract, while wall/cpu times and "perf"
// entries (worker counts, row ranges) are the only thread-dependent state.
#include <gtest/gtest.h>

#include <string>

#include "cluster/pipeline.h"
#include "eval/record.h"
#include "gen/lfr.h"
#include "gen/rmat.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace dgc {
namespace {

/// Runs the full pipeline on `g` with `threads` workers, recording every
/// stage plus the eval metrics into a fresh registry, and returns the
/// redacted JSON report.
std::string RedactedReport(const Digraph& g, SymmetrizationMethod method,
                           ClusterAlgorithm algorithm, int threads) {
  MetricsRegistry registry;
  PipelineOptions pipeline;
  pipeline.method = method;
  pipeline.algorithm = algorithm;
  pipeline.symmetrization.prune_threshold = 0.01;
  pipeline.mlr_mcl.rmcl.max_iterations = 12;
  pipeline.num_threads = threads;
  pipeline.metrics = &registry;
  auto result = SymmetrizeAndCluster(g, pipeline);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    RecordClusteringMetrics(result->symmetrized, result->clustering,
                            &registry);
  }
  return RunReportToJson(registry, RunReportOptions{/*redact_timings=*/true});
}

TEST(ReportDeterminismTest, RmatDegreeDiscountedMlrMclAcrossThreadCounts) {
  RmatOptions gen;
  gen.scale = 9;
  gen.edge_factor = 6.0;
  auto dataset = GenerateRmat(gen);
  ASSERT_TRUE(dataset.ok());

  const std::string serial =
      RedactedReport(dataset->graph, SymmetrizationMethod::kDegreeDiscounted,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/1);
  const std::string eight =
      RedactedReport(dataset->graph, SymmetrizationMethod::kDegreeDiscounted,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/8);
  const std::string hardware =
      RedactedReport(dataset->graph, SymmetrizationMethod::kDegreeDiscounted,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/0);
  EXPECT_EQ(serial, eight);
  EXPECT_EQ(serial, hardware);
  // Sanity: the redacted report still carries the deterministic content.
  EXPECT_NE(serial.find("\"schema\": \"dgc.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"name\": \"symmetrize\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\": \"rmcl.iteration\""), std::string::npos);
  EXPECT_NE(serial.find("\"exact_fallback_rows\""), std::string::npos);
  EXPECT_NE(serial.find("\"labels_changed\""), std::string::npos);
  EXPECT_NE(serial.find("eval.modularity"), std::string::npos);
  EXPECT_NE(serial.find("eval.cluster_size"), std::string::npos);
}

TEST(ReportDeterminismTest, LfrBibliometricMlrMclAcrossThreadCounts) {
  LfrOptions gen;
  gen.num_vertices = 600;
  gen.min_community = 20;
  gen.max_community = 80;
  gen.style = LfrCommunityStyle::kCocitation;
  auto dataset = GenerateLfr(gen);
  ASSERT_TRUE(dataset.ok());

  const std::string serial =
      RedactedReport(dataset->graph, SymmetrizationMethod::kBibliometric,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/1);
  const std::string eight =
      RedactedReport(dataset->graph, SymmetrizationMethod::kBibliometric,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/8);
  EXPECT_EQ(serial, eight);
}

TEST(ReportDeterminismTest, RepeatedRunsAreByteIdentical) {
  RmatOptions gen;
  gen.scale = 8;
  auto dataset = GenerateRmat(gen);
  ASSERT_TRUE(dataset.ok());
  const std::string first =
      RedactedReport(dataset->graph, SymmetrizationMethod::kRandomWalk,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/4);
  const std::string second =
      RedactedReport(dataset->graph, SymmetrizationMethod::kRandomWalk,
                     ClusterAlgorithm::kMlrMcl, /*threads=*/4);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dgc
