// Differential test of the R-MCL row kernel: RmclIterate must produce flows
// bit-identical to the first-touch reference kernel (tests/rmcl_reference.h)
// on every input, at every thread count, and on each path by which the
// kernel falls back to the first-touch code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/mcl.h"
#include "core/symmetrize.h"
#include "gen/hyperlink.h"
#include "gen/lfr.h"
#include "gen/rmat.h"
#include "graph/ugraph.h"
#include "linalg/csr_matrix.h"
#include "obs/metrics.h"
#include "rmcl_reference.h"

namespace dgc {
namespace {

::testing::AssertionResult BitIdentical(const CsrMatrix& a,
                                        const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  const auto ap = a.row_ptr(), bp = b.row_ptr();
  const auto ac = a.col_idx(), bc = b.col_idx();
  const auto av = a.values(), bv = b.values();
  if (!std::equal(ap.begin(), ap.end(), bp.begin(), bp.end())) {
    return ::testing::AssertionFailure() << "row pointers differ";
  }
  if (!std::equal(ac.begin(), ac.end(), bc.begin(), bc.end())) {
    return ::testing::AssertionFailure() << "column indices differ";
  }
  for (size_t i = 0; i < av.size(); ++i) {
    if (std::memcmp(&av[i], &bv[i], sizeof(Scalar)) != 0) {
      return ::testing::AssertionFailure()
             << "value " << i << " differs: " << av[i] << " vs " << bv[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Sum of one rmcl.iteration metric over every iteration in `registry`.
int64_t IterationTotal(const MetricsRegistry& registry,
                       const std::string& key) {
  int64_t total = 0;
  for (const SpanNode& span : registry.Spans()) {
    if (span.name != "rmcl.iteration") continue;
    for (const auto& [name, value] : span.metrics) {
      if (name == key) total += std::get<int64_t>(value);
    }
  }
  return total;
}

/// Runs the library kernel at 1, 4 and hardware threads against the
/// reference and returns the number of rows that took the fallback path
/// (the same at every thread count).
int64_t ExpectMatchesReference(const CsrMatrix& m0, const CsrMatrix& mg,
                               RmclOptions options, int iterations) {
  const CsrMatrix expected =
      reference::RmclIterate(m0, mg, options, iterations);
  int64_t fallback_rows = -1;
  for (int threads : {1, 4, 0}) {
    MetricsRegistry registry;
    options.num_threads = threads;
    options.metrics = &registry;
    auto flow = RmclIterate(m0, mg, options, iterations);
    EXPECT_TRUE(flow.ok()) << flow.status().ToString();
    if (!flow.ok()) return fallback_rows;
    EXPECT_TRUE(BitIdentical(*flow, expected)) << "threads=" << threads;
    const int64_t fallback = IterationTotal(registry, "exact_fallback_rows");
    if (fallback_rows >= 0) {
      EXPECT_EQ(fallback, fallback_rows) << "threads=" << threads;
    }
    fallback_rows = fallback;
  }
  return fallback_rows;
}

UGraph Symmetrized(Result<Dataset> dataset) {
  EXPECT_TRUE(dataset.ok());
  auto u = SymmetrizeAPlusAT(dataset->graph);
  EXPECT_TRUE(u.ok());
  return std::move(u).ValueOrDie();
}

UGraph LfrGraph() {
  LfrOptions options;
  options.num_vertices = 600;
  options.min_community = 20;
  options.max_community = 80;
  return Symmetrized(GenerateLfr(options));
}

UGraph RmatGraph() {
  RmatOptions options;
  options.scale = 9;
  options.edge_factor = 6.0;
  return Symmetrized(GenerateRmat(options));
}

UGraph HyperlinkGraph() {
  HyperlinkOptions options;
  options.num_articles = 1500;
  options.num_categories = 20;
  return Symmetrized(GenerateHyperlink(options));
}

/// Unit-weight ring lattice: every vertex linked to its `k` nearest
/// neighbours on each side. Every row of M_G^2 is full of exact ties.
UGraph RingLattice(Index n, Index k) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index u = 0; u < n; ++u) {
    for (Index d = 1; d <= k; ++d) edges.emplace_back(u, (u + d) % n, 1.0);
  }
  auto g = UGraph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

/// Unit-weight complete bipartite graph K_{a,b}.
UGraph CompleteBipartite(Index a, Index b) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index u = 0; u < a; ++u) {
    for (Index v = 0; v < b; ++v) edges.emplace_back(u, a + v, 1.0);
  }
  auto g = UGraph::FromEdges(a + b, edges);
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

struct GraphCase {
  std::string name;
  UGraph (*make)();
};

void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

class RmclKernelTest
    : public ::testing::TestWithParam<std::tuple<GraphCase, Index>> {};

INSTANTIATE_TEST_SUITE_P(
    GraphsAndCaps, RmclKernelTest,
    ::testing::Combine(
        ::testing::Values(
            GraphCase{"Lfr", &LfrGraph}, GraphCase{"Rmat", &RmatGraph},
            GraphCase{"Hyperlink", &HyperlinkGraph},
            GraphCase{"RingLattice", [] { return RingLattice(300, 4); }},
            GraphCase{"CompleteBipartite",
                      [] { return CompleteBipartite(12, 20); }}),
        ::testing::Values(Index{3}, Index{50})),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_cap" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(RmclKernelTest, MatchesFirstTouchReference) {
  const auto& [graph_case, cap] = GetParam();
  const UGraph g = graph_case.make();
  RmclOptions options;
  options.max_row_nnz = cap;
  const CsrMatrix mg = BuildFlowMatrix(g, options.self_loop_scale);
  ExpectMatchesReference(mg, mg, options, 8);
}

TEST_P(RmclKernelTest, ClassicMclExpansionMatches) {
  const auto& [graph_case, cap] = GetParam();
  const UGraph g = graph_case.make();
  RmclOptions options;
  options.max_row_nnz = cap;
  options.regularized = false;
  const CsrMatrix mg = BuildFlowMatrix(g, options.self_loop_scale);
  ExpectMatchesReference(mg, mg, options, 5);
}

// A tie at the cap-th value leaves the kept set to nth_element's
// tie-breaking on first-touch order.
TEST(RmclKernelFallbackTest, TieStraddlingTheCap) {
  // Ring lattice, k = 3: row r of M_G^2 holds (7 - |d|)/49 at distance d,
  // so a cap of 4 splits the pair at distance 2.
  const CsrMatrix ring = BuildFlowMatrix(RingLattice(120, 3));
  RmclOptions options;
  options.max_row_nnz = 4;
  EXPECT_GT(ExpectMatchesReference(ring, ring, options, 1), 0);
  EXPECT_GT(ExpectMatchesReference(ring, ring, options, 6), 0);
  // K_{12,20}: beyond the row's own vertex, every entry on a side ties.
  const CsrMatrix bipartite = BuildFlowMatrix(CompleteBipartite(12, 20));
  options.max_row_nnz = 3;
  EXPECT_GT(ExpectMatchesReference(bipartite, bipartite, options, 4), 0);
}

// A threshold equal to a survivor's normalized value: the two summation
// orders of the normalizing sum may put it on either side.
TEST(RmclKernelFallbackTest, PruneThresholdOnASurvivorValue) {
  const CsrMatrix mg = BuildFlowMatrix(HyperlinkGraph());
  RmclOptions options;
  options.prune_threshold = 0.0;  // nothing pruned: outputs are p / sum
  const CsrMatrix unpruned = reference::RmclIterate(mg, mg, options, 1);
  Index row = 0;
  while (unpruned.RowNnz(row) < 3) ++row;
  const auto values = unpruned.RowValues(row);
  for (size_t i = 0; i < std::min<size_t>(values.size(), 8); ++i) {
    const Scalar value = values[i];
    options.prune_threshold = value;
    EXPECT_GT(ExpectMatchesReference(mg, mg, options, 1), 0)
        << "threshold " << value;
  }
  options.prune_threshold = unpruned.RowValues(row)[1];
  ExpectMatchesReference(mg, mg, options, 6);
}

// Inflated values that underflow to zero: the reference collapses the row
// onto its self-loop.
TEST(RmclKernelFallbackTest, InflationUnderflowsToZero) {
  const CsrMatrix ring = BuildFlowMatrix(RingLattice(60, 3));
  RmclOptions options;
  options.inflation = 2000.0;
  EXPECT_EQ(ExpectMatchesReference(ring, ring, options, 1), 60);
  EXPECT_GT(ExpectMatchesReference(ring, ring, options, 4), 0);
}

// A NaN or infinite entry makes the cap selection order-dependent.
TEST(RmclKernelFallbackTest, NonFiniteValues) {
  const CsrMatrix mg = BuildFlowMatrix(LfrGraph());
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity(), -1.0}) {
    std::vector<Scalar> values(mg.values().begin(), mg.values().end());
    values[values.size() / 2] = bad;
    const CsrMatrix m0 = CsrMatrix::FromPartsUnchecked(
        mg.rows(), mg.cols(),
        std::vector<Offset>(mg.row_ptr().begin(), mg.row_ptr().end()),
        std::vector<Index>(mg.col_idx().begin(), mg.col_idx().end()),
        std::move(values));
    m0.ValidateStructure("NonFiniteValues");
    RmclOptions options;
    EXPECT_GT(ExpectMatchesReference(m0, mg, options, 1), 0) << bad;
    EXPECT_GT(ExpectMatchesReference(m0, m0, options, 3), 0) << bad;
  }
}

// Every normalized survivor below the threshold: the reference keeps the
// first largest in its selection order.
TEST(RmclKernelFallbackTest, EmptyKeptSet) {
  const CsrMatrix mg = BuildFlowMatrix(RmatGraph());
  RmclOptions options;
  options.prune_threshold = 1.0;
  EXPECT_GT(ExpectMatchesReference(mg, mg, options, 1), 0);
  EXPECT_GT(ExpectMatchesReference(mg, mg, options, 3), 0);
}

// max_row_nnz = 0 collapses every row; a negative cap means no cap.
TEST(RmclKernelFallbackTest, DegenerateCaps) {
  const CsrMatrix mg = BuildFlowMatrix(LfrGraph());
  RmclOptions options;
  options.max_row_nnz = 0;
  EXPECT_EQ(ExpectMatchesReference(mg, mg, options, 1), mg.rows());
  options.max_row_nnz = -1;
  ExpectMatchesReference(mg, mg, options, 4);
}

}  // namespace
}  // namespace dgc
