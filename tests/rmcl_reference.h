// Reference R-MCL iteration: the row kernel as it stood before the bitmap
// kernel of src/cluster/mcl.cc, kept here as the differential oracle of
// tests/rmcl_kernel_test.cc. One sequential loop per iteration:
//
//   1. first-touch Gustavson scatter of row r of M * right (marker stamps,
//      touched columns recorded in first-touch order);
//   2. InflatePruneRow: nth_element cap on the raw values in that order,
//      pow() inflation, normalizing sum folded in the order the cap leaves,
//      prune below prune_threshold, sort by column, renormalize;
//   3. L1 row change summed in row order; stop when its mean falls below
//      convergence_tol.
//
// It shares nothing with the library kernel, so a divergence between the
// two is a bug in one of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/mcl.h"
#include "linalg/csr_matrix.h"

namespace dgc::reference {

inline void InflatePruneRow(Index row, std::vector<Index>& cols,
                            std::vector<Scalar>& vals,
                            const RmclOptions& options) {
  if (cols.empty()) return;
  std::vector<std::pair<Scalar, Index>> scratch;
  for (size_t i = 0; i < cols.size(); ++i) {
    scratch.emplace_back(vals[i], cols[i]);
  }
  const size_t cap = static_cast<size_t>(options.max_row_nnz);
  if (scratch.size() > cap) {
    std::nth_element(
        scratch.begin(), scratch.begin() + static_cast<long>(cap),
        scratch.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    scratch.resize(cap);
  }
  Scalar sum = 0.0;
  for (auto& [v, c] : scratch) {
    v = std::pow(v, options.inflation);
    sum += v;
  }
  if (sum <= 0.0) {
    size_t keep = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (std::abs(vals[i]) > std::abs(vals[keep])) keep = i;
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == row) {
        keep = i;
        break;
      }
    }
    cols[0] = cols[keep];
    cols.resize(1);
    vals.resize(1);
    vals[0] = 1.0;
    return;
  }
  size_t out = 0;
  size_t best = 0;
  for (size_t i = 0; i < scratch.size(); ++i) {
    if (scratch[i].first > scratch[best].first) best = i;
    if (scratch[i].first / sum < options.prune_threshold) continue;
    scratch[out++] = scratch[i];
  }
  if (out == 0) {
    scratch[0] = scratch[best];
    out = 1;
  }
  scratch.resize(out);
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  Scalar kept = 0.0;
  for (const auto& [v, c] : scratch) kept += v;
  cols.resize(out);
  vals.resize(out);
  for (size_t i = 0; i < out; ++i) {
    cols[i] = scratch[i].second;
    vals[i] = scratch[i].first / kept;
  }
}

/// Sequential R-MCL from flow `m`; same contract as dgc::RmclIterate
/// (options.num_threads, metrics and cancel are ignored).
inline CsrMatrix RmclIterate(CsrMatrix m, const CsrMatrix& mg,
                             const RmclOptions& options, int iterations) {
  const Index n = m.rows();
  std::vector<Scalar> accum(static_cast<size_t>(n), 0.0);
  std::vector<int64_t> marker(static_cast<size_t>(n), -1);
  for (int iter = 0; iter < iterations; ++iter) {
    const CsrMatrix& right = options.regularized ? mg : m;
    std::vector<Offset> row_ptr(1, 0);
    std::vector<Index> col_idx;
    std::vector<Scalar> values;
    Scalar total_diff = 0.0;
    for (Index r = 0; r < n; ++r) {
      const int64_t stamp = static_cast<int64_t>(iter) * n + r;
      std::vector<Index> cols;
      auto mcols = m.RowCols(r);
      auto mvals = m.RowValues(r);
      for (size_t i = 0; i < mcols.size(); ++i) {
        auto rcols = right.RowCols(mcols[i]);
        auto rvals = right.RowValues(mcols[i]);
        for (size_t p = 0; p < rcols.size(); ++p) {
          const auto c = static_cast<size_t>(rcols[p]);
          if (marker[c] != stamp) {
            marker[c] = stamp;
            accum[c] = 0.0;
            cols.push_back(rcols[p]);
          }
          accum[c] += mvals[i] * rvals[p];
        }
      }
      std::vector<Scalar> vals(cols.size());
      for (size_t p = 0; p < cols.size(); ++p) {
        vals[p] = accum[static_cast<size_t>(cols[p])];
      }
      InflatePruneRow(r, cols, vals, options);
      auto old_cols = m.RowCols(r);
      auto old_vals = m.RowValues(r);
      Scalar diff = 0.0;
      size_t a = 0, b = 0;
      while (a < cols.size() || b < old_cols.size()) {
        if (b >= old_cols.size() ||
            (a < cols.size() && cols[a] < old_cols[b])) {
          diff += std::abs(vals[a++]);
        } else if (a >= cols.size() || old_cols[b] < cols[a]) {
          diff += std::abs(old_vals[b++]);
        } else {
          diff += std::abs(vals[a++] - old_vals[b++]);
        }
      }
      total_diff += diff;
      col_idx.insert(col_idx.end(), cols.begin(), cols.end());
      values.insert(values.end(), vals.begin(), vals.end());
      row_ptr.push_back(static_cast<Offset>(col_idx.size()));
    }
    m = CsrMatrix::FromPartsUnchecked(n, n, std::move(row_ptr),
                                      std::move(col_idx), std::move(values));
    m.ValidateStructure("reference::RmclIterate");
    if (total_diff / static_cast<Scalar>(n) < options.convergence_tol) break;
  }
  return m;
}

}  // namespace dgc::reference
